"""Exact linear algebra over the Gaussian rationals.

GaussianRational results are canonical (gcd(a, b, d) == 1, d > 0) after at
most one gcd, none at d == 1.  RowSpace is the one elimination kernel.  It
is not field-generic: it takes int, Fraction or GaussianRational entries
and reduces their Gaussian-integer numerators fraction-free, with one
content pass per row update.  `solve_sparse` reads the solutions and the
kernel of a system from one such reduction and divides by a pivot only
there.  Zero tests of many values at once (solver.recursion_defects) also
run on integer numerators over a common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class GaussianRational:
    """Exact complex number (a + b*i)/d with integer a, b and d > 0.

    Always canonical: gcd(a, b, d) == 1 and d > 0, so equal values have equal
    (a, b, d).  Supports mixed arithmetic with int and Fraction.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, a=0, b=0, d=1):
        if isinstance(a, GaussianRational):
            return a
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            a, b = Fraction(a), Fraction(b)
            d = lcm(a.denominator, b.denominator)
            a, b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        return _raw(a, b, d)

    @classmethod
    def from_fractions(cls, re, im=0):
        return cls(Fraction(re), Fraction(im))

    @property
    def real(self):
        return Fraction(self.a, self.d)

    @property
    def imag(self):
        return Fraction(self.b, self.d)

    def is_real(self):
        return self.b == 0

    def conjugate(self):
        return _canonical(self.a, -self.b, self.d)

    def __add__(self, o):
        if type(o) is not GaussianRational and (o := _coerce(o)) is None:
            return NotImplemented
        if self.d == o.d:
            return _raw(self.a + o.a, self.b + o.b, self.d)
        return _raw(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not GaussianRational and (o := _coerce(o)) is None:
            return NotImplemented
        if self.d == o.d:
            return _raw(self.a - o.a, self.b - o.b, self.d)
        return _raw(self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d, self.d * o.d)

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, o):
        if type(o) is not GaussianRational and (o := _coerce(o)) is None:
            return NotImplemented
        if not self.b and not o.b:
            return _raw(self.a * o.a, 0, self.d * o.d)
        return _raw(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        n = o.a * o.a + o.b * o.b
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _raw((self.a * o.a + self.b * o.b) * o.d,
                    (self.b * o.a - self.a * o.b) * o.d,
                    self.d * n)

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o / self

    def __neg__(self):
        return _canonical(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = _raw(1, 0, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __complex__(self):
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        if self.b == 0:
            return str(Fraction(self.a, self.d))
        return f"({Fraction(self.a, self.d)}{'+' if self.b >= 0 else '-'}{abs(Fraction(self.b, self.d))}i)"


_new = object.__new__


def _raw(a, b, d):
    """Canonical (a + b*i)/d for d > 0: one gcd, none when d == 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _canonical(a, b, d)


def _canonical(a, b, d):
    """(a + b*i)/d from fields that are already canonical."""
    self = _new(GaussianRational)
    self.a = a
    self.b = b
    self.d = d
    return self


def _coerce(other):
    if isinstance(other, GaussianRational):
        return other
    if isinstance(other, (int, Fraction)):
        return _raw(other.numerator, 0, other.denominator)
    return None


QQI_ZERO = GaussianRational(0)
QQI_ONE = GaussianRational(1)
QQI_I = GaussianRational(0, 1)


class RowSpace:
    """Incrementally built row space kept in reduced echelon form.

    Entries given to `add` may be int, Fraction or GaussianRational.  Rows
    are stored fraction-free: sparse dicts column -> Gaussian integer
    (re, im), each divided by the gcd of all its components.  Row p has an
    unnormalised nonzero entry at its pivot column p and none at any other
    pivot column.  `key` orders the columns for pivot selection; picking
    pivots on the highest-degree monomials first keeps fill-in low for the
    filtration-truncated module matrices.
    """

    def __init__(self, key=None):
        self.key = key
        self.rows = {}  # pivot column -> numerator row

    @property
    def rank(self):
        return len(self.rows)

    def copy(self):
        """An independent space with the same rows."""
        out = RowSpace(self.key)
        out.rows = {p: dict(row) for p, row in self.rows.items()}
        return out

    def _reduce(self, vec):
        """Numerators vec reduced in place against the stored rows, which
        vanish on each other's pivots, so no elimination brings one back."""
        rows = self.rows
        for c in [c for c in vec if c in rows]:
            _eliminate(vec, c, rows[c])
        return vec

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the space."""
        return self.add_numerators(_numerators(vec))

    def add_numerators(self, vec):
        """`add` for a vector given as `_numerators` gives it; consumes vec."""
        red = self._reduce(vec)
        if not red:
            return False
        p = min(red) if self.key is None else min(red, key=self.key)
        _primitive(red)
        # back-eliminate p from existing rows to keep full reduction
        for row in self.rows.values():
            if p in row:
                _eliminate(row, p, red)
                _primitive(row)
        self.rows[p] = red
        return True

    def contains(self, vec):
        return not self._reduce(_numerators(vec))

    def kernel(self, ncols, one):
        """Kernel of the rows cut to columns 0..ncols-1, as {fc: vector} over
        the free columns fc, ascending: `one` at fc, -row_p[fc] / row_p[p]
        at each pivot p < ncols, in ascending column order."""
        vecs = {c: {} for c in range(ncols) if c not in self.rows}
        for c in range(ncols):
            row = self.rows.get(c)
            if row is None:
                vecs[c][c] = one
                continue
            for fc, v in row.items():
                if fc != c and fc < ncols:
                    vecs[fc][c] = -_canonical(*_quotient(v, row[c]))
        return vecs


def _numerators(vec):
    """Gaussian-integer numerators (re, im) of the nonzero entries of vec
    over their least common denominator."""
    vals = {c: v if type(v) is GaussianRational else _coerce(v)
            for c, v in vec.items() if v}
    den = 1
    for v in vals.values():
        den = lcm(den, v.d)
    return {c: (v.a * (den // v.d), v.b * (den // v.d)) for c, v in vals.items()}


def _quotient(x, p):
    """x / p for Gaussian integers (re, im), as (re, im, d) in lowest terms
    with d > 0: the fields of a canonical GaussianRational."""
    (a, b), (pr, pi) = x, p
    re, im, d = a * pr + b * pi, b * pr - a * pi, pr * pr + pi * pi
    g = gcd(re, im, d)
    return re // g, im // g, d // g


def _eliminate(vec, col, row):
    """vec := d * vec - n * row in place, where vec[col] / row[col] = n / d
    in lowest terms; column col cancels and is dropped with the others that
    do."""
    re, im, d = _quotient(vec[col], row[col])
    if d != 1:
        for c, (a, b) in vec.items():
            vec[c] = (a * d, b * d)
    _add_multiple(vec, (-re, -im), row)


def _add_multiple(vec, m, row):
    """vec += m * row in place, multiplying Gaussian integers (re, im)."""
    mr, mi = m
    for c, (a, b) in row.items():
        re, im = mr * a - mi * b, mr * b + mi * a
        old = vec.get(c)
        if old is not None:
            re += old[0]
            im += old[1]
            if not (re or im):
                del vec[c]
                continue
        vec[c] = (re, im)


def _primitive(vec):
    """Divide vec in place by the gcd of all its components, found
    incrementally and stopping at 1."""
    g = 0
    for a, b in vec.values():
        g = gcd(g, a, b)
        if g == 1:
            return
    for c, (a, b) in vec.items():
        vec[c] = (a // g, b // g)


def solve_sparse(rows, ncols, rhs_list, one=1):
    """Solve A x = b exactly for several right-hand sides, plus the kernel of A.

    rows: sparse rows of A (dicts over columns 0..ncols-1); rhs_list: one
    vector of length len(rows) per right-hand side.  Right-hand side t is
    appended to the rows as column ncols + t, after every unknown, and the
    augmented matrix is reduced once; its reduced row echelon form is unique
    for this column order.  Returns (solutions, kernel):

    - solutions[t] is None if b_t is not in the column space of A, else the
      particular solution with every free variable zero;
    - kernel has one vector per free column of A, in ascending free-column
      order, with `one` in that column and pivot columns by back substitution.

    Vectors are sparse dicts holding nonzero GaussianRational entries (and
    `one`) in ascending column order.
    """
    space = RowSpace()
    for i, row in enumerate(rows):
        aug = dict(row)
        for t, rhs in enumerate(rhs_list):
            if rhs[i]:
                aug[ncols + t] = rhs[i]
        space.add(aug)
    unknown_pivots = sorted(p for p in space.rows if p < ncols)
    # b_t is inconsistent iff a row pivoting on a right-hand side column
    # reaches column ncols + t; that column need not be a pivot itself.
    bad = {c for p, row in space.rows.items() if p >= ncols for c in row}
    solutions = [None if col in bad else
                 {p: _canonical(*_quotient(space.rows[p][col], space.rows[p][p]))
                  for p in unknown_pivots if col in space.rows[p]}
                 for col in range(ncols, ncols + len(rhs_list))]
    return solutions, list(space.kernel(ncols, one).values())
