"""Exact linear algebra over the Gaussian rationals.

GaussianRational results are canonical (gcd(a, b, d) == 1, d > 0) after at
most one gcd, none at d == 1.  RowSpace is the one elimination kernel.  It
takes int, Fraction or GaussianRational entries and reduces their integer
numerators fraction-free (Bareiss), one content pass per row update, and
Q(i) data by restriction of scalars.  `solve_sparse` reads the solutions
and the kernel of a system from one such reduction, `RowSpace.kernel` that
of a space, each vector as integer numerators over its least common
denominator.  Right-hand sides, and the zero tests of many values at once
(solver.recursion_defects), are numerators over one denominator too.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from math import gcd, inf, lcm


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
    are stored fraction-free: sparse dicts column -> int of content 1,
    positive at their pivot column p and zero at every other pivot.  `key`
    orders the columns for pivot selection; picking pivots on the
    highest-degree monomials first keeps fill-in low for the
    filtration-truncated module matrices.

    Restriction of scalars: at its first non-real row the space is
    realified.  Column c becomes 2c (real part) and 2c + 1 (imaginary), with
    key(2c + s) = 2 key(c) + s; a stored row r becomes r on the even and r
    on the odd columns, both reduced; a row a + ib goes in as (a, -b) and
    (b, a).  `rank`, `pivots`, `kernel` and `solve_sparse` answer in Q(i)
    terms, as a reduction over Q(i) would: c is a complex pivot iff 2c and
    2c + 1 are pivots; a kernel vector is fixed by its values on the free
    columns, so that of free column 2c realifies that of c; and the reduced
    echelon form is unique for a fixed column order.
    """

    def __init__(self, key=None):
        self.key = key
        self.rows = {}          # pivot column -> integer row
        self.complex = False    # realified: Q(i) column c is columns 2c, 2c + 1
        self._order = key       # the pivot order on the stored columns
        self._first = inf       # the least stored pivot in that order

    @property
    def rank(self):
        return len(self.rows) >> self.complex

    @property
    def pivots(self):
        """The pivot columns in Q(i) terms, ascending."""
        s = self.complex
        return sorted(p >> s for p in self.rows if not p & s)

    def copy(self):
        """An independent space with the same rows."""
        out = copy(self)
        out.rows = {p: dict(row) for p, row in self.rows.items()}
        return out

    def _realify(self):
        self.complex = True
        self.rows = {2 * p + s: {2 * c + s: v for c, v in row.items()}
                     for p, row in self.rows.items() for s in (0, 1)}
        if self.key is not None:
            key = self.key
            self._order = lambda c: 2 * key(c >> 1) + (c & 1)
        self._first *= 2

    def _reduce(self, vec):
        """Integer row vec reduced in place against the stored rows, which
        vanish on each other's pivots, so no elimination brings one back."""
        rows = self.rows
        for c in [c for c in vec if c in rows]:
            _eliminate(vec, c, rows[c])
        return vec

    def _insert(self, vec):
        """Store what is left of integer row vec after reduction; True if
        anything is.  A stored row has no entry before its pivot, so only
        rows pivoting before the new pivot p can hold an entry at p: none
        when p comes first, as it mostly does under descending insertion."""
        red = self._reduce(vec)
        if not red:
            return False
        order = self._order
        p = min(red) if order is None else min(red, key=order)
        place = p if order is None else order(p)
        _primitive(red, p)
        if place > self._first:
            for q, row in self.rows.items():
                if p in row:
                    _eliminate(row, p, red)
                    _primitive(row, q)
        self._first = min(self._first, place)
        self.rows[p] = red
        return True

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the space."""
        re, im, _ = _numerators(vec)
        return self.add_numerators(re, im)

    def add_numerators(self, re, im=None):
        """`add` for the vector (re + i im) / d, given as dicts of the nonzero
        integer numerators of its parts; consumes re."""
        if im and not self.complex:
            self._realify()
        if not self.complex:
            return self._insert(re)
        # the rows (a, -b) and (b, a); i times a new vector is new again
        im = im or {}
        return (self._insert({2 * c: v for c, v in re.items()}
                             | {2 * c + 1: -v for c, v in im.items()})
                and self._insert({2 * c: v for c, v in im.items()}
                                 | {2 * c + 1: v for c, v in re.items()}))

    def contains(self, vec):
        return not self.copy().add(vec)

    def _read(self, ncols, dens=()):
        """(solutions, kernel) for unknowns 0..ncols-1 and column ncols + t
        holding dens[t] b_t, as `solve_sparse`; the kernel as {fc: vector};
        one vector at a time, down the pivot rows.  Realified, the rows of
        pivots 2p and 2p + 1 hold the Q(i) row u + i w' as (u, -w') d and
        (w', u) d: the same entries up to sign, so one primitive scaling d."""
        s, rows = self.complex, self.rows
        pivots = [(p, rows[p << s], rows[(p << s) + 1] if s else {})
                  for p in self.pivots if p < ncols]

        def vector(col, sign, scale, values):
            for p, re, im in pivots:
                a, b = re.get(col << s, 0), im.get(col << s, 0)
                if a or b:
                    values.append((p, sign * a, sign * b, re[p << s] * scale))
            return _over_lcd(values)

        return ([vector(ncols + t, 1, d, []) for t, d in enumerate(dens)],
                {c: vector(c, -1, 1, [(c, 1, 0, 1)]) for c in range(ncols) if c << s not in rows})

    def kernel(self, ncols):
        """Kernel of the rows cut to columns 0..ncols-1, as {fc: vector} over
        the free columns fc, ascending, in the form of `solve_sparse`."""
        return self._read(ncols)[1]


def _over_lcd(values):
    """(re, im, den) for the values (a + i b) / d given as (column, a, b, d):
    dicts of the nonzero numerators of both parts over den, their least
    common denominator M / gcd(M, all numerators) for M the lcm of the d."""
    den = lcm(*[d for *_, d in values])
    re = {c: a * (den // d) for c, a, _, d in values if a}
    im = {c: b * (den // d) for c, _, b, d in values if b}
    g = gcd(den, *re.values(), *im.values())
    if g != 1:
        re = {c: v // g for c, v in re.items()}
        im = {c: v // g for c, v in im.items()}
        den //= g
    return re, im, den


def numerators(values):
    """(re, im, d): lists of the integer numerators of the real and the
    imaginary parts of values over d, the lcm of their denominators."""
    values = [GaussianRational(v) for v in values]
    d = lcm(*(v.d for v in values))
    return [v.a * (d // v.d) for v in values], [v.b * (d // v.d) for v in values], d


def _numerators(vec):
    """Integer numerators (re, im) of the nonzero parts of the entries of
    vec over their least common denominator d, as dicts, and d; im is empty
    when vec is real."""
    if set(map(type, vec.values())) <= {int}:
        return dict(vec) if 0 not in vec.values() else {c: v for c, v in vec.items() if v}, {}, 1
    exact = {c: v if type(v) is GaussianRational else _coerce(v)
             for c, v in vec.items() if type(v) is not int}
    den = lcm(*[v.d for v in exact.values()])
    re = {c: v * den for c, v in vec.items() if type(v) is int and v}
    re.update((c, v.a * (den // v.d)) for c, v in exact.items() if v.a)
    return re, {c: v.b * (den // v.d) for c, v in exact.items() if v.b}, den


def _eliminate(vec, col, row):
    """vec := d * vec - n * row in place, where vec[col] / row[col] = n / d
    in lowest terms with d > 0 (a stored row is positive at its pivot);
    column col cancels and is dropped with the others that do."""
    n, d = vec[col], row[col]
    if d != 1:
        g = gcd(n, d)
        n //= g
        d //= g
        if d != 1:
            for c, v in vec.items():
                vec[c] = v * d
    for c, v in row.items():
        if c in vec:
            v = vec[c] - n * v
            if v:
                vec[c] = v
            else:
                del vec[c]
        else:
            vec[c] = -n * v


def _primitive(vec, p):
    """Divide vec in place by the gcd of its entries, signed so that the
    entry at p becomes positive."""
    g = gcd(*vec.values())
    if vec[p] < 0:
        g = -g
    if g != 1:
        for c, v in vec.items():
            vec[c] = v // g


def solve_sparse(rows, ncols, rhs_list):
    """Solve A x = b exactly for several right-hand sides, plus the kernel of A.

    rows: sparse rows of A (dicts over columns 0..ncols-1).  rhs_list: one
    right-hand side b_t per entry, as (re, im, d) with b_t[i] =
    (re[i] + i im[i]) / d: integer sequences of length len(rows), im None
    for a real b_t, and d > 0, as `numerators` gives them.  The numerators
    d * b_t go in as column ncols + t, after every unknown, and the
    augmented matrix is reduced once, its rows going in from the last
    leading column down; its reduced row echelon form is unique for this
    column order, and scaling column ncols + t scales only its entries, so
    d enters where a solution entry is read.  Returns (solutions, kernel):

    - solutions[t] is None if b_t is not in the column space of A, else the
      particular solution with every free variable zero;
    - kernel has one vector per free column of A, in ascending free-column
      order, 1 in that column and pivot columns by back substitution.

    A vector is (re, im, den): dicts of the nonzero integer numerators of
    its real and imaginary parts over den, their least common denominator.
    """
    space = RowSpace()
    for i in sorted(range(len(rows)), key=lambda i: min(rows[i], default=ncols), reverse=True):
        re, im, d = _numerators(rows[i])
        for col, (nr, ni, _) in enumerate(rhs_list, ncols):
            if nr[i]:
                re[col] = nr[i] * d
            if ni is not None and ni[i]:
                im[col] = ni[i] * d
        space.add_numerators(re, im)
    # b_t is inconsistent iff a row pivoting on a right-hand side column
    # reaches column ncols + t; that column need not be a pivot itself.
    s = space.complex
    bad = {c >> s for p, row in space.rows.items() if p >> s >= ncols for c in row}
    solutions, kernel = space._read(ncols, [d for _, _, d in rhs_list])
    return ([None if ncols + t in bad else sol for t, sol in enumerate(solutions)],
            list(kernel.values()))
