"""Exact linear algebra over the cyclotomic fields Q(zeta_m).

A value of Q(zeta_m) is phi(m) integer numerators over one denominator, its
coordinates in the power basis 1, zeta, ..., zeta^(phi(m) - 1): Q (m = 1)
has one part, Q(i) (m = 4) the real and the imaginary one.  Products,
embeddings, Galois images and roots of unity read one power table, reduced
mod Phi_m.  GaussianRational, kept canonical, is the value that problem
files parse to and reports format from; it has no arithmetic.

RowSpace is the one elimination kernel.  It reduces integer rows
fraction-free (Bareiss), one content pass per row update, and rows over
Q(zeta_m) by restriction of scalars to Q.  Rows given at once enter in
one order, `RowSpace.extend`'s: from the last leading column down in the
space's column order.  `solve_sparse` reads the solutions and the kernel
of a system from one such reduction, each vector as integer parts over its
least common denominator.
"""

from __future__ import annotations

import cmath
import functools
from copy import copy
from fractions import Fraction
from itertools import chain
from math import gcd, inf, lcm


def field(*orders):
    """The name m of Q(zeta_L), L the lcm of the orders: L / 2 when L is 2
    mod 4, as zeta_2n = -zeta_n^((n + 1) / 2) for odd n."""
    m = lcm(*orders)
    return m // 2 if m % 4 == 2 else m


@functools.cache
def cyclotomic(m):
    """The coefficients of Phi_m, constant term first: x^m - 1 divided by
    Phi_d for every proper divisor d of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            div = cyclotomic(d)
            q = [0] * (len(poly) - len(div) + 1)
            for i in reversed(range(len(q))):
                q[i] = poly[i + len(div) - 1]
                for j, c in enumerate(div):
                    poly[i + j] -= q[i] * c
            poly = q
    return tuple(poly)


@functools.cache
def powers(m):
    """zeta_m^e in the power basis for e = 0..m-1, reduced by
    zeta^phi = -sum_j c_j zeta^j for Phi_m = sum_j c_j x^j."""
    c = cyclotomic(m)
    row = [1] + [0] * (len(c) - 2)
    out = []
    for _ in range(m):
        out.append(tuple(row))
        top, row = row[-1], [0] + row[:-1]
        if top:
            row = [v - top * cj for v, cj in zip(row, c)]
    return tuple(out)


def degree(m):
    """phi(m), the number of parts of a value of Q(zeta_m)."""
    return len(cyclotomic(m)) - 1


def mul(a, b, m):
    """The parts of a b in Q(zeta_m) from those of a and b, sum_ij a_i b_j
    zeta^(i + j).  A part may be an int or an integer array; int parts of a
    that are 0 are skipped."""
    T = powers(m)
    terms = [(u * v, T[(i + j) % m]) for i, u in enumerate(a) if type(u) is not int or u
             for j, v in enumerate(b)]
    return _apply(*zip(*terms), m) if terms else [0] * degree(m)


def root_of_unity(t, m):
    """The parts of exp(2 pi i t) in Q(zeta_m), for a rational t whose
    denominator divides m, or 2m for odd m."""
    n = t * 2 * m
    if n.denominator != 1:
        raise ValueError(f"exp(2 pi i {t}) is not in Q(zeta_{m})")
    T, n = powers(m), int(n)
    return list(T[n // 2 % m]) if n % 2 == 0 else [-v for v in T[(n + m) // 2 % m]]


def _apply(parts, images, m):
    """sum_j parts[j] images[j] by parts, images[j] the parts of an element of
    Q(zeta_m); zero int parts are skipped."""
    out = [0] * degree(m)
    for p, image in zip(parts, images):
        if type(p) is not int or p:
            for s, c in enumerate(image):
                if c:
                    out[s] = out[s] + (p if c == 1 else c * p)
    return out


def embed(parts, m, L):
    """The parts in Q(zeta_L) of a value of its subfield Q(zeta_m), m | L."""
    return _apply(parts, [root_of_unity(Fraction(j, m), L) for j in range(len(parts))], L)


def galois(parts, a, m):
    """sigma_a (zeta -> zeta^a, a prime to m) of a value of Q(zeta_m)."""
    T = powers(m)
    return _apply(parts, [T[a * j % m] for j in range(len(parts))], m)


def complex_basis(m):
    """zeta_m^s for s < phi(m) as complex floats, exact at quarter turns."""
    return [(1, 1j, -1, -1j)[4 * s // m] if 4 * s % m == 0 else cmath.exp(2j * cmath.pi * s / m)
            for s in range(degree(m))]


def numerators(values):
    """(m, parts, den) of int, Fraction and GaussianRational values: m = 4 if
    one is not real, else 1, and parts[s][i] / den the part s of values[i],
    den the lcm of their denominators."""
    values = [GaussianRational(v) for v in values]
    den = lcm(*(v.d for v in values))
    re = [v.a * (den // v.d) for v in values]
    if not any(v.b for v in values):
        return 1, [re], den
    return 4, [re, [v.b * (den // v.d) for v in values]], den


class GaussianRational:
    """Exact complex number (a + b*i)/d with integer a, b and d > 0, kept
    canonical: gcd(a, b, d) == 1.  It is the value that problem files parse
    to and reports format from, and has no arithmetic: the package computes
    on the integer parts above.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, a=0, b=0, d=1):
        if isinstance(a, cls):
            return a
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            a, b = Fraction(a), Fraction(b)
            d = lcm(a.denominator, b.denominator)
            a, b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        g = gcd(a, b, d) if d > 0 else -gcd(a, b, d)
        self = object.__new__(cls)
        self.a, self.b, self.d = a // g, b // g, d // g
        return self

    @classmethod
    def from_fractions(cls, re, im=0):
        return cls(Fraction(re), Fraction(im))

    @property
    def real(self):
        return Fraction(self.a, self.d)

    @property
    def imag(self):
        """The imaginary part, which a complex leading entry reports."""
        return Fraction(self.b, self.d)

    def is_real(self):
        return self.b == 0


class RowSpace:
    """Incrementally built row space kept in reduced echelon form.

    Rows are stored fraction-free: sparse dicts column -> int of content 1,
    positive at their pivot column p and zero at every other pivot.  `key`
    orders the columns for pivot selection; picking pivots on the
    highest-degree monomials first keeps fill-in low for the
    filtration-truncated module matrices.

    Restriction of scalars: at its first row over Q(zeta_m) that is not
    rational, column c becomes the n = phi(m) columns nc + t, one per part,
    with key(nc + t) = n key(c) + t, and a row v enters as the n rows s whose
    entry at nc + t is part s of zeta^t v_c (the functional y -> part s of
    v . y; a stored rational row is one of them).  `rank`, `pivots`, `kernel`
    and `solve_sparse` answer over Q(zeta_m): the stored rows span the parts
    of w . y for w in the span over Q(zeta_m), which zeta maps to itself, so
    c is a pivot iff all its n columns are; the kernel vector of free column
    nc is the parts of that of c; and the reduced echelon form is unique for
    a fixed column order.
    """

    def __init__(self, key=None):
        self.key = key
        self.rows = {}          # pivot column -> integer row
        self.m = 1              # the field Q(zeta_m) of the rows
        self.n = 1              # stored columns per column: phi(m) once restricted
        self._order = key       # the pivot order on the stored columns
        self._first = inf       # the least stored pivot in that order

    @property
    def rank(self):
        return len(self.rows) // self.n

    @property
    def pivots(self):
        """The pivot columns in Q(zeta_m) terms, ascending."""
        n = self.n
        return sorted(p // n for p in self.rows if not p % n)

    def copy(self):
        """An independent space with the same rows."""
        out = copy(self)
        out.rows = {p: dict(row) for p, row in self.rows.items()}
        return out

    def _restrict(self, m):
        self.m, self.n = m, n = m, degree(m)
        self.rows = {n * p + s: {n * c + s: v for c, v in row.items()}
                     for p, row in self.rows.items() for s in range(n)}
        if self.key is not None:
            key = self.key
            self._order = lambda c: n * key(c // n) + c % n
        self._first *= n

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

    def add(self, parts, m=1):
        """Insert a row over Q(zeta_m) given as its parts: dicts of the
        nonzero integer numerators of each part, a rational row possibly by
        its first part alone; consumes them and returns True if the row
        enlarged the space.  All rows that are not rational are over one
        field."""
        if self.n == 1 and len(parts) > 1 and any(parts[1:]):
            self._restrict(m)
        if self.n == 1:
            return self._insert(parts[0])
        rows = _restricted(parts, self.m)
        # zeta^t times a new row is new again, and of an old one old
        if not self._insert(rows[0]):
            return False
        for row in rows[1:]:
            self._insert(row)
        return True

    def extend(self, rows, m=1):
        """`add` each nonzero row, from the last leading column in the order
        of `key` down: a row whose pivot comes first meets no stored row
        there, and the result does not depend on the order."""
        key = self.key
        lead = ((lambda row: min(map(min, filter(None, row)))) if key is None else
                (lambda row: min(map(key, chain.from_iterable(row)))))
        for row in sorted(filter(any, rows), key=lead, reverse=True):
            self.add(row, m)

    def _read(self, ncols, dens=()):
        """(solutions, kernel) for unknowns 0..ncols-1 and column ncols + t
        holding dens[t] b_t, as `solve_sparse`; the kernel as {fc: vector};
        one vector at a time, down the pivot rows.  Restricted, the rows of
        pivots np + s hold part s of the row of p at column nc, each over its
        own pivot entry."""
        n, rows = self.n, self.rows
        pivots = [(p, [rows[n * p + s] for s in range(n)], [rows[n * p + s][n * p + s]
                                                            for s in range(n)])
                  for p in self.pivots if p < ncols]

        def vector(col, sign, scale, values):
            key = n * col
            if n == 1:
                for p, (row,), (top,) in pivots:
                    a = row.get(key)
                    if a:
                        values.append((p, [sign * a], [top * scale]))
            else:
                for p, prows, tops in pivots:
                    a = [row.get(key, 0) for row in prows]
                    if any(a):
                        values.append((p, [sign * v for v in a], [d * scale for d in tops]))
            return _over_lcd(values, n)

        unit = [1] + [0] * (n - 1)
        return ([vector(ncols + t, 1, d, []) for t, d in enumerate(dens)],
                {c: vector(c, -1, 1, [(c, unit, [1] * n)])
                 for c in range(ncols) if n * c not in rows})

    def kernel(self, ncols):
        """Kernel of the rows cut to columns 0..ncols-1, as {fc: vector} over
        the free columns fc, ascending, in the form of `solve_sparse`."""
        return self._read(ncols)[1]


def _restricted(parts, m):
    """The rows over Q that the row over Q(zeta_m) with these parts becomes:
    row s holds part s of zeta^t v_c at column n c + t."""
    phi = cyclotomic(m)
    n = len(phi) - 1
    w = list(parts) + [{}] * (n - len(parts))
    rows = [{} for _ in range(n)]
    for t in range(n):
        for row, part in zip(rows, w):
            row.update({n * c + t: v for c, v in part.items()})
        # w := zeta w, reduced by zeta^n = -sum_s phi_s zeta^s
        top, w = w[-1], [{}] + w[:-1]
        w = [{c: v for c in part.keys() | top.keys() if (v := part.get(c, 0) - k * top.get(c, 0))}
             if k and top else part for part, k in zip(w, phi)]
    return rows


def _over_lcd(values, n):
    """(parts, den) for the values given as (column, numerators, denominators)
    of their n parts: dicts of the nonzero numerators of each part over den,
    their least common denominator."""
    den = lcm(*[d for _, _, ds in values for d in ds])
    parts = [{c: a[s] * (den // ds[s]) for c, a, ds in values if a[s]} for s in range(n)]
    g = gcd(den, *(v for part in parts for v in part.values()))
    if g != 1:
        parts = [{c: v // g for c, v in part.items()} for part in parts]
        den //= g
    return parts, den


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


def solve_sparse(rows, ncols, rhs_list, m=1):
    """Solve A x = b exactly over Q(zeta_m) for several right-hand sides,
    plus the kernel of A.

    rows: the rows of A over columns 0..ncols-1 as parts, as
    `RowSpace.add` takes them.  rhs_list: one right-hand side b_t
    per entry, as (parts, d) with part s of b_t[i] equal to parts[s][i] / d,
    integer sequences of length len(rows) (one for a rational b_t) and d > 0.
    The numerators d * b_t go in as column ncols + t, after every unknown,
    and the augmented matrix is reduced once, its rows going in from the
    last leading column down; its reduced row echelon form is unique for
    this column order, and scaling column ncols + t scales only its entries,
    so d enters where a solution entry is read.  Returns (solutions, kernel):

    - solutions[t] is None if b_t is not in the column space of A, else the
      particular solution with every free variable zero;
    - kernel has one vector per free column of A, in ascending free-column
      order, 1 in that column and pivot columns by back substitution.

    A vector is (parts, den): dicts of the nonzero integer numerators of its
    parts over den, their least common denominator.
    """
    space, n = RowSpace(), degree(m)
    rhs = [[(col, bparts[s]) for col, (bparts, _) in enumerate(rhs_list, ncols)
            if s < len(bparts)] for s in range(n)]
    augmented = []
    for i, row in enumerate(rows):
        parts = [dict(row[s]) if s < len(row) else {} for s in range(n)]
        for part, cols in zip(parts, rhs):
            for col, b in cols:
                if b[i]:
                    part[col] = b[i]
        augmented.append(parts)
    space.extend(augmented, m)
    # b_t is inconsistent iff a row pivoting on a right-hand side column
    # reaches column ncols + t; that column need not be a pivot itself.
    n = space.n
    bad = {c // n for p, row in space.rows.items() if p // n >= ncols for c in row}
    solutions, kernel = space._read(ncols, [d for _, d in rhs_list])
    return ([None if ncols + t in bad else sol for t, sol in enumerate(solutions)],
            list(kernel.values()))
