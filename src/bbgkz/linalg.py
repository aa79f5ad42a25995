"""Exact linear algebra over the cyclotomic fields Q(zeta_m).

A value of Q(zeta_m) is phi(m) integer numerators over one denominator, its
coordinates in the power basis 1, zeta, ..., zeta^(phi(m) - 1): Q (m = 1)
has one part, Q(i) (m = 4) the real and the imaginary one.  Products,
embeddings, Galois images and roots of unity read one power table, reduced
mod Phi_m.  Problem files parse to integer (numerator, denominator) pairs, one
per part (re,) or (re, im) of a value of Q or Q(i), which `common` brings to
that form; `numerators` does the same for values that carry their own
integer numerator and denominator, as Python's ints and rationals do.

RowSpace is the one elimination kernel.  It reduces integer rows
fraction-free (Bareiss), one content pass per row update, and rows over
Q(zeta_m) by restriction of scalars to Q.  Rows given at once enter in
one order, `RowSpace.extend`'s: from the last leading column down in the
space's column order.  One read, `RowSpace.read`, writes the solutions and
the kernel of a reduced space as `GermStack` layers: per range of unknowns,
a germ-major list of integers per part over one denominator in lowest
terms, the lcm of the range's pivot entries times that of the right-hand
sides.  `solve_sparse` reads a system's one layer off it, the solver the
kernel of a hat space, and `polyhedral` the normal of a facet.
"""

from __future__ import annotations

import functools
from itertools import chain, repeat
from math import gcd, inf, lcm
from operator import add, mul as mul_


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


def _times(u, v):
    """u v for numbers or lists of them, elementwise: a number scales a list."""
    if type(u) is not list:
        return u * v if type(v) is not list else v if u == 1 else list(map(mul_, v, repeat(u)))
    return list(map(mul_, u, v if type(v) is list else repeat(v)))


def mul(a, b, m):
    """The parts of a b in Q(zeta_m) from those of a and b, sum_ij a_i b_j
    zeta^(i + j).  A part may be an int or a list of ints, one value per
    entry; int parts of a that are 0 are skipped."""
    T = powers(m)
    terms = [(_times(u, v), T[(i + j) % m]) for i, u in enumerate(a) if type(u) is not int or u
             for j, v in enumerate(b)]
    return _apply(*zip(*terms), m) if terms else [0] * degree(m)


def root_of_unity(k, E, m):
    """The parts of exp(2 pi i k / E) in Q(zeta_m), for k / E whose reduced
    denominator divides m, or 2m for odd m."""
    n, rest = divmod(2 * m * k, E)
    if rest:
        raise ValueError(f"exp(2 pi i {k}/{E}) is not in Q(zeta_{m})")
    T = powers(m)
    return list(T[n // 2 % m]) if n % 2 == 0 else [-v for v in T[(n + m) // 2 % m]]


def _apply(parts, images, m):
    """sum_j parts[j] images[j] by parts, images[j] the parts of an element of
    Q(zeta_m); zero int parts are skipped.  Given lists, it works entry by
    entry and every part it returns is a list."""
    out, size = [0] * degree(m), None
    for p, image in zip(parts, images):
        if type(p) is not int or p:
            size = len(p) if type(p) is list else size
            for s, c in enumerate(image):
                if c:
                    v, y = _times(c, p), out[s]
                    out[s] = (y + v if type(v) is not list else v if type(y) is not list
                              else list(map(add, y, v)))
    return out if size is None else [y if type(y) is list else [0] * size for y in out]


def embed(parts, m, L):
    """The parts in Q(zeta_L) of a value of its subfield Q(zeta_m), m | L."""
    return _apply(parts, [root_of_unity(j, m, L) for j in range(len(parts))], L)


def galois(parts, a, m):
    """sigma_a (zeta -> zeta^a, a prime to m) of a value of Q(zeta_m)."""
    T = powers(m)
    return _apply(parts, [T[a * j % m] for j in range(len(parts))], m)


def common(values):
    """(m, parts, den) of values given as the (numerator, denominator) pairs
    of their parts, (re,) or (re, im), denominators nonzero: m = 4 if one is
    not real, else 1, and parts[s][i] / den the part s of values[i], den the
    lcm of the denominators."""
    den = lcm(*(q for v in values for _, q in v))
    parts = [[p * (den // q) for p, q in (v[s] if s < len(v) else (0, 1) for v in values)]
             for s in (0, 1)]
    return (4, parts, den) if any(parts[1]) else (1, parts[:1], den)


def numerators(values):
    """`common` of rational values and (re, im) pairs of them, or of any
    value whose .real and .imag have an integer .numerator and
    .denominator, as Python's ints and rationals do."""
    return common([tuple((q.numerator, q.denominator) for q in
                         (v if isinstance(v, tuple) else (v.real, v.imag))) for v in values])


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
    v . y; a stored rational row is one of them).  `rank`, `pivots` and `read`
    answer over Q(zeta_m): the stored rows span the parts of w . y for w in
    the span over Q(zeta_m), which zeta maps to itself, so
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
        p = min(red, key=order)
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

    def read(self, cuts, m=1, nrhs=0, d=1):
        """One `GermStack` layer (P, den) over Q(zeta_m) per range a..b - 1
        of the unknowns, a and b consecutive cuts, cuts[0] = 0: part s of germ
        t at c is P[s][t w + c - a] / den, w = b - a.  The germs are the
        solutions for column cuts[-1] + t holding d b_t, t < nrhs, as
        `solve_sparse`, then one kernel vector per free column, ascending.
        den is L d in lowest terms, L the lcm of the range's pivot entries:
        each pivot row is scaled once, by L over its pivot entry.
        Restricted, the row of pivot np + s holds part s of the row of p at
        column nc.  A range's pivot rows are dropped once it is read."""
        n, rows, ncols = self.n, self.rows, cuts[-1]
        # free columns before any row is dropped; germs born in a later range
        # are zero on this one
        free = [c for c in range(ncols) if n * c not in rows]
        germ = {n * c: t for t, c in enumerate(chain(range(ncols, ncols + nrhs), free))}
        out = []
        for a, b in zip(cuts, cuts[1:]):
            w = b - a
            got = [(q, rows.pop(q)) for q in range(n * a, n * b) if q in rows]
            L = lcm(*(row[q] for q, row in got))
            P = [[0] * (w * len(germ)) for _ in range(degree(m))]
            for q, row in got:
                k, (p, s) = L // row[q], divmod(q, n)
                part, kd, p = P[s], -d * k, p - a
                for c, v in row.items():
                    t = germ.get(c)
                    if t is not None:
                        part[t * w + p] = (k if t < nrhs else kd) * v
            for t, c in enumerate(free, nrhs):
                if a <= c < b:
                    P[0][t * w + c - a] = L * d
            g = gcd(L * d, *chain.from_iterable(P))  # mostly 1: v // 1 copies v
            out.append((P, L * d) if g == 1 else
                       ([[v // g for v in part] for part in P], L * d // g))
        return out


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


def solve_sparse(rows, ncols, rhs, d, m=1):
    """Solve A x = b exactly over Q(zeta_m) for several right-hand sides,
    plus the kernel of A.

    rows: the rows of A over columns 0..ncols-1 as parts, consumed as
    `RowSpace.add` consumes them.  rhs: one right-hand side b_t per entry,
    as parts, integer sequences of length len(rows) (one for a rational
    b_t), part s of b_t[i] being parts[s][i] / d, with one d > 0 for all.
    The numerators d b_t go in as column ncols + t, after every unknown, and
    the augmented matrix is reduced once, its rows going in from the last
    leading column down; its reduced row echelon form is unique for this
    column order, and scaling the right-hand side columns scales only their
    entries, so d enters with the denominator.  Returns (layer, bad):

    - layer is the one `RowSpace.read` layer (P, den) over the unknowns:
      germ t < len(rhs) the particular solution of b_t with every free
      variable zero, then one kernel vector per free column of A, ascending,
      1 in that column and pivot columns by back substitution;
    - bad lists, ascending, the t whose b_t is not in the column space of A;
      their germs mean nothing.
    """
    space, n = RowSpace(), degree(m)
    cols = [[(col, b[s]) for col, b in enumerate(rhs, ncols) if s < len(b)] for s in range(n)]
    augmented = []
    for i, row in enumerate(rows):
        parts = [row[s] if s < len(row) else {} for s in range(n)]
        for part, bs in zip(parts, cols):
            for col, b in bs:
                if b[i]:
                    part[col] = b[i]
        augmented.append(parts)
    space.extend(augmented, m)
    # b_t is inconsistent iff a row pivoting on a right-hand side column
    # reaches column ncols + t; that column need not be a pivot itself.
    n = space.n
    bad = sorted({c // n - ncols for p, row in space.rows.items() if p >= n * ncols for c in row})
    return space.read([0, ncols], m, len(rhs), d)[0], bad
