"""Finitely generated abelian groups in invariant-factor form.

A group is Z^rank plus cyclic factors Z/d_1 x ... x Z/d_s with
d_1 | d_2 | ... and every d_j >= 2.  Elements carry a free integer vector
and a reduced torsion residue vector.  The dual lattice Hom(N, Z) only sees
the free part; torsion characters only see the torsion part.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod


class NoDegreeFunctional(ValueError):
    """No integral covector takes the value 1 on every input vector."""


class NotSpanning(ValueError):
    """The free parts of the input vectors do not span the free lattice."""


class AbelianGroup:
    __slots__ = ("rank", "torsion_invariants")

    def __init__(self, rank, torsion_invariants=()):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        self.rank = rank
        self.torsion_invariants = inv = tuple(torsion_invariants)
        for j, d in enumerate(inv):
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if j > 0 and inv[j] % inv[j - 1] != 0:
                raise ValueError("invariant factors must divide each other in order")

    def __eq__(self, other):
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.rank == other.rank and self.torsion_invariants == other.torsion_invariants

    @property
    def torsion_order(self):
        return prod(self.torsion_invariants)

    def element(self, free, torsion=()):
        free = tuple(int(x) for x in free)
        torsion = tuple(int(t) for t in torsion)
        if len(free) != self.rank:
            raise ValueError(f"free part has length {len(free)}, expected {self.rank}")
        if len(torsion) < len(self.torsion_invariants):
            torsion = torsion + (0,) * (len(self.torsion_invariants) - len(torsion))
        if len(torsion) != len(self.torsion_invariants):
            raise ValueError("torsion part has wrong length")
        torsion = tuple(t % d for t, d in zip(torsion, self.torsion_invariants))
        return GroupElement(self, free, torsion)

    def dual_element(self, covector):
        covector = tuple(int(x) for x in covector)
        if len(covector) != self.rank:
            raise ValueError("covector has wrong length")
        return DualElement(self, covector)

    def character(self, exponents):
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != len(self.torsion_invariants):
            raise ValueError("character exponent vector has wrong length")
        exponents = tuple(e % d for e, d in zip(exponents, self.torsion_invariants))
        return Character(self, exponents)

    def characters(self):
        """All torsion characters, trivial one first, in lexicographic order."""
        ranges = [range(d) for d in self.torsion_invariants]
        return [self.character(exps) for exps in itertools.product(*ranges)]

    def torsion_elements(self):
        """All pure-torsion elements, in lexicographic order."""
        ranges = [range(d) for d in self.torsion_invariants]
        zero_free = (0,) * self.rank
        return [self.element(zero_free, t) for t in itertools.product(*ranges)]


class GroupElement:
    """An element (free, torsion) of `group`.  Elements can key dicts: the
    hash is computed once, at construction."""
    __slots__ = ("group", "free", "torsion", "_hash")

    def __init__(self, group, free, torsion):
        self.group = group
        self.free = free
        self.torsion = torsion
        self._hash = hash((free, torsion))

    def __add__(self, other):
        if self.group is not other.group and self.group != other.group:
            raise ValueError("elements of different groups")
        free = tuple(a + b for a, b in zip(self.free, other.free))
        tors = tuple((a + b) % d for a, b, d in
                     zip(self.torsion, other.torsion, self.group.torsion_invariants))
        return GroupElement(self.group, free, tors)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (self.free == other.free and self.torsion == other.torsion
                and (self.group is other.group or self.group == other.group))

    def __repr__(self):
        """(free;torsion), as ResidualTooLarge and KPrimGuardError print it."""
        if self.torsion:
            return f"({','.join(map(str, self.free))};{','.join(map(str, self.torsion))})"
        return f"({','.join(map(str, self.free))})"


class DualElement:
    __slots__ = ("group", "free_covector")

    def __init__(self, group, free_covector):
        self.group = group
        self.free_covector = free_covector


class Character:
    __slots__ = ("group", "torsion_exponents")

    def __init__(self, group, torsion_exponents):
        self.group = group
        self.torsion_exponents = torsion_exponents


def pair(mu: DualElement, v: GroupElement) -> int:
    """Integer pairing Hom(N, Z) x N -> Z; torsion is killed."""
    if len(mu.free_covector) != len(v.free):
        raise ValueError("dimension mismatch in pairing")
    return sum(m * x for m, x in zip(mu.free_covector, v.free))


def char_value(rho: Character, v: GroupElement) -> Fraction:
    """Value of a torsion character on an element, as the reduced Fraction t
    in [0, 1) with rho(v) = exp(2 pi i t) (linalg.root_of_unity gives its
    parts)."""
    t = Fraction(0)
    for e, a, d in zip(rho.torsion_exponents, v.torsion, rho.group.torsion_invariants):
        t += Fraction(e * a, d)
    return t % 1


def smith_normal_form(A):
    """Smith normal form U*A*V = D with unimodular U, V.

    A is a list of integer rows.  D is diagonal with d_1 | d_2 | ...; U and V
    have determinant +-1.  Total function: works for any shape including
    zero matrices.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(map(int, row)) for row in A]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i1, i2, a, b, c, d):
        # (row i1, row i2) <- (a*r1 + b*r2, c*r1 + d*r2), same on U
        for M in (D, U):
            r1, r2 = M[i1], M[i2]
            M[i1] = [a * x + b * y for x, y in zip(r1, r2)]
            M[i2] = [c * x + d * y for x, y in zip(r1, r2)]

    def col_op(j1, j2, a, b, c, d):
        for M in (D, V):
            for row in M:
                x, y = row[j1], row[j2]
                row[j1] = a * x + b * y
                row[j2] = c * x + d * y

    def xgcd(a, b):
        x0, x1, y0, y1 = 1, 0, 0, 1
        while b:
            q, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        return a, x0, y0

    t = 0
    while t < min(m, n):
        # find a nonzero entry in the trailing submatrix
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_op(t, i, 0, 1, 1, 0)
        if j != t:
            col_op(t, j, 0, 1, 1, 0)
        while True:
            # clear column t and row t with gcd operations
            for i in range(t + 1, m):
                if D[i][t]:
                    a, b = D[t][t], D[i][t]
                    if b % a == 0:
                        row_op(t, i, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        row_op(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, n):
                if D[t][j]:
                    a, b = D[t][t], D[t][j]
                    if b % a == 0:
                        col_op(t, j, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        col_op(t, j, x, y, -(b // g), a // g)
            if any(D[i][t] for i in range(t + 1, m)):
                continue  # column ops disturbed column t; clear again
            # divisibility: D[t][t] must divide every remaining entry
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, 1, 1, 0, 1)  # row t += offending row
        t += 1

    for i in range(min(m, n)):
        if D[i][i] < 0:
            D[i] = [-x for x in D[i]]
            U[i] = [-x for x in U[i]]
    return U, D, V


def validate_data(N: AbelianGroup, A):
    """Check the defining data (N, A) and return the degree covector.

    Finds deg in Hom(N, Z) with deg(v_i) = 1 for all i and checks that the
    free parts of the v_i span the free lattice.  Raises NoDegreeFunctional
    or NotSpanning.
    """
    if not A:
        raise ValueError("empty vector tuple")
    r = N.rank
    rows = [list(v.free) for v in A]
    # deg must solve rows . y = (1, ..., 1) over the integers
    U, D, V = smith_normal_form(rows)
    ones = [1] * len(A)
    w = [sum(U[i][k] * ones[k] for k in range(len(A))) for i in range(len(A))]
    z = [0] * r
    for i in range(len(A)):
        d = D[i][i] if i < min(len(A), r) else 0
        if i < r and d != 0:
            if w[i] % d != 0:
                raise NoDegreeFunctional("no integral functional takes value 1 on all vectors")
            z[i] = w[i] // d
        else:
            if w[i] != 0:
                raise NoDegreeFunctional("no integral functional takes value 1 on all vectors")
    y = [sum(V[i][k] * z[k] for k in range(r)) for i in range(r)]
    deg = N.dual_element(y)
    if any(pair(deg, v) != 1 for v in A):
        raise NoDegreeFunctional("degree functional reconstruction failed")
    invariants = [abs(D[i][i]) for i in range(min(len(A), r))]
    if len(invariants) < r or any(d != 1 for d in invariants):
        raise NotSpanning("free parts of the vectors do not span the free lattice")
    return deg
