"""Finitely generated abelian groups in invariant-factor form.

A group is Z^rank plus cyclic factors Z/d_1 x ... x Z/d_s with
d_1 | d_2 | ... and every d_j >= 2.  Elements carry a free integer vector
and a reduced torsion residue vector.  The dual lattice Hom(N, Z) only sees
the free part; torsion characters only see the torsion part.  Validating
the data (N, v_1..v_n) and the degree-kernel basis of `polyhedral` are
row-echelon facts over Z, read off one Hermite routine.
"""

from __future__ import annotations

import itertools
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
        """(free;torsion), as ResidualTooLarge prints it."""
        if self.torsion:
            return f"({','.join(map(str, self.free))};{','.join(map(str, self.torsion))})"
        return f"({','.join(map(str, self.free))})"


class Character:
    __slots__ = ("group", "torsion_exponents")

    def __init__(self, group, torsion_exponents):
        self.group = group
        self.torsion_exponents = torsion_exponents


def char_value(rho: Character, v: GroupElement) -> tuple[int, int]:
    """Value of a torsion character on an element, as (k, E) with
    rho(v) = exp(2 pi i k / E), 0 <= k < E, E the exponent of the torsion
    part, its last invariant factor (1 without torsion), which every other
    one divides; linalg.root_of_unity gives its parts."""
    inv = rho.group.torsion_invariants
    E = inv[-1] if inv else 1
    return sum(e * a * (E // d) for e, a, d in zip(rho.torsion_exponents, v.torsion, inv)) % E, E


def hermite(M):
    """The row echelon form H = U*M of an integer matrix M, a list of rows,
    with the unimodular U and its inverse W: (H, U, W).

    Column by column, Euclid's algorithm runs on the rows below the last
    pivot: the row with the least nonzero entry, signed to be positive, is
    swapped up and subtracted from the others until it alone is nonzero
    there.  W undergoes the inverse column operations of U's row operations,
    so U*W = W*U = I.  Pivots are positive and strictly right of the one
    above, zero rows come last, and entries above a pivot are not reduced
    (Cohen, 1993, section 2.4).
    """
    m = len(M)
    H = [list(map(int, row)) for row in M]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    W = [row[:] for row in U]

    def swap(i, j, s):  # row i <- s * row j, row j <- row i; i == j negates when s == -1
        H[j], H[i], U[j], U[i] = H[i], [s * a for a in H[j]], U[i], [s * a for a in U[j]]
        for row in W:
            row[j], row[i] = row[i], s * row[j]

    def subtract(i, q, j):  # row i -= q * row j; column j += q * column i of W
        H[i] = [a - q * b for a, b in zip(H[i], H[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]
        for row in W:
            row[j] += q * row[i]

    t = 0
    for c in range(len(H[0]) if m else 0):
        while rows := [i for i in range(t, m) if H[i][c]]:
            p = min(rows, key=lambda i: abs(H[i][c]))
            swap(t, p, -1 if H[p][c] < 0 else 1)
            if len(rows) == 1:
                t += 1
                break
            for i in range(t + 1, m):
                if H[i][c]:
                    subtract(i, H[i][c] // H[t][c], t)
    return H, U, W


def validate_data(N: AbelianGroup, A):
    """Check the defining data (N, A) and return the degree covector as ints.

    deg with deg(v_i) = 1 for all i exists exactly when (1, ..., 1) lies in
    the integer row span of the r x n matrix M with columns v_i: it is
    reduced by the rows of the Hermite form H = U*M, dividing exactly at each
    pivot, and the quotients z give deg = z*U.  The free parts span the free
    lattice exactly when the Hermite form of the n x r matrix with rows v_i
    has pivots 1 on its diagonal.  Raises NoDegreeFunctional, or else
    NotSpanning.
    """
    if not A:
        raise ValueError("empty vector tuple")
    r = N.rank
    H, U, _ = hermite([[v.free[j] for v in A] for j in range(r)])
    rest, z = [1] * len(A), []
    for h in H:
        c = next((c for c, x in enumerate(h) if x), None)
        if c is None or rest[c] % h[c]:
            break
        z.append(rest[c] // h[c])
        rest = [a - z[-1] * b for a, b in zip(rest, h)]
    if any(rest):
        raise NoDegreeFunctional("no integral functional takes value 1 on all vectors")
    deg = tuple(sum(a * b for a, b in zip(z, col)) for col in zip(*U))
    H, _, _ = hermite([v.free for v in A])
    if len(H) < r or any(H[i][i] != 1 for i in range(r)):
        raise NotSpanning("free parts of the vectors do not span the free lattice")
    return deg
