"""Lifting quotient solutions through torsion characters.

The free quotient of the group carries its own problem with the projected
vectors; a solution germ psi of that problem, a torsion character rho, and a
compatible base point x combine into a germ of the original problem via
lambda_c = rho(c) psi_{pi(c)} at z = p_rho(x).  With one quotient basis and
all characters this produces the full solution space.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abelian import AbelianGroup, Character, GroupElement, char_value
from .linalg import GaussianRational, QQI_I, QQI_ONE, RowSpace
from .polyhedral import GradedSemigroup, build_semigroup
from .solver import LambdaTable, recursion_defects


class RegionTooTight(ValueError):
    """The base-point construction could not verify all images in-region."""


class ResidualTooLarge(RuntimeError):
    """A lifted table failed the recursion residual check."""


@dataclass(frozen=True)
class QuotientProblem:
    """The induced problem on the free quotient of the group.

    images are the distinct projections of the input vectors, in order of
    first occurrence; index_sets[j] lists the input indices mapping to
    images[j].
    """
    lattice: AbelianGroup
    images: tuple
    index_sets: tuple
    semigroup: GradedSemigroup
    source_group: AbelianGroup
    source_vectors: tuple


def _project(N: AbelianGroup, A):
    """The free quotient lattice, the distinct images of A in it (in order of
    first occurrence) and the index set of each image."""
    lattice = AbelianGroup(N.rank)
    index_sets = {}
    for i, v in enumerate(A):
        index_sets.setdefault(lattice.element(v.free), []).append(i)
    return lattice, tuple(index_sets), tuple(tuple(s) for s in index_sets.values())


def build_quotient(N: AbelianGroup, A) -> QuotientProblem:
    """Project the problem data to the free quotient, merging equal images."""
    lattice, images, index_sets = _project(N, A)
    return QuotientProblem(lattice, images, index_sets,
                           build_semigroup(lattice, images), N, tuple(A))


def _exact_char_value(t: Fraction):
    """Exact Gaussian-rational value of exp(2 pi i t), or None if irrational."""
    if (4 * t).denominator != 1:
        return None
    return (QQI_ONE, QQI_I, -QQI_ONE, -QQI_I)[int(4 * t) % 4]


def p_rho(rho: Character, x, Q: QuotientProblem):
    """Character-weighted coordinate sums z_j = sum_{i in I_j} rho(v_i) x_i.

    Stays exact (GaussianRational) when x is exact and every character value
    is a fourth root of unity; otherwise returns complex floats.
    """
    exact_vals = []
    exact = all(isinstance(v, GaussianRational) for v in x)
    for v in Q.source_vectors:
        t, zval = char_value(rho, v)
        ev = _exact_char_value(t)
        if ev is None:
            exact = False
        exact_vals.append((ev, zval))
    out = []
    for idxs in Q.index_sets:
        if exact:
            s = GaussianRational(0)
            for i in idxs:
                s = s + exact_vals[i][0] * x[i]
        else:
            s = 0j
            for i in idxs:
                s += exact_vals[i][1] * complex(x[i])
        out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class LogModulusBox:
    """Region descriptor: per-coordinate bounds on log|z_j|.

    The argument window (-pi, pi) is implicit in every coordinate.
    """
    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("bound tuples differ in length")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ValueError("empty log-modulus box")

    def contains(self, z) -> bool:
        for zj, lo, hi in zip(z, self.lo, self.hi):
            zj = complex(zj)
            if zj == 0:
                return False
            if not (lo <= math.log(abs(zj)) <= hi):
                return False
            if cmath.phase(zj) <= -math.pi or cmath.phase(zj) >= math.pi:
                return False
        return True


def find_common_basepoint(Q: QuotientProblem, region: LogModulusBox):
    """A base point whose image under every character map lies in-region.

    One distinguished coordinate per index set carries the whole modulus with
    argument -pi + pi/|G|; the rest are tiny, so each character map only
    rotates the dominant term by a root of unity and perturbs it slightly.
    Raises RegionTooTight if any of the |G| images fails verification.
    """
    if len(region.lo) != len(Q.images):
        raise ValueError("region dimension does not match the quotient")
    G = Q.source_group.torsion_order
    n = len(Q.source_vectors)
    x = [0j] * n
    theta = -math.pi + math.pi / G
    for j, idxs in enumerate(Q.index_sets):
        mid = (region.lo[j] + region.hi[j]) / 2
        mod = math.exp(mid)
        lead = min(idxs)
        x[lead] = mod * cmath.exp(1j * theta)
        for rank_i, i in enumerate(sorted(idxs)):
            if i != lead:
                x[i] = mod * 1e-9 * (1 + rank_i / 10)
    x = tuple(x)
    for rho in Q.source_group.characters():
        z = p_rho(rho, x, Q)
        if not region.contains(z):
            raise RegionTooTight(
                f"image under character {rho.torsion_exponents} left the region")
    return x


def lift_and_verify(psi: LambdaTable, rho: Character, x, S: GradedSemigroup,
                    tol=1e-9):
    """Lift a quotient germ through a character: lambda_c = rho(c) psi_{pi(c)}.

    psi must be a solution germ of the quotient problem at base p_rho(x).
    Returns (lifted LambdaTable over S, max relative residual).  The lifted
    table is re-verified against the recursion equations of the original
    problem with solver.recursion_defects: on the exact lane every defect
    must vanish, otherwise the largest defect relative to the largest entry
    is the residual.  Raises ResidualTooLarge on a nonzero exact defect or a
    residual above `tol`.
    """
    exact = (all(isinstance(v, GaussianRational) for v in x)
             and all(isinstance(v, GaussianRational) for v in psi.entries.values()))
    lattice, images, index_sets = _project(S.group, S.A)
    if images != tuple(psi.semigroup.A):
        raise ValueError("psi was solved on a different quotient problem")
    Q = QuotientProblem(lattice, images, index_sets, psi.semigroup, S.group, S.A)
    for zb, zx in zip(psi.base_x, p_rho(rho, x, Q)):
        if abs(complex(zb) - complex(zx)) > 1e-12:
            raise ValueError("psi base point does not match p_rho(x)")
    D = psi.truncation
    by_free = {pc.free: val for pc, val in psi.entries.items()}
    chars = {}  # torsion residue -> (exact value or None, complex value)
    entries = {}
    lead = D
    for k in range(D + 1):
        for c in S.layer(k):
            val = by_free.get(c.free)
            if val is None:
                continue
            if c.torsion not in chars:
                t, zval = char_value(rho, c)
                chars[c.torsion] = (_exact_char_value(t), zval)
            ev, zval = chars[c.torsion]
            if exact and ev is not None:
                lifted = ev * val
            else:
                exact = False
                lifted = zval * complex(val)
            if lifted:
                entries[c] = lifted
                lead = min(lead, k)
    if not exact:
        entries = {c: complex(v) for c, v in entries.items()}
    xs = tuple(x) if exact else tuple(complex(v) for v in x)
    table = LambdaTable(S, xs, psi.beta, D, entries, lead)

    # residual of the recursion equation for the original problem
    worst = 0.0
    for k, defect in recursion_defects(table):
        if exact and defect.any():
            p, j = np.argwhere(defect)[0]
            raise ResidualTooLarge(
                f"exact lift residual nonzero at {S.layer(k)[p]}, coordinate {j}")
        if not exact:
            worst = max(worst, float(defect.max(initial=0.0)))
    if not exact:
        worst /= max((abs(v) for v in entries.values()), default=1.0)
    if worst > tol:
        raise ResidualTooLarge(f"relative residual {worst:.2e} exceeds {tol}")
    return table, worst


def independence_count(tables, tol=1e-9) -> int:
    """Numeric rank of the matrix of table entries.

    Columns run over the union of all indexing group elements in a
    deterministic order; rank counts singular values above tol * largest.
    """
    cols = sorted({c for t in tables for c in t.entries}, key=lambda c: c.sort_key())
    if not cols or not tables:
        return 0
    idx = {c: i for i, c in enumerate(cols)}
    mat = np.zeros((len(tables), len(cols)), dtype=complex)
    for i, t in enumerate(tables):
        for c, v in t.entries.items():
            mat[i, idx[c]] = complex(v)
    s = np.linalg.svd(mat, compute_uv=False)
    if len(s) == 0 or s[0] == 0:
        return 0
    return int((s > tol * s[0]).sum())


def exact_rank(tables) -> int:
    """Exact rank of tables whose entries are Gaussian rationals."""
    cols = sorted({c for t in tables for c in t.entries}, key=lambda c: c.sort_key())
    idx = {c: i for i, c in enumerate(cols)}
    space = RowSpace()
    for t in tables:
        space.add({idx[c]: v for c, v in t.entries.items() if v})
    return space.rank
