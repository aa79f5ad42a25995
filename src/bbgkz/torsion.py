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
from math import lcm

import numpy as np

from .abelian import AbelianGroup, Character, char_value
from .linalg import GaussianRational, QQI_I, QQI_ONE, RowSpace
from .polyhedral import GradedSemigroup, build_semigroup
from .solver import GermStack, SolutionBasis, recursion_defects


class RegionTooTight(ValueError):
    """The base-point construction could not verify all images in-region."""


class ResidualTooLarge(RuntimeError):
    """A lifted germ failed the recursion residual check."""


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


def _times_character(layer, chars, exact):
    """A quotient layer (re, im, den) [germ, point], repeated over the torsion
    residues innermost and times the character's value on each (chars: the
    char_value (t, z) per residue).  On the exact lane every t is a quarter
    turn, which swaps or negates (re, im)."""
    re, im, den = layer
    if exact:
        rot = np.stack([re, im, -re, -im])  # (re + i im) i^e = rot[-e] + i rot[1 - e]
        lre, lim = (rot[[(s - int(4 * t)) % 4 for t, _ in chars]].transpose(1, 2, 0)
                    for s in (0, 1))
    else:
        z = np.array([z for _, z in chars])
        vr, vi = (np.asarray(a / den, dtype=float)[..., None] for a in (re, im))
        # Python's complex product term by term, so that no multiply-add is fused
        lre, lim, den = z.real * vr - z.imag * vi, z.real * vi + z.imag * vr, 1
    return lre.reshape(len(re), -1), lim.reshape(len(re), -1), den


def lift_and_verify(basis: SolutionBasis, rho: Character, x, S: GradedSemigroup,
                    tol=1e-9):
    """Lift a quotient basis through a character: lambda_c = rho(c) psi_{pi(c)}.

    basis holds solution germs of the quotient problem at base p_rho(x).
    Layer k of S is the quotient's layer k with the torsion index innermost,
    so lifted layers are quotient layers times rho.  Returns (lifted
    GermStack over S, max relative residual) after one recursion_defects
    pass on the original problem: exact defects must vanish, and a float
    germ's residual is its largest defect over its largest entry.  Raises
    ResidualTooLarge for the first failing germ, on a nonzero exact defect
    or a residual above `tol`.
    """
    lattice, images, index_sets = _project(S.group, S.A)
    if images != tuple(basis.semigroup.A):
        raise ValueError("psi was solved on a different quotient problem")
    Q = QuotientProblem(lattice, images, index_sets, basis.semigroup, S.group, S.A)
    psi = basis.stack
    if any(abs(complex(a) - complex(b)) > 1e-12 for a, b in zip(psi.base_x, p_rho(rho, x, Q))):
        raise ValueError("psi base point does not match p_rho(x)")
    chars = [char_value(rho, t) for t in S.group.torsion_elements()]
    exact = (psi.exact and all(isinstance(v, GaussianRational) for v in x)
             and all((4 * t).denominator == 1 for t, _ in chars))
    layers = []
    for k, layer in enumerate(psi.layers):
        if not np.array_equal(Q.semigroup.free_layer(k), S.free_layer(k)):
            raise ValueError(f"quotient layer {k} is not the free part of layer {k}")
        layers.append(_times_character(layer, chars, exact))
    xs = tuple(x) if exact else tuple(complex(v) for v in x)
    lift = GermStack(S, xs, psi.beta, psi.truncation, layers)

    first = {}  # exact lane: germ -> its first defect (k, p, j)
    worst = np.zeros(len(lift))
    for k, defect in recursion_defects(lift):
        if exact:
            for t in np.flatnonzero(defect.any(axis=(1, 2))):
                first.setdefault(t, (k, *np.argwhere(defect[t])[0]))
        else:
            worst = np.maximum(worst, defect.max(axis=(1, 2), initial=0.0))
    if first:
        k, p, j = first[min(first)]
        raise ResidualTooLarge(
            f"exact lift residual nonzero at {S.layer(k)[p]}, coordinate {j}")
    if exact:
        return lift, 0.0
    peak = np.max([np.hypot(re, im).max(axis=1, initial=0.0) for re, im, _ in layers], axis=0)
    worst /= np.where(peak > 0, peak, 1.0)
    if (worst > tol).any():
        raise ResidualTooLarge(f"relative residual {worst[worst > tol][0]:.2e} exceeds {tol}")
    return lift, float(worst.max(initial=0.0))


def independence_count(stacks, tol=1e-9) -> int:
    """Numeric rank of the germs of float GermStacks on one semigroup and
    truncation: singular values of [germ, entry] above tol * the largest."""
    if not stacks:
        return 0
    mat = np.vstack([np.hstack([re + 1j * im for re, im, _ in s.layers]) for s in stacks])
    s = np.linalg.svd(mat, compute_uv=False)
    return int((s > tol * s[0]).sum())


def exact_rank(stacks) -> int:
    """Exact rank of the germs of exact GermStacks on one semigroup and
    truncation.  Columns go into a RowSpace degree by degree until the rank
    is the germ count, which bounds it from above."""
    rows = sum(len(s) for s in stacks)
    space = RowSpace()
    for layers in zip(*(s.layers for s in stacks)):
        den = lcm(*(d for _, _, d in layers))
        re, im = (np.concatenate([a[n] * (den // a[2]) for a in layers]).T.tolist()
                  for n in (0, 1))
        for a, b in zip(re, im):
            space.add_numerators({t: v for t, v in enumerate(a) if v},
                                 {t: v for t, v in enumerate(b) if v})
            if space.rank == rows:
                return rows
    return space.rank
