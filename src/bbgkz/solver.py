"""Truncated solution germs built by the degree-by-degree recursion.

A solution germ is its lambda table: the values of all unknown functions
(and hence, after re-indexing, all their Taylor coefficients) at the base
point.  A SolutionBasis is one GermStack of all germs, integer arrays per
layer over the layer's least common denominator, which the report, the
residual check, the restriction rank and the torsion lift read, and each
germ's leading degree.  Two routes give the same germs.  The step route
solves the layer-(k+1) linear system whose right-hand side comes from layer
k, asserting solvability at every step.  The kernel route reads them off the
hat space `ring.hat_quotient_dims` reduced for the same (x, beta) at
D0 = min(D, rank + 3), as `analyze` and `restrict` do, and takes it off the
semigroup.  That kernel is the truncated solution space: a hat row
mu_j . hat[n] paired with a table is the recursion identity at (n, j).  The
pivots go to the highest degree, then the lowest index, so the germ of a
free column fc is zero below deg fc and, there, lives on fc and pivots of
lower index: fc is its last nonzero entry in (degree, index) order, as for
the step route's germ born at fc.  So both routes have the same free
columns, and both bases are the one that is 1 at one free column and 0 at
the others.  Steps extend the kernel route's germs from D0 to D: free
columns have degree at most rank + 1 <= D0, so each has one solution.
Inside the recursion a layer's germs are one array [part, germ, point]
with a denominator per germ, and a step's right-hand sides one array
product.  `exact_rank` is the one germ rank, of stacks or of their
restrictions to per-layer point masks.  Everything is exact, over the
cyclotomic field Q(zeta_m) of x and beta, a value as phi(m) integer parts
(linalg); only the residual check evaluates the series in floats, through
zeta -> exp(2 pi i / m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from types import SimpleNamespace

import numpy as np

from .abelian import GroupElement, pair
from .linalg import (GaussianRational, RowSpace, complex_basis, degree, embed, field, mul,
                     solve_sparse)
from .polyhedral import GradedSemigroup, k_prim
from .ring import DimReport, FVector, _hat_free_counts, _hat_key, _image_rows, jacobian_dims


class InconsistentSystem(RuntimeError):
    """A degree step of the recursion had no solution.

    For nondegenerate coefficients the recursion is always consistent, so
    this signals a wrong nondegeneracy certificate or an internal bug.
    """


@dataclass
class GermStack:
    """Germs sharing a semigroup, base point, beta and truncation, on arrays.

    layers[k] is (parts, den): parts an integer array [part, germ, point]
    over Q(zeta_m), germ t having the value sum_s parts[s, t, p] zeta^s / den
    at layer(k)[p], den the least common denominator of the layer's values.
    base_x and beta are FVectors over subfields of Q(zeta_m).
    """
    semigroup: GradedSemigroup
    base_x: FVector
    beta: FVector
    truncation: int
    layers: list
    m: int

    def __len__(self):
        return self.layers[0][0].shape[1]

    def values(self, t, k):
        """{p: value} of the nonzero entries of germ t on layer k: canonical
        GaussianRationals over Q and Q(i), else the tuple of the Fraction
        parts."""
        parts, den = self.layers[k]
        cols = parts[:, t].T.tolist()
        if self.m in (1, 4):
            return {p: GaussianRational(v[0], v[-1] if self.m == 4 else 0, den)
                    for p, v in enumerate(cols) if any(v)}
        return {p: tuple(Fraction(a, den) for a in v) for p, v in enumerate(cols) if any(v)}


@dataclass
class SolutionBasis:
    """Truncated solution germs: one GermStack, germ t of leading degree
    leading[t], ascending."""
    stack: GermStack
    leading: list

    semigroup = property(lambda self: self.stack.semigroup)
    beta = property(lambda self: self.stack.beta)
    truncation = property(lambda self: self.stack.truncation)

    def __len__(self):
        return len(self.leading)

    @property
    def tables(self):
        """Per germ, `entries` {(k, p): value} of its nonzero values: no
        report reads it, but perfbench's tracer reads coefficient sizes off
        it."""
        return [SimpleNamespace(entries={(k, p): v for k in range(self.truncation + 1)
                                         for p, v in self.stack.values(t, k).items()})
                for t in range(len(self))]


def _arrays(parts, shape):
    """Parts as integer arrays of the shape, an int 0 part as zeros."""
    return np.array([np.full(shape, p, dtype=object) if type(p) is int else p for p in parts])


def _pack(vectors, width, n):
    """(P, dens) of vectors (parts, den) as `solve_sparse` gives them, on
    width points: P[s, t, p] the numerator of part s of vector t at point p,
    over dens[t]; the parts past those a vector has are zero."""
    P = np.zeros((n, len(vectors), width), dtype=object)
    for t, (parts, _) in enumerate(vectors):
        for s, part in enumerate(parts):
            P[s, t, list(part)] = list(part.values())
    return P, [den for _, den in vectors]


def _hat_kernel(f, beta, S, D):
    """Per layer 0..D, the germs (P, dens) off the kernel of the hat space of
    (x, beta, D), taken off S, and their leading degrees; None if no such
    space is cached or its free columns per degree differ from the step
    kernels'."""
    space = S._images.pop(_hat_key(f, beta, D), None)
    if space is None or _hat_free_counts(space, S, D) != jacobian_dims(f, S, D).per_degree:
        return None
    degrees = [k for k in range(D + 1) for _ in S.layer(k)]
    kernel = space.kernel(len(degrees))
    P, dens = _pack(list(kernel.values()), len(degrees), degree(field(f.m, beta.m)))
    off = np.cumsum([0] + [len(S.layer(k)) for k in range(D + 1)]).tolist()
    return ([(P[:, :, a:b], dens) for a, b in zip(off, off[1:])],
            [degrees[fc] for fc in kernel])


def _layer(P, dens, count):
    """Layer parts [part, germ, point] of count germs and den, the least
    common denominator: germ t < len(dens) has the values P[:, t] over
    dens[t]; the rest are zero."""
    den = lcm(*dens)
    out = np.zeros((len(P), count, P.shape[2]), dtype=object)
    out[:, :len(dens)] = P * np.array([den // d for d in dens], dtype=object)[:, None]
    g = gcd(den, *out.ravel().tolist())
    return (out // g if g != 1 else out), den // g


def solve_recursion(f, beta, S: GradedSemigroup, truncation=None) -> SolutionBasis:
    """Basis of truncated solution germs at the base point f, over the field
    Q(zeta_m) of x and beta (FVectors, or values).

    New basis directions at degree k + 1 are the echelonized kernel of the
    step matrix; existing germs are extended by the particular solution with
    free variables zero, so results are reproducible.  Both come from one
    sparse reduction of the step (linalg.solve_sparse).  Raises
    InconsistentSystem if a degree step is unsolvable.  That is the step
    route; the kernel route (see the module) reads degrees 0..D0,
    D0 = min(D, rank + 3), off the hat space of (x, beta, D0) if it is
    cached on S and each degree m has |layer m| - rank
    `_image_rows(f, S, m)` free columns, as it does exactly when no step is
    inconsistent; steps then run from D0 to D.
    """
    r = S.rank
    D = truncation if truncation is not None else r + 3
    if D < r + 1:
        raise ValueError("truncation must be at least rank + 1")
    f = f if isinstance(f, FVector) else FVector(f)
    beta = beta if isinstance(beta, FVector) else FVector(beta)
    m = field(f.m, beta.m)
    n = degree(m)

    # layers[k]: (P, dens) of the germs born at degree <= k, on layer k
    got = _hat_kernel(f, beta, S, min(D, r + 3))
    if got is None:
        # one unit germ per degree-0 layer element
        w = len(S.layer(0))
        P = np.zeros((n, w, w), dtype=object)
        P[0, range(w), range(w)] = 1
        layers, leading = [(P, [1] * w)], [0] * w
    else:
        layers, leading = got

    fm = f.embed(m)
    X = fm.den
    bB, B = beta.numerators(m)
    # parts s > 0 of (beta_j - c_j) B X, the same at every c
    ti = [np.array(part, dtype=object) * X if any(part) else 0 for part in bB[1:]]
    for k in range(len(layers) - 1, D):
        # right-hand sides lambda_c (beta_j - c_j) B X over dens[t] B, germ t's
        # row p r + j at c = layer(k)[p]: integer products
        P, dens = layers[k]
        tw = np.array([[(b - cj * B) * X for b, cj in zip(bB[0], c.free)]
                       for c in S.layer(k)], dtype=object)
        R = np.array(mul([tw, *ti], list(P[..., None]), m))
        R = R.reshape(n, len(dens), -1).transpose(1, 0, 2).tolist()
        sols, kernel = solve_sparse(_image_rows(fm, S, k + 1), len(S.layer(k + 1)),
                                    [(parts, d * B) for parts, d in zip(R, dens)], m)
        if any(sol is None for sol in sols):
            raise InconsistentSystem(
                f"no extension at degree {k + 1}; nondegeneracy certificate wrong?")
        layers.append(_pack(sols + kernel, len(S.layer(k + 1)), n))
        leading += [k + 1] * len(kernel)

    return SolutionBasis(GermStack(S, f, beta, D, [
        _layer(P, dens, len(leading)) for P, dens in layers], m), leading)


def filtration_dims(basis: SolutionBasis) -> DimReport:
    """Counts of germs by leading degree; dual to the graded quotient."""
    return DimReport.of(basis.leading.count(k) for k in range(basis.truncation + 1))


def _series(S, D, lam, dzs):
    """Truncated Taylor values [dz, germ, q] at z = base + dz of germs of
    truncation D whose `_germ_floats` are lam, at the q-th point of layers
    0..D.  As d_i Phi_c = Phi_{c + v_i}, Phi(x + dz) = prod_i exp(dz_i S_i)
    lambda with (S_i lambda)_c = lambda_{c + v_i}, and lambda vanishes past
    degree D: each exponential is a Horner sum in s = D..1 over the shift
    tables, for every point and dz at once.  Step s reads layers s..D and
    writes layers s - 1..D - 1; layer D stays as it is."""
    off = np.cumsum([0] + [len(S.layer(k)) for k in range(D + 1)])
    up = np.concatenate([off[k + 1] + S.shift(k) for k in range(D)])
    dzs = np.array(dzs, dtype=complex)
    val = np.repeat([lam[0] + 1j * lam[1]], len(dzs), axis=0)
    for i in range(len(S.A)):
        acc = val.copy()
        for s in range(D, 0, -1):
            lo, hi = off[s - 1], off[D]
            acc[..., lo:hi] = val[..., lo:hi] + dzs[:, i, None, None] / s * acc[..., up[lo:, i]]
        val = acc
    return val


def comparison_radius(base_x) -> float:
    """Safe numeric evaluation radius, from the nonzero coordinates of x."""
    nonzero = [abs(complex(v)) for v in base_x if complex(v)]
    if not nonzero:
        raise ValueError("the base point has no nonzero coordinate")
    return min(nonzero) / (4 * len(base_x))


@dataclass
class ResidualCheck:
    table_index: int
    c: GroupElement
    covector: int
    residuals: tuple
    orders: tuple
    required_order: float
    passed: bool


@dataclass
class ResidualReport:
    shift_identity_exact: bool
    checks: list

    @property
    def all_passed(self):
        return self.shift_identity_exact and all(ch.passed for ch in self.checks)


def _germ_floats(stack: GermStack):
    """(re, im): float arrays [t, q] of the values of germ t at the q-th
    point of layers 0..truncation in order, under zeta -> exp(2 pi i / m).
    Each part is its numerator over den by Python int division, which rounds
    correctly; over Q and Q(i) the parts are the real and imaginary ones, so
    a value equals complex() of its GaussianRational."""
    parts = [np.concatenate([(P[s] / den).astype(float) for P, den in stack.layers], axis=1)
             for s in range(degree(stack.m))]
    z = sum(w * part for w, part in zip(complex_basis(stack.m), parts)) + 0j
    return z.real, z.imag


def recursion_defects(stack: GermStack):
    """Yield (k, defect) for each degree k below the truncation; defect[t, p, j]
    is True where germ t breaks sum_i x_i v_i[j] lambda_{c + v_i} =
    lambda_c (beta_j - c_j) at c = layer(k)[p], reading c + v_i from the shift
    tables.  Per covector j, on integer parts over Q(zeta_m): L sums
    (x_i v_i[j]) lambda_{c + v_i} over the i with x_i v_i[j] != 0, a small
    numerator times a layer numerator each, and with g = gcd(den_k, den_{k+1})
    the scalars a = fb den_k / g and b = ex den_{k+1} / g, applied once, bring
    both sides to one denominator (ex and fb those of x and beta); a defect
    is a L != b lambda_c (beta_j - c_j) fb in some part.  With x and beta
    rational, each part of the layers is checked as a sum of its own, and
    only where a layer has that part.
    """
    S, m = stack.semigroup, stack.m
    xs, ex = stack.base_x.numerators(m)
    bs, fb = stack.beta.numerators(m)
    rational = not any(map(any, xs[1:] + bs[1:]))
    for k, ((P0, den0), (P1, den1)) in enumerate(zip(stack.layers, stack.layers[1:])):
        free = np.repeat(S.free_layer(k), S.group.torsion_order, axis=0).astype(object)
        g = gcd(den0, den1)
        a, b = fb * den0 // g, ex * den1 // g
        up = [P1[:, :, q] for q in S.shift(k).T]
        live = [s for s in range(len(P0)) if P0[s].any() or P1[s].any()]
        defect = np.zeros((*P0.shape[1:], S.rank), dtype=bool)
        for j in range(S.rank):
            gr = bs[0][j] - fb * free[:, j]
            terms = [([x[i] * v.free[j] for x in xs], up[i])
                     for i, v in enumerate(S.A) if v.free[j] and any(x[i] for x in xs)]
            if rational:
                for s in live:
                    defect[..., j] |= a * sum(x[0] * u[s] for x, u in terms) != b * (P0[s] * gr)
                continue
            lhs = [0] * len(P0)
            for x, u in terms:
                lhs = [acc + v for acc, v in zip(lhs, mul(x, u, m))]
            rhs = mul([gr, *(c[j] for c in bs[1:])], P0, m)
            for left, right in zip(lhs, rhs):
                defect[..., j] |= a * left != b * right
        yield k, defect


ROUNDOFF = 1e-13  # residuals under ROUNDOFF times a germ's scale are roundoff


def check_residuals(basis: SolutionBasis) -> ResidualReport:
    """Verify the defining equations on the computed germs.

    The derivative-shift equation is an exact identity of re-indexed table
    entries and is checked structurally by recursion_defects.  The
    Euler-type equation sum_i z_i v_i[j] Phi_{c + v_i} = (beta_j - c_j) Phi_c
    is checked numerically at steps h0, h0/2, h0/4, h0 the comparison
    radius of x; the residual must shrink with observed order at least
    truncation - deg(c) - 1, except that under the roundoff floor
    ROUNDOFF * scale it only has to decrease.  Inside the truncation, the
    coefficient of dz^m / m! of the Euler residual at z = x + dz is the
    recursion defect at c + sum m_i v_i, so once the recursion identity holds
    exactly, the order test checks only the float evaluator (`_series`, one
    pass for all three steps) and roundoff.
    """
    S, D, stack = basis.semigroup, basis.truncation, basis.stack
    exact_ok = not any(defect.any() for _, defect in recursion_defects(stack))
    lam = _germ_floats(stack)

    x = stack.base_x.complex()
    h0 = comparison_radius(x)
    zs = np.array([x + h / len(x) for h in (h0, h0 / 2, h0 / 4)])
    # (degree, index) of K_prim and layers 0 and 1, once each, in that order
    kp = [(k, S.layer(k).index(c)) for c in k_prim(S) for k in [pair(S.deg, c)]]
    kp = [at for at in dict.fromkeys(kp + [(k, p) for k in (0, 1) for p in range(len(S.layer(k)))])
          if D - at[0] - 1 >= 1]
    check_points = [S.layer(k)[p] for k, p in kp]
    degrees = [k for k, _ in kp]
    # the index of c among the points of layers 0..D, and of each c + v_i
    off = np.cumsum([0] + [len(S.layer(k)) for k in range(D + 1)])
    at = [off[k] + p for k, p in kp]
    up = np.array([off[k + 1] + S.shift(k)[p] for k, p in kp])
    values = _series(S, D, lam, zs - x)
    # res[z, t, m, j]: |lhs - rhs| at check point m for covector j
    lhs = np.einsum("ztmi,zi,ij->ztmj", values[..., up], zs, np.array([v.free for v in S.A]))
    beta = basis.beta.complex()
    g = np.array([[b - cj for b, cj in zip(beta, c.free)] for c in check_points])
    res = np.abs(lhs - values[..., at, None] * g)
    floors = (ROUNDOFF * np.maximum(1.0, np.hypot(*lam).max(axis=1))).tolist()
    checks = []
    for ti, (floor, per_table) in enumerate(zip(floors, res.transpose(1, 2, 3, 0).tolist())):
        for c, k, per_point in zip(check_points, degrees, per_table):
            req = D - k - 1
            for j, rs in enumerate(per_point):
                if all(rr < floor for rr in rs):
                    checks.append(ResidualCheck(ti, c, j, tuple(rs), (), req, True))
                    continue
                orders = tuple(
                    float(np.log2(rs[i] / rs[i + 1])) if rs[i + 1] > 0 else float("inf")
                    for i in range(len(rs) - 1))
                # under the floor the ratio is roundoff: ask only for a decrease
                ok = all(rs[i + 1] < rs[i] if rs[i + 1] < floor else o >= req - 0.2
                         for i, o in enumerate(orders))
                checks.append(ResidualCheck(ti, c, j, tuple(rs), orders, req, ok))
    return ResidualReport(exact_ok, checks)


def exact_rank(stacks, masks=None) -> int:
    """Exact rank of the germs of GermStacks on one semigroup and truncation,
    over the field that holds theirs; with masks, of their restrictions to
    the points masks[k] (a boolean array) of each layer k < len(masks).
    Columns go into a RowSpace layer by layer until the rank is the germ
    count, which bounds it from above."""
    rows = sum(len(s) for s in stacks)
    m = field(*(s.m for s in stacks))
    space = RowSpace()
    for mask, layers in zip(repeat(slice(None)) if masks is None else masks,
                            zip(*(s.layers for s in stacks))):
        den = lcm(*(d for _, d in layers))
        P = np.concatenate([_arrays(embed(list(P * (den // d)), s.m, m), P.shape[1:])
                            for (P, d), s in zip(layers, stacks)], axis=1)
        for col in P[:, :, mask].transpose(2, 0, 1).tolist():
            space.add([{t: v for t, v in enumerate(part) if v} for part in col], m)
            if space.rank == rows:
                return rows
    return space.rank
