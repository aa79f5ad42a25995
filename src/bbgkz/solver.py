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
Everything is exact, over the cyclotomic field Q(zeta_m) of x and beta, a
value as phi(m) integer parts (linalg); only the residual check evaluates
the series in floats, through zeta -> exp(2 pi i / m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import numpy as np

from .abelian import GroupElement, pair
from .linalg import GaussianRational, RowSpace, complex_basis, degree, field, mul, solve_sparse
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
        """Per germ, `entries` {(k, p): value} of its nonzero values, the view
        of one germ that perfbench's tracer reads coefficient sizes off."""
        return [SimpleNamespace(entries={(k, p): v for k in range(self.truncation + 1)
                                         for p, v in self.stack.values(t, k).items()})
                for t in range(len(self))]


def _hat_kernel(f, beta, S, D):
    """Per layer 0..D, the germs' values (as `_layer` takes them) off the kernel
    of the hat space of (x, beta, "full", D), taken off S, and their leading
    degrees; None if no such space is cached or its free columns per degree
    differ from the step kernels'."""
    space = S._images.pop(_hat_key(f, beta, "full", D), None)
    if space is None or _hat_free_counts(space, S, "full", D) != jacobian_dims(f, S, D).per_degree:
        return None
    at = [(k, p) for k in range(D + 1) for p in range(len(S.layer(k)))]
    kernel = list(space.kernel(len(at)).items())
    layers = [[([{} for _ in parts], den) for _, (parts, den) in kernel] for _ in range(D + 1)]
    for t, (_, (parts, _)) in enumerate(kernel):
        for s, part in enumerate(parts):
            for c, v in part.items():
                k, p = at[c]
                layers[k][t][0][s][p] = v
    return layers, [at[fc][0] for fc, _ in kernel]


def _twisted(vec, tw, ti, B, m):
    """The right-hand side of one germ at one step, as (parts, d) for
    `solve_sparse`: row p * r + j is lambda_c (beta_j - c_j) B X for
    c = layer(k)[p], from the germ's values (parts, L) on layer k (numerator
    dicts over L) and the integral (beta_j - c_j) B X, whose part 0 is
    tw[p][j] and part s > 0 is ti[s - 1][j]; d is L B, so every entry is an
    integer product."""
    vparts, L = vec
    r = len(tw[0]) if tw else 0
    if not any(map(any, ti)):
        # a rational twist scales each part
        out = [[0] * (len(tw) * r) for _ in vparts]
        for row, part in zip(out, vparts):
            for p, a in part.items():
                row[p * r:p * r + r] = [a * t for t in tw[p]]
        return out, L * B
    n = len(ti) + 1
    out = [[0] * (len(tw) * r) for _ in range(n)]
    for p in set().union(*vparts):
        a = [part.get(p, 0) for part in vparts] + [0] * (n - len(vparts))
        for j in range(r):
            for s, v in enumerate(mul(a, [tw[p][j], *(t[j] for t in ti)], m)):
                out[s][p * r + j] = v
    return out, L * B


def _layer(vectors, count, width, n):
    """Layer parts [part, germ, point] of count germs over Q(zeta_m) with n =
    phi(m) parts, and den, the least common denominator: germ t <
    len(vectors) has the values vectors[t], (parts, d) numerator dicts over
    d; the rest are zero."""
    den = lcm(*[d for _, d in vectors])
    out = [[[0] * width for _ in range(count)] for _ in range(n)]
    for t, (parts, d) in enumerate(vectors):
        scale = den // d
        for row, part in zip(out, parts):
            row = row[t]
            for p, v in part.items():
                row[p] = v * scale
    g = gcd(den, *(v for part in out for row in part for v in row if v))
    if g != 1:
        out = [[[v // g for v in row] for row in part] for part in out]
    return np.array(out, dtype=object).reshape(n, count, width), den // g


def solve_recursion(f, beta, S: GradedSemigroup, truncation=None) -> SolutionBasis:
    """Basis of truncated solution germs at the base point f, over the field
    Q(zeta_m) of x and beta (FVectors, or values).

    New basis directions at degree k + 1 are the echelonized kernel of the
    step matrix; existing germs are extended by the particular solution with
    free variables zero, so results are reproducible.  Both come from one
    sparse reduction of the step (linalg.solve_sparse).  Raises
    InconsistentSystem if a degree step is unsolvable.  That is the step
    route; the kernel route (see the module) reads degrees 0..D0,
    D0 = min(D, rank + 3), off the hat space of (x, beta, "full", D0) if it
    is cached on S and each degree m has |layer m| - rank
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

    # layers[k]: per germ born at degree <= k, its values on layer k
    got = _hat_kernel(f, beta, S, min(D, r + 3))
    if got is None:
        # one unit germ per degree-0 layer element
        layers = [[([{p: 1}], 1) for p in range(len(S.layer(0)))]]
        leading = [0] * len(layers[0])
    else:
        layers, leading = got

    fm = f.embed(m)
    X = fm.den
    bB, B = beta.numerators(m)
    ti = [[b * X for b in part] for part in bB[1:]]
    for k in range(len(layers) - 1, D):
        # right-hand sides lambda_c (beta_j - c_j), flattened in (c, j) order,
        # times the X of the rows
        tw = [[(b - cj * B) * X for b, cj in zip(bB[0], c.free)] for c in S.layer(k)]
        sols, kernel = solve_sparse(_image_rows(fm, S, k + 1), len(S.layer(k + 1)),
                                    [_twisted(vec, tw, ti, B, m) for vec in layers[k]], m)
        if any(sol is None for sol in sols):
            raise InconsistentSystem(
                f"no extension at degree {k + 1}; nondegeneracy certificate wrong?")
        layers.append(sols + kernel)
        leading += [k + 1] * len(kernel)

    return SolutionBasis(GermStack(S, f, beta, D, [
        _layer(vecs, len(leading), len(S.layer(k)), degree(m)) for k, vecs in enumerate(layers)],
        m), leading)


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


def evaluate_series(stack: GermStack, t: int, c: GroupElement, z) -> complex:
    """Truncated Taylor value of the component at c of germ t of the stack,
    near the base: the sum of lambda_{c + sum l_i v_i} prod (z_i - x_i)^{l_i}
    / l_i! over the multi-indices l with deg c + sum l_i <= truncation (see
    `_series`).
    """
    S, D, k = stack.semigroup, stack.truncation, pair(stack.semigroup.deg, c)
    if k > D:
        raise ValueError("component degree exceeds the truncation")
    q = sum(len(S.layer(m)) for m in range(k)) + S.layer(k).index(c)
    dz = [zz - xx for zz, xx in zip(z, stack.base_x.complex())]
    return complex(_series(S, D, _germ_floats(stack), [dz])[0, t, q])


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


def check_residuals(basis: SolutionBasis, h0=None, tiny=1e-13) -> ResidualReport:
    """Verify the defining equations on the computed germs.

    The derivative-shift equation is an exact identity of re-indexed table
    entries and is checked structurally by recursion_defects.  The
    Euler-type equation sum_i z_i v_i[j] Phi_{c + v_i} = (beta_j - c_j) Phi_c
    is checked numerically at steps h0, h0/2, h0/4 (h0 must be positive); the
    residual must shrink with observed order at least truncation - deg(c) - 1,
    except that under the roundoff floor tiny * scale it only has to
    decrease.  Inside the truncation, the coefficient of dz^m / m! of the
    Euler residual at z = x + dz is the recursion defect at c + sum m_i v_i,
    so once the recursion identity holds exactly, the order test checks only
    the float evaluator (`_series`, one pass for all three steps) and
    roundoff.
    """
    S, D, stack = basis.semigroup, basis.truncation, basis.stack
    exact_ok = not any(defect.any() for _, defect in recursion_defects(stack))
    lam = _germ_floats(stack)

    x = stack.base_x.complex()
    if h0 is None:
        h0 = comparison_radius(x)
    if not h0 > 0:
        raise ValueError(f"residual step size {h0} is not positive")
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
    floors = (tiny * np.maximum(1.0, np.hypot(*lam).max(axis=1))).tolist()
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


def restricted_solution_rank(basis: SolutionBasis) -> int:
    """Exact rank of the germs restricted to interior points of degree <= rank.

    Only meaningful at beta = 0, where it matches the interior image
    dimension of the Jacobian quotient.
    """
    S, stack = basis.semigroup, basis.stack
    normals = np.array(S.cone.facet_normals).T
    # layer k's interior points: every facet value of the free part positive;
    # a column's common denominator scales it and leaves the rank unchanged
    inner = [np.repeat((S.free_layer(k) @ normals > 0).all(axis=1), S.group.torsion_order)
             for k in range(S.rank + 1)]
    space = RowSpace()
    for t in range(len(basis)):
        parts = ([v for (P, _), mask in zip(stack.layers, inner) for v in P[s, t, mask].tolist()]
                 for s in range(degree(stack.m)))
        space.add_numerators([{c: v for c, v in enumerate(part) if v} for part in parts],
                             stack.m)
    return space.rank
