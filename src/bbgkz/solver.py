"""Truncated solution germs built by the degree-by-degree recursion.

A solution germ is stored as its lambda table: the values of all unknown
functions (and hence, after re-indexing, all their Taylor coefficients) at
the base point.  Two routes give the same germs.  The step route solves the
layer-(k+1) linear system whose right-hand side comes from layer k,
asserting solvability at every step; it gives `solve_sparse` each
right-hand side as Gaussian-integer numerators over one denominator.  The
kernel route reads them off the hat space `ring.hat_quotient_dims` reduced
for the same (x, beta, D) and takes it off the semigroup, as no later task
reads it.  That kernel is the
truncated solution space: a hat row mu_j . hat[n] paired with a table is
the recursion identity at (n, j).  The pivots go to the highest degree,
then the lowest index, so the germ of a free column fc is zero below deg fc
and, there, lives on fc and pivots of lower index: fc is its last nonzero
entry in (degree, index) order, as for the step route's germ born at fc.
So both routes have the same free columns, and both bases are the one that
is 1 at one free column and 0 at the others.  Exact Gaussian-rational
arithmetic is the default; a complex-float backend exists for quotient
problems at irrational base points.  `check_residuals` runs on one
GermStack of the germs and evaluates the series by the semigroup
exponential, all three step sizes in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .abelian import GroupElement, pair
from .linalg import GaussianRational, RowSpace, numerators, solve_sparse
from .polyhedral import GradedSemigroup, k_prim
from .ring import (DimReport, FVector, _hat_free_counts, _hat_key, _image_rows, _scaled,
                   as_scalar, jacobian_dims)


class InconsistentSystem(RuntimeError):
    """A degree step of the recursion had no solution.

    For nondegenerate coefficients the recursion is always consistent, so
    this signals a wrong nondegeneracy certificate or an internal bug.
    """


@dataclass
class LambdaTable:
    """Exact germ data of one solution at the base point."""
    semigroup: GradedSemigroup
    base_x: tuple
    beta: tuple
    truncation: int
    entries: dict           # GroupElement -> scalar; absent means zero
    leading_degree: int

    def degree(self, c: GroupElement) -> int:
        return pair(self.semigroup.deg, c)


@dataclass
class SolutionBasis:
    tables: list
    semigroup: GradedSemigroup
    beta: tuple
    truncation: int

    def __len__(self):
        return len(self.tables)


def _float_nullspace(mat, ncols, tol=1e-9):
    if mat.shape[0] == 0:
        return [np.eye(ncols, dtype=complex)[i] for i in range(ncols)]
    u, s, vh = np.linalg.svd(mat)
    cutoff = tol * (s[0] if len(s) else 1.0)
    null_dim = ncols - int((s > cutoff).sum())
    return [vh[-(i + 1)].conj() for i in range(null_dim)][::-1]


def _nonzero(vec):
    """Sparse form of a dense float vector: column -> nonzero entry."""
    return {col: val for col, val in enumerate(vec) if val}


def _float_solve_multi(mat, rhs_list, tol=1e-9):
    out = []
    for b in rhs_list:
        b = np.asarray(b, dtype=complex)
        if mat.shape[0] == 0:
            out.append(np.zeros(mat.shape[1], dtype=complex))
            continue
        sol, *_ = np.linalg.lstsq(mat, b, rcond=None)
        resid = np.linalg.norm(mat @ sol - b)
        scale = max(1.0, np.linalg.norm(b))
        if resid > tol * scale:
            out.append(None)
        else:
            out.append(sol)
    return out


def _hat_kernel_tables(f, beta, S, D, one):
    """(entries, leading degree) of the germs off the kernel of the hat space
    of (x, beta, "full", D), taken off S, or None if none is cached or its
    free columns per degree differ from the step kernels'."""
    space = S._images.pop(_hat_key(f, beta, "full", D), None)
    if space is None or _hat_free_counts(space, S, "full", D) != jacobian_dims(f, S, D).per_degree:
        return None
    points = [c for k in range(D + 1) for c in S.layer(k)]
    return [({points[c]: v for c, v in vec.items()}, pair(S.deg, points[fc]))
            for fc, vec in space.kernel(len(points), one).items()]


def _twisted(vals, tr, ti, B):
    """The right-hand side of one germ at one step, as (re, im, d) for
    `solve_sparse`: row p * r + j is lambda_c (beta_j - c_j) B X for
    c = layer(k)[p], from the germ's values {p: lambda_c} on layer k and the
    Gaussian integers (beta_j - c_j) B X = tr[p][j] + i ti[j]; d is B times
    the lcm of the value denominators, so every entry is an integer product."""
    L, r = lcm(*(v.d for v in vals.values())), len(ti)
    re = [0] * (len(tr) * r)
    real = not any(ti) and not any(v.b for v in vals.values())
    im = None if real else [0] * len(re)
    for p, v in vals.items():
        a, b, q = v.a * (L // v.d), v.b * (L // v.d), p * r
        if real:
            re[q:q + r] = [a * t for t in tr[p]]
        else:
            re[q:q + r] = [a * t - b * u for t, u in zip(tr[p], ti)]
            im[q:q + r] = [a * u + b * t for t, u in zip(tr[p], ti)]
    return re, im, L * B


def solve_recursion(f, beta, S: GradedSemigroup, truncation=None,
                    backend="exact") -> SolutionBasis:
    """Basis of truncated solution germs at the base point f.

    New basis directions at degree k + 1 are the echelonized kernel of the
    step matrix; existing germs are extended by the particular solution with
    free variables zero, so results are reproducible.  The exact backend reads
    both from one sparse reduction of the step (linalg.solve_sparse).  Raises
    InconsistentSystem if a degree step is unsolvable.  That is the step
    route; the exact backend takes the kernel route (see the module) if the
    hat space of (x, beta, "full", D) is cached on S and each degree m has
    |layer m| - rank `_image_rows(f, S, m)` free columns, as it does exactly
    when no step is inconsistent.
    """
    r = S.rank
    D = truncation if truncation is not None else r + 3
    if D < r + 1:
        raise ValueError("truncation must be at least rank + 1")
    exact = backend == "exact"
    if exact:
        if not isinstance(f, FVector):
            f = FVector(tuple(f))
        beta = tuple(as_scalar(b) for b in beta)
        x = f.x
    else:
        x = tuple(complex(v) for v in f)
        f = x
        beta = tuple(complex(b) for b in beta)

    one = GaussianRational(1) if exact else (1 + 0j)
    tables = _hat_kernel_tables(f, beta, S, D, one) if exact else None
    steps = D if tables is None else 0
    if tables is None:
        # one unit germ per degree-0 layer element
        tables = [({c: one}, 0) for c in S.layer(0)]
        # each germ's values on the layer the next step starts from
        last = [{p: one} for p in range(len(tables))]

    X = _scaled(x)[1]
    if exact:
        bB, B = _scaled(beta)
        bB = [GaussianRational(b) for b in bB]
        ti = [b.b * X for b in bB]
    for k in range(steps):
        src = S.layer(k)
        dst = S.layer(k + 1)
        rows = _image_rows(f, S, k + 1)
        # right-hand sides lambda_c (beta_j - c_j), flattened in (c, j) order,
        # times the X of the rows
        if exact:
            tr = [[(b.a - cj * B) * X for b, cj in zip(bB, c.free)] for c in src]
            rhs = [_twisted(vals, tr, ti, B) for vals in last]
            sols, kernel = solve_sparse(rows, len(dst), rhs, one)
        else:
            twists = [(p, (b - cj) * X) for p, c in enumerate(src) for b, cj in zip(beta, c.free)]
            rhs = [[vals[p] * t if p in vals else 0 for p, t in twists] for vals in last]
            mat = np.zeros((len(rows), len(dst)), dtype=complex)
            for a, row in enumerate(rows):
                for col, val in row.items():
                    mat[a, col] += val
            sols = [None if sol is None else _nonzero(sol)
                    for sol in _float_solve_multi(mat, rhs)]
            kernel = [_nonzero(vec) for vec in _float_nullspace(mat, len(dst))]
        for (entries, _), sol in zip(tables, sols):
            if sol is None:
                raise InconsistentSystem(
                    f"no extension at degree {k + 1}; nondegeneracy certificate wrong?")
            entries.update((dst[col], val) for col, val in sol.items())
        tables.extend(({dst[col]: val for col, val in vec.items()}, k + 1)
                      for vec in kernel)
        last = sols + kernel

    out = [LambdaTable(S, x, beta, D, entries, lead) for entries, lead in tables]
    out.sort(key=lambda t: t.leading_degree)
    return SolutionBasis(out, S, beta, D)


def filtration_dims(basis: SolutionBasis) -> DimReport:
    """Counts of germs by leading degree; dual to the graded quotient."""
    counts = [0] * (basis.truncation + 1)
    for t in basis.tables:
        counts[t.leading_degree] += 1
    return DimReport.of(counts)


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


def evaluate_series(table: LambdaTable, c: GroupElement, z) -> complex:
    """Truncated Taylor value of the germ's component at c, near the base:
    the sum of lambda_{c + sum l_i v_i} prod (z_i - x_i)^{l_i} / l_i! over
    the multi-indices l with deg c + sum l_i <= truncation (see `_series`).
    """
    S, D, k = table.semigroup, table.truncation, table.degree(c)
    if k > D:
        raise ValueError("component degree exceeds the truncation")
    q = sum(len(S.layer(m)) for m in range(k)) + S.layer(k).index(c)
    dz = [zz - complex(xx) for zz, xx in zip(z, table.base_x)]
    return complex(_series(S, D, _germ_floats(GermStack.of([table])), [dz])[0, 0, q])


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


def _parts(values, exact):
    """Real parts, imaginary parts and denominator of values: float arrays over
    1, or Python-int numerators over the lcm of the denominators."""
    if not exact:
        z = np.array(values, dtype=complex)
        return z.real, z.imag, 1
    re, im, den = numerators(values)
    return np.array(re, dtype=object), np.array(im, dtype=object), den


@dataclass
class GermStack:
    """Germs sharing a semigroup, base point, beta and truncation, on arrays.

    layers[k] is (re, im, den) in the layout of `_parts`: germ t has the
    value (re[t, p] + i im[t, p]) / den at layer(k)[p].  A complex base
    point marks a float stack.
    """
    semigroup: GradedSemigroup
    base_x: tuple
    beta: tuple
    truncation: int
    layers: list

    @classmethod
    def of(cls, tables):
        """The stack of LambdaTables that share their data."""
        first, n = tables[0], len(tables)
        S, exact = first.semigroup, not isinstance(first.base_x[0], complex)
        layers = []
        for k in range(first.truncation + 1):
            re, im, den = _parts([t.entries.get(c, 0) for t in tables for c in S.layer(k)], exact)
            layers.append((re.reshape(n, -1), im.reshape(n, -1), den))
        return cls(S, first.base_x, first.beta, first.truncation, layers)

    @property
    def exact(self):
        return not isinstance(self.base_x[0], complex)

    def __len__(self):
        return len(self.layers[0][0])


def _germ_floats(stack: GermStack):
    """(re, im): float arrays [t, q] of the values of germ t at the q-th
    point of layers 0..truncation in order.  An exact value is re / den by
    Python int division, which rounds correctly, so it equals complex() of
    the GaussianRational."""
    return (np.concatenate([(re / den).astype(float) for re, _, den in stack.layers], axis=1),
            np.concatenate([(im / den).astype(float) for _, im, den in stack.layers], axis=1))


def recursion_defects(stack: GermStack):
    """Yield (k, defect) for each degree k below the truncation; defect[t, p, j]
    tests sum_i x_i v_i[j] lambda_{c + v_i} = lambda_c (beta_j - c_j) for germ
    t at c = layer(k)[p], reading c + v_i from the shift tables.  Float stacks
    give |lhs - rhs|, forming x_i * lambda once per i and then its product
    with v_i[j], in real arithmetic as Python's complex type does.  Exact
    stacks give True where a L != b lambda_c (beta_j - c_j) on Gaussian-integer
    numerators, per covector j: L sums (x_i v_i[j]) lambda_{c + v_i} over the
    i with x_i v_i[j] != 0, a small numerator times a layer numerator each,
    and with g = gcd(den_k, den_{k+1}) the scalars a = fb den_k / g and
    b = ex den_{k+1} / g, applied once, bring both sides to one denominator
    (ex and fb those of x and beta).  Imaginary parts are carried only where
    x, beta or one of the two layers is not real.
    """
    S, exact = stack.semigroup, stack.exact
    xr, xi, ex = _parts(stack.base_x, exact)
    br, bi, fb = _parts(stack.beta, exact)
    for k, ((re0, im0, den0), (re1, im1, den1)) in enumerate(zip(stack.layers, stack.layers[1:])):
        free = np.repeat(S.free_layer(k), S.group.torsion_order, axis=0).astype(re0.dtype)
        if exact:
            g = gcd(den0, den1)
            a, b = fb * den0 // g, ex * den1 // g
            real = not (any(xi) or any(bi) or im0.any() or im1.any())
            up = [(re1[:, q], im1[:, q]) for q in S.shift(k).T]
            defect = np.empty((*re0.shape, S.rank), dtype=bool)
            for j in range(S.rank):
                gr = br[j] - fb * free[:, j]
                terms = [(xr[i] * v.free[j], xi[i] * v.free[j], *up[i])
                         for i, v in enumerate(S.A) if v.free[j] and (xr[i] or xi[i])]
                if real:
                    defect[..., j] = a * sum(s * p for s, _, p, _ in terms) != b * (re0 * gr)
                else:
                    lr = sum(s * p - t * q for s, t, p, q in terms)
                    li = sum(s * q + t * p for s, t, p, q in terms)
                    defect[..., j] = ((a * lr != b * (re0 * gr - im0 * bi[j]))
                                      | (a * li != b * (re0 * bi[j] + im0 * gr)))
            yield k, defect
            continue
        terms = []
        for i, q in enumerate(S.shift(k).T):
            ar, ai = xr[i] * fb * den0, xi[i] * fb * den0
            terms.append((ar * re1[:, q] - ai * im1[:, q], ar * im1[:, q] + ai * re1[:, q]))
        re, im = np.empty((2, *re0.shape, S.rank), dtype=re0.dtype)
        for j in range(S.rank):
            lr = li = 0
            for v, (pr, pi) in zip(S.A, terms):
                if v.free[j]:
                    lr = lr + pr * v.free[j]
                    li = li + pi * v.free[j]
            gr, gi = (br[j] * ex - ex * fb * free[:, j]) * den1, bi[j] * ex * den1
            re[..., j] = lr - (re0 * gr - im0 * gi)
            im[..., j] = li - (re0 * gi + im0 * gr)
        yield k, np.hypot(re, im)


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
    S = basis.semigroup
    D = basis.truncation
    stack = GermStack.of(basis.tables)
    exact_ok = not any((defect > 1e-12).any() for _, defect in recursion_defects(stack))
    lam = _germ_floats(stack)
    del stack  # the series needs only the floats

    x = np.array([complex(v) for v in basis.tables[0].base_x])
    if h0 is None:
        h0 = comparison_radius(x)
    if not h0 > 0:
        raise ValueError(f"residual step size {h0} is not positive")
    zs = np.array([x + h / len(x) for h in (h0, h0 / 2, h0 / 4)])
    check_points = [c for c in dict.fromkeys(
        list(k_prim(S)) + list(S.layer(0)) + list(S.layer(1)))
        if D - pair(S.deg, c) - 1 >= 1]
    degrees = [pair(S.deg, c) for c in check_points]
    # the index of c among the points of layers 0..D, and of each c + v_i
    off = np.cumsum([0] + [len(S.layer(k)) for k in range(D + 1)])
    where = {c: (k, p) for k in set(degrees) for p, c in enumerate(S.layer(k))}
    kp = [where[c] for c in check_points]
    at = [off[k] + p for k, p in kp]
    up = np.array([off[k + 1] + S.shift(k)[p] for k, p in kp])
    values = _series(S, D, lam, zs - x)
    # res[z, t, m, j]: |lhs - rhs| at check point m for covector j
    lhs = np.einsum("ztmi,zi,ij->ztmj", values[..., up], zs, np.array([v.free for v in S.A]))
    g = np.array([[complex(b) - cj for b, cj in zip(basis.beta, c.free)] for c in check_points])
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
    S = basis.semigroup
    cols = (c for k in range(S.rank + 1) for c in S.layer(k, "interior"))
    idx = {c: i for i, c in enumerate(cols)}
    space = RowSpace()
    for t in basis.tables:
        space.add({idx[c]: v for c, v in t.entries.items() if c in idx and v})
    return space.rank
