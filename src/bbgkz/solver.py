"""Truncated solution germs built by the degree-by-degree recursion.

A solution germ is stored as its lambda table: the values of all unknown
functions (and hence, after re-indexing, all their Taylor coefficients) at
the base point.  Two routes give the same germs.  The step route solves the
layer-(k+1) linear system whose right-hand side comes from layer k,
asserting solvability at every step.  The kernel route reads them off the
hat space `ring.hat_quotient_dims` reduced for the same (x, beta, D) and
takes it off the semigroup, as no later task reads it.  That kernel is the
truncated solution space: a hat row mu_j . hat[n] paired with a table is
the recursion identity at (n, j).  The pivots go to the highest degree,
then the lowest index, so the germ of a free column fc is zero below deg fc
and, there, lives on fc and pivots of lower index: fc is its last nonzero
entry in (degree, index) order, as for the step route's germ born at fc.
So both routes have the same free columns, and both bases are the one that
is 1 at one free column and 0 at the others.  Exact Gaussian-rational
arithmetic is the default; a complex-float backend exists for quotient
problems at irrational base points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .abelian import GroupElement, pair
from .linalg import GaussianRational, RowSpace, solve_sparse
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

    X = _scaled(x)[1]
    for k in range(steps):
        src = S.layer(k)
        dst = S.layer(k + 1)
        # right-hand sides lambda_c (beta_j - c_j), flattened in (c, j) order,
        # times the X of the `_image_rows` rows
        twists = [(c, (b - cj) * X) for c in src for b, cj in zip(beta, c.free)]
        rhs = [[entries[c] * t if c in entries else 0 for c, t in twists]
               for entries, _ in tables]
        rows = _image_rows(f, S, k + 1)
        if exact:
            sols, kernel = solve_sparse(rows, len(dst), rhs, one)
        else:
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

    out = [LambdaTable(S, x, beta, D, entries, lead) for entries, lead in tables]
    out.sort(key=lambda t: t.leading_degree)
    return SolutionBasis(out, S, beta, D)


def filtration_dims(basis: SolutionBasis) -> DimReport:
    """Counts of germs by leading degree; dual to the graded quotient."""
    counts = [0] * (basis.truncation + 1)
    for t in basis.tables:
        counts[t.leading_degree] += 1
    return DimReport.of(counts)


def _taylor_terms(S, k, start, dz, budget):
    """(indices of c + sum l_i v_i in layer k + |l|, k + |l|, prod dz_i^l_i / l_i!)
    for the layer-k indices `start` of c and each |l| <= budget, lexicographic."""
    terms = [(start, k, 1.0 + 0.0j)]
    for i, d in enumerate(dz):
        grown = []
        for idx, deg, fac in terms:
            for step in range(k + budget - deg + 1):
                if step:
                    idx, deg, fac = S.shift(deg)[idx, i], deg + 1, fac * d / step
                grown.append((idx, deg, fac))
        terms = grown
    return terms


def series_values(tables, points, z) -> np.ndarray:
    """Truncated Taylor values [table, point] of the germs near the base.

    Entry [t, p] is evaluate_series(tables[t], points[p], z); the tables share
    one semigroup, base point and truncation.  Terms are summed in order and
    products written in real arithmetic (numpy's complex multiply may fuse),
    so values equal a sequential Python complex sum bit for bit.
    """
    first = tables[0]
    S, D = first.semigroup, first.truncation
    dz = [zz - complex(xx) for zz, xx in zip(z, first.base_x)]
    offsets = np.cumsum([0] + [len(S.layer(k)) for k in range(D + 1)])
    index = {c: i for k in range(D + 1) for i, c in enumerate(S.layer(k), offsets[k])}
    lam = np.zeros((len(tables), offsets[-1]), dtype=complex)
    for row, t in zip(lam, tables):
        for c, v in t.entries.items():
            row[index[c]] = complex(v)
    degrees = [first.degree(c) for c in points]
    if max(degrees) > D:
        raise ValueError("component degree exceeds the truncation")
    out = np.empty((len(tables), len(points)), dtype=complex)
    for k in set(degrees):
        cols = [m for m, d in enumerate(degrees) if d == k]
        start = np.array([index[points[m]] - offsets[k] for m in cols])
        terms = _taylor_terms(S, k, start, dz, D - k)
        targets = np.stack([offsets[deg] + idx for idx, deg, _ in terms], axis=1)
        w = np.array([fac for _, _, fac in terms])
        lr, li = lam.real[:, targets], lam.imag[:, targets]
        # + 0.0: a sum started from 0, as in Python, never ends on -0.0
        out.real[:, cols] = np.add.accumulate(lr * w.real - li * w.imag, axis=2)[..., -1] + 0.0
        out.imag[:, cols] = np.add.accumulate(lr * w.imag + li * w.real, axis=2)[..., -1] + 0.0
    return out


def evaluate_series(table: LambdaTable, c: GroupElement, z) -> complex:
    """Truncated Taylor value of the germ's component at c, near the base.

    Sums lambda_{c + sum l_i v_i} prod (z_i - x_i)^{l_i} / l_i! over the
    multi-indices l in lexicographic order with deg c + sum l_i <= truncation.
    """
    return complex(series_values([table], [c], z)[0, 0])


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
    values = [GaussianRational(v) for v in values]
    den = lcm(*(v.d for v in values))
    return (np.array([v.a * (den // v.d) for v in values], dtype=object),
            np.array([v.b * (den // v.d) for v in values], dtype=object), den)


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


def recursion_defects(stack: GermStack):
    """Yield (k, defect) for each degree k below the truncation; defect[t, p, j]
    tests sum_i x_i v_i[j] lambda_{c + v_i} = lambda_c (beta_j - c_j) for germ
    t at c = layer(k)[p], reading c + v_i from the shift tables.  Float stacks
    give |lhs - rhs|, forming x_i * lambda once per i and then its product
    with v_i[j], in real arithmetic as Python's complex type does.  Exact
    stacks scale both sides by one positive integer and give True where the
    Gaussian-integer difference is nonzero.
    """
    S, exact = stack.semigroup, stack.exact
    xr, xi, ex = _parts(stack.base_x, exact)
    br, bi, fb = _parts(stack.beta, exact)
    for k, ((re0, im0, den0), (re1, im1, den1)) in enumerate(zip(stack.layers, stack.layers[1:])):
        free = np.repeat(S.free_layer(k), S.group.torsion_order, axis=0).astype(re0.dtype)
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
        yield k, (re != 0) | (im != 0) if exact else np.hypot(re, im)


def check_residuals(basis: SolutionBasis, h0=None, tiny=1e-13) -> ResidualReport:
    """Verify the defining equations on the computed germs.

    The derivative-shift equation is an exact identity of re-indexed table
    entries and is checked structurally by recursion_defects.  The
    Euler-type equation is checked numerically at steps h0, h0/2, h0/4 (one
    series_values call each; h0 must be positive); the residual must shrink
    with observed order at least truncation - deg(c) - 1, except that under
    the roundoff floor tiny * scale it only has to decrease.
    """
    S = basis.semigroup
    D = basis.truncation
    x = [complex(v) for v in basis.tables[0].base_x]

    exact_ok = not any((defect > 1e-12).any()
                       for _, defect in recursion_defects(GermStack.of(basis.tables)))

    if h0 is None:
        h0 = comparison_radius(x)
    if not h0 > 0:
        raise ValueError(f"residual step size {h0} is not positive")
    zs = [[xi + h / len(x) for xi in x] for h in (h0, h0 / 2, h0 / 4)]
    check_points = [c for c in dict.fromkeys(
        list(k_prim(S)) + list(S.layer(0)) + list(S.layer(1)))
        if D - pair(S.deg, c) - 1 >= 1]
    shifted = {c: [c + v for v in S.A] for c in check_points}
    points = list(dict.fromkeys(check_points + [d for ds in shifted.values() for d in ds]))
    col = {c: m for m, c in enumerate(points)}
    values = [series_values(basis.tables, points, z).tolist() for z in zs]
    beta = [complex(b) for b in basis.beta]
    checks = []
    for ti, t in enumerate(basis.tables):
        floor = tiny * max(1.0, max(abs(complex(v)) for v in t.entries.values()))
        for c in check_points:
            required = D - t.degree(c) - 1
            for j in range(S.rank):
                res = []
                for z, vals in zip(zs, values):
                    val = vals[ti]
                    lhs = sum(v.free[j] * z[i] * val[col[d]]
                              for i, (v, d) in enumerate(zip(S.A, shifted[c])))
                    rhs = (beta[j] - c.free[j]) * val[col[c]]
                    res.append(abs(lhs - rhs))
                if all(rr < floor for rr in res):
                    checks.append(ResidualCheck(ti, c, j, tuple(res), (), required, True))
                    continue
                orders = tuple(
                    float(np.log2(res[i] / res[i + 1])) if res[i + 1] > 0 else float("inf")
                    for i in range(len(res) - 1))
                # under the floor the ratio is roundoff: ask only for a decrease
                ok = all(res[i + 1] < res[i] if res[i + 1] < floor else o >= required - 0.2
                         for i, o in enumerate(orders))
                checks.append(ResidualCheck(ti, c, j, tuple(res), orders, required, ok))
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
