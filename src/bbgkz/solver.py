"""Truncated solution germs built by the degree-by-degree recursion.

A solution germ is stored as its lambda table: the values of all unknown
functions (and hence, after re-indexing, all their Taylor coefficients) at
the base point.  The recursion solves the layer-(k+1) linear system whose
right-hand side comes from layer k, asserting solvability at every step.
Exact Gaussian-rational arithmetic is the default; a complex-float backend
exists for quotient problems at irrational base points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import GroupElement, pair
from .linalg import GaussianRational, RowSpace, solve_sparse
from .polyhedral import GradedSemigroup, k_prim
from .ring import DimReport, FVector, _image_rows, as_scalar


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

    def value(self, c: GroupElement):
        return self.entries.get(c, 0)

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


def _recursion_matrix(S, f, k):
    """Float matrix of the layer-(k+1) unknowns against the layer-k equations."""
    src = S.layer(k)
    dst = S.layer(k + 1)
    idx = {c: i for i, c in enumerate(dst)}
    r = S.rank
    mat = np.zeros((r * len(src), len(dst)), dtype=complex)
    for a, c in enumerate(src):
        for i, v in enumerate(S.A):
            col = idx[c + v]
            for j in range(r):
                if v.free[j]:
                    mat[a * r + j, col] += f[i] * v.free[j]
    return mat


def _rhs_for_table(S, beta, table_entries, src, exact):
    """Right-hand side lambda_c (beta - c), flattened in (c, coordinate) order."""
    r = S.rank
    out = []
    for c in src:
        lam = table_entries.get(c)
        for j in range(r):
            coeff = beta[j] - c.free[j]
            if lam is None:
                out.append(GaussianRational(0) if exact else 0j)
            else:
                out.append(lam * coeff)
    return out


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


def solve_recursion(f, beta, S: GradedSemigroup, truncation=None,
                    backend="exact") -> SolutionBasis:
    """Basis of truncated solution germs at the base point f.

    New basis directions at degree k + 1 are the echelonized kernel of the
    step matrix; existing germs are extended by the particular solution with
    free variables zero, so results are reproducible.  The exact backend reads
    both from one sparse reduction of the step (linalg.solve_sparse).  Raises
    InconsistentSystem if a degree step is unsolvable.
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
    # one unit germ per degree-0 layer element
    tables = [({c: one}, 0) for c in S.layer(0)]

    for k in range(D):
        src = S.layer(k)
        dst = S.layer(k + 1)
        rhs = [_rhs_for_table(S, beta, entries, src, exact) for entries, _ in tables]
        if exact:
            sols, kernel = solve_sparse(_image_rows(f, S, k + 1), len(dst), rhs, one)
        else:
            mat = _recursion_matrix(S, f, k)
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


def evaluate_series(table: LambdaTable, c: GroupElement, z) -> complex:
    """Truncated Taylor value of the germ's component at c, near the base.

    Sums lambda_{c + sum l_i v_i} prod (z_i - x_i)^{l_i} / l_i! over all
    multi-indices with deg c + sum l_i <= truncation.
    """
    S = table.semigroup
    x = [complex(v) for v in table.base_x]
    dz = [zz - xx for zz, xx in zip(z, x)]
    n = len(x)
    budget = table.truncation - table.degree(c)
    if budget < 0:
        raise ValueError("component degree exceeds the truncation")
    total = 0.0 + 0.0j

    def rec(i, elem, coeff, remaining):
        nonlocal total
        if i == n:
            lam = table.entries.get(elem)
            if lam is not None:
                total += complex(lam) * coeff
            return
        cur, fac = elem, coeff
        v = S.A[i]
        for l in range(remaining + 1):
            rec(i + 1, cur, fac, remaining - l)
            cur = cur + v
            fac = fac * dz[i] / (l + 1)

    rec(0, c, 1.0 + 0.0j, budget)
    return total


def comparison_radius(base_x) -> float:
    """Safe numeric evaluation radius around the base point."""
    n = len(base_x)
    return min(abs(complex(v)) for v in base_x) / (4 * n)


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


def check_residuals(basis: SolutionBasis, h0=None, tiny=1e-13) -> ResidualReport:
    """Verify the defining equations on the computed germs.

    The derivative-shift equation is an exact identity of re-indexed table
    entries and is checked structurally.  The Euler-type equation is checked
    numerically at three step sizes; the residual must shrink with observed
    order at least truncation - deg(c) - 1.
    """
    S = basis.semigroup
    D = basis.truncation
    r = S.rank
    x = [complex(v) for v in basis.tables[0].base_x] if basis.tables else []

    # recursion identity, re-verified in exact arithmetic:
    # sum_i x_i lambda_{c + v_i} pi(v_i) == lambda_c (beta - pi(c))
    exact_ok = True
    for t in basis.tables:
        xs = t.base_x
        for k in range(D):
            for c in S.layer(k):
                lam = t.entries.get(c, 0)
                for j in range(r):
                    lhs = 0
                    for i, v in enumerate(S.A):
                        if v.free[j]:
                            nb = t.entries.get(c + v)
                            if nb is not None:
                                lhs = lhs + xs[i] * nb * v.free[j]
                    rhs_val = lam * (basis.beta[j] - c.free[j]) if lam else 0
                    diff = lhs - rhs_val
                    bad = bool(diff) if not isinstance(diff, complex) else abs(diff) > 1e-12
                    if bad:
                        exact_ok = False

    if h0 is None:
        h0 = comparison_radius(basis.tables[0].base_x) if basis.tables else 0.0
    hs = (h0, h0 / 2, h0 / 4)
    check_points = list(dict.fromkeys(
        list(k_prim(S)) + list(S.layer(0)) + list(S.layer(1))))
    checks = []
    for ti, t in enumerate(basis.tables):
        beta = [complex(b) for b in basis.beta]
        for c in check_points:
            deg_c = t.degree(c)
            required = D - deg_c - 1
            if required < 1:
                continue
            for j in range(r):
                res = []
                for h in hs:
                    z = [xi + h / len(x) for xi in x]
                    lhs = sum(v.free[j] * z[i] * evaluate_series(t, c + v, z)
                              for i, v in enumerate(S.A))
                    rhs = (beta[j] - c.free[j]) * evaluate_series(t, c, z)
                    res.append(abs(lhs - rhs))
                scale = max(1.0, max(abs(complex(v)) for v in t.entries.values()))
                if all(rr < tiny * scale for rr in res):
                    checks.append(ResidualCheck(ti, c, j, tuple(res), (), required, True))
                    continue
                orders = tuple(
                    float(np.log2(res[i] / res[i + 1])) if res[i + 1] > 0 else float("inf")
                    for i in range(len(res) - 1))
                ok = all(o >= required - 0.2 for o in orders)
                checks.append(ResidualCheck(ti, c, j, tuple(res), orders, required, ok))
    return ResidualReport(exact_ok, checks)


def restricted_solution_rank(basis: SolutionBasis) -> int:
    """Rank of the germs restricted to interior points of degree <= rank.

    Only meaningful at beta = 0, where it matches the interior image
    dimension of the Jacobian quotient.
    """
    S = basis.semigroup
    r = S.rank
    cols = []
    for k in range(r + 1):
        cols.extend(S.layer(k, "interior"))
    idx = {c: i for i, c in enumerate(cols)}
    exact = all(isinstance(v, GaussianRational)
                for t in basis.tables for v in list(t.entries.values())[:1])
    if exact:
        space = RowSpace()
        for t in basis.tables:
            row = {idx[c]: v for c, v in t.entries.items() if c in idx and v}
            space.add(row)
        return space.rank
    mat = np.zeros((len(basis.tables), len(cols)), dtype=complex)
    for i, t in enumerate(basis.tables):
        for c, v in t.entries.items():
            if c in idx:
                mat[i, idx[c]] = complex(v)
    if not cols or not basis.tables:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if len(s) == 0 or s[0] == 0:
        return 0
    return int((s > 1e-9 * s[0]).sum())
