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
Exact arithmetic is the default; a complex-float backend exists for
quotient problems at irrational base points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from types import SimpleNamespace

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
class GermStack:
    """Germs sharing a semigroup, base point, beta and truncation, on arrays.

    layers[k] is (re, im, den): germ t has the value (re[t, p] + i im[t, p])
    / den at layer(k)[p].  Exact stacks hold arrays of Python ints, den the
    least common denominator of the layer's values; float stacks (a complex
    base point) hold float arrays over den = 1.
    """
    semigroup: GradedSemigroup
    base_x: tuple
    beta: tuple
    truncation: int
    layers: list

    @property
    def exact(self):
        return not isinstance(self.base_x[0], complex)

    def __len__(self):
        return len(self.layers[0][0])

    def values(self, t, k):
        """{p: value} of the nonzero entries of germ t on layer k: canonical
        GaussianRationals on an exact stack, complex on a float one."""
        re, im, den = self.layers[k]
        return {p: GaussianRational(a, b, den) if self.exact else complex(a, b)
                for p, (a, b) in enumerate(zip(re[t].tolist(), im[t].tolist())) if a or b}


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


def _float_step(rows, ncols, twists, last, tol=1e-9):
    """(solutions, kernel) of one float step as sparse dicts by least squares
    (None past tol) and SVD, for right-hand sides lambda_c (beta_j - c_j) X
    in (c, j) order from the germ values `last`."""
    mat = np.zeros((len(rows), ncols), dtype=complex)
    for a, row in enumerate(rows):
        for col, val in row.items():
            mat[a, col] += val
    kernel, sols = list(np.eye(ncols, dtype=complex)), []
    if rows:
        _, sv, vh = np.linalg.svd(mat)
        kernel = [vh[-(i + 1)].conj() for i in range(ncols - int((sv > tol * sv[0]).sum()))][::-1]
    for vals in last:
        b = np.array([vals[p] * t if p in vals else 0 for p, t in twists], dtype=complex)
        sol = np.linalg.lstsq(mat, b, rcond=None)[0] if rows else np.zeros(ncols, dtype=complex)
        bad = rows and np.linalg.norm(mat @ sol - b) > tol * max(1.0, np.linalg.norm(b))
        sols.append(None if bad else {c: v for c, v in enumerate(sol) if v})
    return sols, [{c: v for c, v in enumerate(vec) if v} for vec in kernel]


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
    layers = [[({}, {}, den) for _, (_, _, den) in kernel] for _ in range(D + 1)]
    for t, (_, vec) in enumerate(kernel):
        for n in (0, 1):
            for c, v in vec[n].items():
                layers[at[c][0]][t][n][at[c][1]] = v
    return layers, [at[fc][0] for fc, _ in kernel]


def _twisted(vec, tr, ti, B):
    """The right-hand side of one germ at one step, as (re, im, d) for
    `solve_sparse`: row p * r + j is lambda_c (beta_j - c_j) B X for
    c = layer(k)[p], from the germ's values (re, im, L) on layer k (numerator
    dicts over L) and the Gaussian integers (beta_j - c_j) B X =
    tr[p][j] + i ti[j]; d is L B, so every entry is an integer product."""
    vr, vi, L = vec
    r = len(ti)
    re = [0] * (len(tr) * r)
    if not vi and not any(ti):
        for p, a in vr.items():
            re[p * r:p * r + r] = [a * t for t in tr[p]]
        return re, None, L * B
    im = [0] * len(re)
    for p in vr.keys() | vi.keys():
        a, b, q = vr.get(p, 0), vi.get(p, 0), p * r
        re[q:q + r] = [a * t - b * u for t, u in zip(tr[p], ti)]
        im[q:q + r] = [a * u + b * t for t, u in zip(tr[p], ti)]
    return re, im, L * B


def _layer(vectors, n, width, exact):
    """Layer arrays (re, im, den) [germ, point] of n germs, den the least
    common denominator: germ t < len(vectors) has the values vectors[t],
    (re, im, d) numerator dicts over d or a dict of complex values; the
    rest are zero."""
    if not exact:
        vals = np.zeros((n, width), dtype=complex)
        for t, vec in enumerate(vectors):
            vals[t, list(vec)] = list(vec.values())
        return vals.real, vals.imag, 1
    den = lcm(*[d for *_, d in vectors])
    re, im = ([[0] * width for _ in range(n)] for _ in range(2))
    for t, (vr, vi, d) in enumerate(vectors):
        s = den // d
        for part, vals in ((re[t], vr), (im[t], vi)):
            for p, v in vals.items():
                part[p] = v * s
    g = gcd(den, *(v for row in re + im for v in row if v))
    if g != 1:
        re, im = ([[v // g for v in row] for row in part] for part in (re, im))
    return (np.array(re, dtype=object).reshape(n, width),
            np.array(im, dtype=object).reshape(n, width), den // g)


def solve_recursion(f, beta, S: GradedSemigroup, truncation=None,
                    backend="exact") -> SolutionBasis:
    """Basis of truncated solution germs at the base point f.

    New basis directions at degree k + 1 are the echelonized kernel of the
    step matrix; existing germs are extended by the particular solution with
    free variables zero, so results are reproducible.  The exact backend reads
    both from one sparse reduction of the step (linalg.solve_sparse).  Raises
    InconsistentSystem if a degree step is unsolvable.  That is the step
    route; the exact backend takes the kernel route (see the module) for
    degrees 0..D0, D0 = min(D, rank + 3), if the hat space of
    (x, beta, "full", D0) is cached on S and each degree m has
    |layer m| - rank `_image_rows(f, S, m)` free columns, as it does exactly
    when no step is inconsistent; steps then run from D0 to D.
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

    # layers[k]: per germ born at degree <= k, its values on layer k
    got = _hat_kernel(f, beta, S, min(D, r + 3)) if exact else None
    if got is None:
        # one unit germ per degree-0 layer element
        n = len(S.layer(0))
        layers = [[({p: 1}, {}, 1) if exact else {p: 1 + 0j} for p in range(n)]]
        leading = [0] * n
    else:
        layers, leading = got

    X = _scaled(x)[1]
    if exact:
        bB, B = _scaled(beta)
        bB = [GaussianRational(b) for b in bB]
        ti = [b.b * X for b in bB]
    for k in range(len(layers) - 1, D):
        src = S.layer(k)
        rows = _image_rows(f, S, k + 1)
        # right-hand sides lambda_c (beta_j - c_j), flattened in (c, j) order,
        # times the X of the rows
        if exact:
            tr = [[(b.a - cj * B) * X for b, cj in zip(bB, c.free)] for c in src]
            sols, kernel = solve_sparse(rows, len(S.layer(k + 1)),
                                        [_twisted(vec, tr, ti, B) for vec in layers[k]])
        else:
            twists = [(p, (b - cj) * X) for p, c in enumerate(src) for b, cj in zip(beta, c.free)]
            sols, kernel = _float_step(rows, len(S.layer(k + 1)), twists, layers[k])
        if any(sol is None for sol in sols):
            raise InconsistentSystem(
                f"no extension at degree {k + 1}; nondegeneracy certificate wrong?")
        layers.append(sols + kernel)
        leading += [k + 1] * len(kernel)

    return SolutionBasis(GermStack(S, x, beta, D, [
        _layer(vecs, len(leading), len(S.layer(k)), exact) for k, vecs in enumerate(layers)]),
        leading)


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
    dz = [zz - complex(xx) for zz, xx in zip(z, stack.base_x)]
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


def _parts(values, exact):
    """Real parts, imaginary parts and denominator of values: float arrays over
    1, or Python-int numerators over the lcm of the denominators."""
    if not exact:
        z = np.array(values, dtype=complex)
        return z.real, z.imag, 1
    re, im, den = numerators(values)
    return np.array(re, dtype=object), np.array(im, dtype=object), den


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
    (ex and fb those of x and beta).  With x and beta real, the real and the
    imaginary parts of the layers are checked as two real sums, and the
    latter only where a layer is not real.
    """
    S, exact = stack.semigroup, stack.exact
    xr, xi, ex = _parts(stack.base_x, exact)
    br, bi, fb = _parts(stack.beta, exact)
    for k, ((re0, im0, den0), (re1, im1, den1)) in enumerate(zip(stack.layers, stack.layers[1:])):
        free = np.repeat(S.free_layer(k), S.group.torsion_order, axis=0).astype(re0.dtype)
        if exact:
            g = gcd(den0, den1)
            a, b = fb * den0 // g, ex * den1 // g
            data_real = not (any(xi) or any(bi))
            layers_real = not (im0.any() or im1.any())
            up = [(re1[:, q], im1[:, q]) for q in S.shift(k).T]
            defect = np.empty((*re0.shape, S.rank), dtype=bool)
            for j in range(S.rank):
                gr = br[j] - fb * free[:, j]
                terms = [(xr[i] * v.free[j], xi[i] * v.free[j], *up[i])
                         for i, v in enumerate(S.A) if v.free[j] and (xr[i] or xi[i])]
                if data_real:
                    # real coefficients: one real sum per part of the layers
                    defect[..., j] = a * sum(s * p for s, _, p, _ in terms) != b * (re0 * gr)
                    if not layers_real:
                        defect[..., j] |= a * sum(s * q for s, _, _, q in terms) != b * (im0 * gr)
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
    S, D, stack = basis.semigroup, basis.truncation, basis.stack
    exact_ok = not any((defect > 1e-12).any() for _, defect in recursion_defects(stack))
    lam = _germ_floats(stack)

    x = np.array([complex(v) for v in stack.base_x])
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
    S, stack = basis.semigroup, basis.stack
    normals = np.array(S.cone.facet_normals).T
    # layer k's interior points: every facet value of the free part positive;
    # a column's common denominator scales it and leaves the rank unchanged
    inner = [np.repeat((S.free_layer(k) @ normals > 0).all(axis=1), S.group.torsion_order)
             for k in range(S.rank + 1)]
    space = RowSpace()
    for t in range(len(basis)):
        re, im = ([v for layer, m in zip(stack.layers, inner) for v in layer[n][t, m].tolist()]
                  for n in (0, 1))
        space.add_numerators({c: v for c, v in enumerate(re) if v},
                             {c: v for c, v in enumerate(im) if v})
    return space.rank
