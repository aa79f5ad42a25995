"""Degree-by-degree recursion: closed forms, dimensions, and residuals."""

import dataclasses
import functools
import os
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from bbgkz import cli, ring, solver, torsion
from bbgkz.abelian import AbelianGroup, GroupElement, pair
from bbgkz.linalg import RowSpace
from bbgkz.polyhedral import build_semigroup, k_prim
from bbgkz.ring import (FVector, hat_quotient_dims, is_nondegenerate, jacobian_dims,
                        r1_dims)
from bbgkz.solver import (InconsistentSystem, ResidualCheck, ResidualReport,
                          check_residuals, comparison_radius, filtration_dims,
                          recursion_defects, solve_recursion)
from conftest import (FIXTURE_BUILDERS, QQI, LambdaTable, add_values, assert_stacks_equal,
                      basis_of, evaluate_series, make_problem, restricted_rank, stack_of,
                      tables_of)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CBETA = os.path.join(GOLDEN, "p2_z4_cbeta.problem.json")


@functools.lru_cache(maxsize=4096)
def multi_index_terms(S, c, dz, remaining):
    """(c + sum l_i v_i, prod dz_i^l_i / l_i!) over the multi-indices l with
    sum l_i <= remaining, in lexicographic order, by a recursive walk over
    group elements; germs of one semigroup, base point and truncation share
    it."""
    terms = []

    def rec(i, elem, coeff, remaining):
        if i == len(dz):
            terms.append((elem, coeff))
            return
        for l in range(remaining + 1):
            rec(i + 1, elem, coeff, remaining - l)
            elem = elem + S.A[i]
            coeff = coeff * dz[i] / (l + 1)

    rec(0, c, 1.0 + 0.0j, remaining)
    return terms


def reference_series(table, c, z):
    """Recursive multi-index sum over group elements, in lexicographic order
    of the multi-indices: the sequential sum that the semigroup-exponential
    evaluator replaced, kept as its independent reference."""
    dz = tuple(zz - complex(QQI(xx)) for zz, xx in zip(z, table.base_x))
    total = 0.0 + 0.0j
    for elem, coeff in multi_index_terms(table.semigroup, c, dz,
                                         table.truncation - table.degree(c)):
        lam = table.entries.get(elem)
        if lam is not None:
            total += complex(lam) * coeff
    return total


def problem_data(path, seed=None):
    """(semigroup, x, beta, truncation) of a problem file."""
    spec = cli.load_problem(path)
    S = build_semigroup(spec.group, spec.vectors)
    f, _ = spec.resolve_x(S, seed_override=seed)
    return S, f, spec.beta, spec.truncation


def fixture_basis(name, seed):
    """Germs of a bundled fixture at the base point drawn with `seed`."""
    S, f, beta, D = problem_data(cli.fixture_path(name), seed)
    return solve_recursion(f, beta, S, truncation=D)


def scale(table):
    """max(1, max |lambda_t|): the unit of the stated bound on series values
    and residuals."""
    return max(1.0, max(abs(complex(v)) for v in table.entries.values()))


BOUND = 1e-14


def reference_residuals(basis):
    """The per-check loop that check_residuals replaced, kept as its
    reference: reference_series per (germ, point, step size) and a Python
    complex sum per (germ, check point, covector, step)."""
    S = basis.semigroup
    D = basis.truncation
    tables = tables_of(basis)
    x = [complex(QQI(v)) for v in basis.stack.base_x]
    exact_ok = not any((defect > 1e-12).any()
                       for _, defect in recursion_defects(stack_of(tables)))
    h0 = comparison_radius(x)
    zs = [[xi + h / len(x) for xi in x] for h in (h0, h0 / 2, h0 / 4)]
    check_points = [c for c in dict.fromkeys(
        list(k_prim(S)) + list(S.layer(0)) + list(S.layer(1)))
        if D - pair(S.deg, c) - 1 >= 1]
    shifted = {c: [c + v for v in S.A] for c in check_points}
    points = list(dict.fromkeys(check_points + [d for ds in shifted.values() for d in ds]))
    col = {c: m for m, c in enumerate(points)}
    values = [[[reference_series(t, c, z) for c in points] for t in tables] for z in zs]
    beta = [complex(QQI(b)) for b in basis.beta]
    checks = []
    for ti, t in enumerate(tables):
        floor = 1e-13 * max(1.0, max(abs(complex(v)) for v in t.entries.values()))
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
                ok = all(res[i + 1] < res[i] if res[i + 1] < floor else o >= required - 0.2
                         for i, o in enumerate(orders))
                checks.append(ResidualCheck(ti, c, j, tuple(res), orders, required, ok))
    return ResidualReport(exact_ok, checks)


def assert_residuals_match(basis):
    """check_residuals against reference_residuals: the same checks, passed
    flags and vacuous class (no orders), and residuals within BOUND times
    the germ's scale."""
    got, want = check_residuals(basis), reference_residuals(basis)
    assert got.shift_identity_exact == want.shift_identity_exact
    assert [(c.table_index, c.c, c.covector, c.required_order, c.passed, not c.orders)
            for c in got.checks] == \
        [(c.table_index, c.c, c.covector, c.required_order, c.passed, not c.orders)
         for c in want.checks]
    tables = tables_of(basis)
    for a, b in zip(got.checks, want.checks):
        bound = BOUND * scale(tables[a.table_index])
        assert all(abs(r - s) <= bound for r, s in zip(a.residuals, b.residuals))
    return got


class TestClosedForms:
    def test_single_ray_falling_factorial(self):
        """K = Z>=0 with one generator: lambda_k = prod_{j<k}(beta-j) / x^k."""
        S, f, _ = make_problem("ex51")
        beta = Fraction(5, 2)
        basis = solve_recursion(f, (beta,), S, truncation=5)
        assert len(basis) == 1
        t = tables_of(basis)[0]
        x1 = Fraction(3)
        lam0 = t.entries[S.group.element((0,))]
        for k in range(6):
            expect = lam0
            for j in range(k):
                expect = expect * (beta - j)
            expect = expect / x1 ** k
            assert t.entries.get(S.group.element((k,)), 0) == expect

    def test_z2_split_recursions(self):
        """Sums/differences over the torsion bit follow the two scalar germs
        of (x1+x2)^beta and (x1-x2)^beta."""
        S, f, _ = make_problem("z2")
        beta = Fraction(3, 2)
        x1, x2 = Fraction(2), Fraction(1)
        basis = solve_recursion(f, (beta,), S, truncation=6)
        assert len(basis) == 2
        for t in tables_of(basis):
            def g(k, c):
                return t.entries.get(S.group.element((k,), (c,)), 0)
            for k in range(6):
                assert (x1 + x2) * (g(k + 1, 0) + g(k + 1, 1)) == \
                    (g(k, 0) + g(k, 1)) * (beta - k)
                assert (x1 - x2) * (g(k + 1, 0) - g(k + 1, 1)) == \
                    (g(k, 0) - g(k, 1)) * (beta - k)

    def test_z2_series_matches_power_functions(self):
        """Each germ evaluates to a combination of (z1+z2)^b and (z1-z2)^b."""
        S, f, _ = make_problem("z2")
        beta = Fraction(3, 2)
        basis = solve_recursion(f, (beta,), S, truncation=8)
        x1, x2, bf = 2.0, 1.0, float(beta)
        c0 = S.group.element((0,), (0,))
        for ti, t in enumerate(tables_of(basis)):
            def g(k, c):
                return complex(t.entries.get(S.group.element((k,), (c,)), 0))
            alpha = (g(0, 0) + g(0, 1)) / 2 / (x1 + x2) ** bf
            gamma = (g(0, 0) - g(0, 1)) / 2 / (x1 - x2) ** bf
            for dz in [(0.004, -0.003), (0.01, 0.006), (-0.005, 0.002)]:
                z = (x1 + dz[0], x2 + dz[1])
                want = alpha * (z[0] + z[1]) ** bf + gamma * (z[0] - z[1]) ** bf
                got = evaluate_series(basis.stack, ti, c0, z)
                assert abs(got - want) < 1e-9


class TestSeriesValues:
    @pytest.mark.parametrize("name", ["z2", "ex51", "p1", "repeated", "g3"])
    def test_matches_recursive_sum(self, name):
        """Every point of every layer, both step sizes in one pass, within
        BOUND times the germ's scale of the sequential sum."""
        S, f, beta = make_problem(name)
        basis = solve_recursion(f, beta, S, truncation=S.rank + 3)
        D = basis.truncation
        x = [complex(QQI(v)) for v in f.x]
        points = [c for k in range(D + 1) for c in S.layer(k)]
        tables = tables_of(basis)
        lam = solver._germ_floats(basis.stack)
        hs = (0.01, -0.003 + 0.002j)
        zs = [[xi + h * (i + 1) for i, xi in enumerate(x)] for h in hs]
        got = solver._series(S, D, lam, [[zz - xx for zz, xx in zip(z, x)] for z in zs])
        for z, values in zip(zs, got):
            for t, row in zip(tables, values):
                want = [reference_series(t, c, z) for c in points]
                assert np.abs(row - want).max() <= BOUND * scale(t)
            t, c = tables[-1], points[len(points) // 2]
            assert abs(evaluate_series(basis.stack, len(basis) - 1, c, z)
                       - reference_series(t, c, z)) <= BOUND * scale(t)

    def test_rejects_point_above_truncation(self):
        S, f, beta = make_problem("ex51")
        basis = solve_recursion(f, beta, S, truncation=2)
        with pytest.raises(ValueError):
            evaluate_series(basis.stack, 0, S.group.element((3,)), (3.0,))


class TestDimensions:
    def test_count_equals_volume_times_torsion(self, named_problem):
        _, S, f, beta = named_problem
        basis = solve_recursion(f, beta, S, truncation=S.rank + 1)
        assert len(basis) == S.volume * S.group.torsion_order

    def test_beta_independence(self, named_problem):
        _, S, f, _ = named_problem
        r = S.rank
        expected = S.volume * S.group.torsion_order
        rng = random.Random(17)
        for _ in range(5):
            beta = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(r))
            basis = solve_recursion(f, beta, S, truncation=r + 1)
            assert len(basis) == expected

    def test_filtration_matches_jacobian(self, named_problem):
        _, S, f, beta = named_problem
        basis = solve_recursion(f, beta, S, truncation=S.rank + 1)
        filt = filtration_dims(basis)
        jac = jacobian_dims(f, S, S.rank + 1)
        assert filt.per_degree == jac.per_degree

    def test_leading_degrees_sorted(self, named_problem):
        _, S, f, beta = named_problem
        basis = solve_recursion(f, beta, S, truncation=S.rank + 1)
        assert basis.leading == sorted(basis.leading)

    def test_truncation_validation(self):
        S, f, beta = make_problem("p1")
        with pytest.raises(ValueError):
            solve_recursion(f, beta, S, truncation=S.rank)

    def test_degenerate_point_is_inconsistent(self):
        """At x = (1, 1) the Z/2 problem is degenerate (x1 - x2 = 0): both
        degree-0 equations have the same left side, so a germ must take equal
        values at the two degree-0 points, which the unit germs do not."""
        S, _, _ = make_problem("z2")
        with pytest.raises(InconsistentSystem, match="degree 1"):
            solve_recursion((Fraction(1), Fraction(1)), (Fraction(3, 2),), S, truncation=3)


class TestKernelRoute:
    """Germs read off a reduced hat space against the step recursion."""

    @pytest.mark.parametrize("offset", [1, 2, 3])
    @pytest.mark.parametrize("at_zero", [False, True])
    def test_equals_step_route(self, named_problem, offset, at_zero, monkeypatch):
        """Once hat_quotient_dims has reduced the space, solve_recursion
        eliminates no step, returns the step route's germs, array for array
        and in the same order, and takes the space off S."""
        _, S, f, beta = named_problem
        if at_zero:
            beta = (Fraction(0),) * S.rank
        self.assert_routes_agree(S, f, beta, S.rank + offset, monkeypatch)

    @pytest.mark.parametrize("offset", [1, 2, 3])
    def test_complex_x(self, named_problem, offset, monkeypatch):
        """A complex x: both routes reduce over Q(i), and the step
        right-hand sides have Gaussian-integer numerators."""
        _, S, f, beta = named_problem
        f = FVector(tuple(v + QQI(0, i + 1, 4) for i, v in enumerate(f.x)))
        assert is_nondegenerate(f, S)[0]
        self.assert_routes_agree(S, f, beta, S.rank + offset, monkeypatch)

    @pytest.mark.parametrize("offset", [1, 2, 3])
    def test_complex_beta(self, offset, monkeypatch):
        """The complex beta of p2_z4_cbeta: step right-hand sides over Q(i)."""
        S, f, beta, _ = problem_data(CBETA)
        self.assert_routes_agree(S, f, beta, S.rank + offset, monkeypatch)

    @pytest.mark.parametrize("offset", [4, 6])
    @pytest.mark.parametrize("name", ["z2", "ex51", "p1", "repeated", "g3", "square_z2"])
    def test_steps_above_analyzed_bound(self, name, offset, monkeypatch):
        """Above D0 = rank + 3, the bound analyze reduces its hat spaces at,
        the germs of degrees 0..D0 come off that space and the steps D0..D
        extend them: D - D0 eliminations, and the step route's germs."""
        S, f, beta = make_problem(name)
        self.assert_routes_agree(S, f, beta, S.rank + offset, monkeypatch)

    def test_steps_above_analyzed_bound_complex(self, monkeypatch):
        S, f, beta, _ = problem_data(CBETA)
        f = FVector(tuple(v + QQI(0, i + 1, 4) for i, v in enumerate(f.x)))
        assert is_nondegenerate(f, S)[0]
        self.assert_routes_agree(S, f, beta, S.rank + 5, monkeypatch)

    @staticmethod
    def assert_routes_agree(S, f, beta, D, monkeypatch):
        step = solve_recursion(f, beta, build_semigroup(S.group, S.A), truncation=D)
        D0 = min(D, S.rank + 3)
        hat_quotient_dims(f, beta, S, filtration_bound=D0)
        steps, solve_sparse = [], solver.solve_sparse
        monkeypatch.setattr(solver, "solve_sparse",
                            lambda *a: steps.append(1) or solve_sparse(*a))
        kernel = solve_recursion(f, beta, S, truncation=D)
        assert len(steps) == D - D0
        assert ring._hat_key(f, kernel.beta, D0) not in S._images
        assert kernel.leading == step.leading
        assert_stacks_equal(kernel.stack, step.stack)

    def test_degenerate_point_with_cached_space(self):
        """At the degenerate z2 point the cached hat space has fewer free
        columns than the step kernels, so the step route runs and raises."""
        S, _, _ = make_problem("z2")
        f, beta = FVector((Fraction(1), Fraction(1))), (Fraction(3, 2),)
        hat_quotient_dims(f, beta, S, filtration_bound=3)
        assert ring._hat_key(f, FVector(beta), 3) in S._images
        with pytest.raises(InconsistentSystem, match="degree 1"):
            solve_recursion(f, beta, S, truncation=3)


def solve_by(route, S, f, beta, D):
    """Germs on one of the three routes: the step route at truncation D, the
    kernel route at min(D, rank + 3), and the kernel route up to rank + 3
    followed by steps up to rank + 5."""
    r = S.rank
    if route == "step":
        return solve_recursion(f, beta, build_semigroup(S.group, S.A), truncation=D)
    D = min(D, r + 3) if route == "kernel" else r + 5
    hat_quotient_dims(f, beta, S, filtration_bound=min(D, r + 3))
    return solve_recursion(f, beta, S, truncation=D)


def assert_stack_is_reference(basis):
    """The solved stack is the reference stack that `stack_of` builds from
    the basis' canonical values one by one: the same arrays, and every
    layer's den the least common denominator of its values."""
    tables = tables_of(basis)
    assert_stacks_equal(basis.stack, stack_of(tables))
    assert basis.leading == [t.leading_degree for t in tables]


ROUTES = ("step", "kernel", "kernel+steps")
SEEDED = {name: cli.fixture_path(name) for name in ("p2", "ex52", "square_z2")}
SEEDED["hexagon_seeded"] = os.path.join(GOLDEN, "hexagon_seeded.problem.json")
GOLDEN_PROBLEMS = ("hexagon", "p3", "p2_z4", "p2_z4_cbeta", "hexagon_z2", "seg5_z3")
Z3_PROBLEMS = {"seg5_z3": os.path.join(GOLDEN, "seg5_z3.problem.json"),
               "square_z3": os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                                         "problems", "square_z3.json")}


class TestOneRepresentation:
    """The arrays the solve returns are the reference stack of canonical
    values, on every route and lane."""

    @pytest.mark.parametrize("route", ROUTES)
    def test_fixtures(self, named_problem, route):
        _, S, f, beta = named_problem
        assert_stack_is_reference(solve_by(route, S, f, beta, S.rank + 2))

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("name", GOLDEN_PROBLEMS)
    def test_golden_problems(self, name, route):
        S, f, beta, D = problem_data(os.path.join(GOLDEN, f"{name}.problem.json"))
        basis = solve_by(route, S, f, beta, D)
        assert_stack_is_reference(basis)
        if name == "p2_z4_cbeta":
            assert basis.stack.m == 4 and any(P[1].any() for P, _ in basis.stack.layers)

    @pytest.mark.parametrize("name", sorted(SEEDED))
    def test_seeds(self, name):
        for seed in range(10):
            S, f, beta, D = problem_data(SEEDED[name], seed)
            for route in ROUTES:
                assert_stack_is_reference(solve_by(route, S, f, beta, D or S.rank + 3))

    def test_conjugated_quotient_bases(self):
        """p2_z4's quotient bases under the characters +-i, conjugated as the
        lift reuses them."""
        S, f, beta, D = problem_data(os.path.join(GOLDEN, "p2_z4.problem.json"))
        Q = torsion.build_quotient(S.group, S.A)
        conjugated = 0
        for rho in S.group.characters():
            z = torsion.p_rho(rho, f, Q)
            if z.m == 1:
                continue
            basis = solve_recursion(z, beta, Q.semigroup, truncation=D)
            conj = cli._galois(basis, -1, z.galois(-1))
            assert_stack_is_reference(conj)
            assert [{p: QQI(v).conjugate() for p, v in basis.stack.values(t, k).items()}
                    for t in range(len(basis)) for k in range(D + 1)] == \
                [conj.stack.values(t, k) for t in range(len(conj)) for k in range(D + 1)]
            conjugated += 1
        assert conjugated == 2

    @pytest.mark.parametrize("name", ["seg5_z3", "square_z3"])
    def test_cyclotomic_quotient_bases(self, name, monkeypatch):
        """Quotient bases of Z/3 problems over Q(zeta_3): the kernel route,
        off a hat space reduced over Q(zeta_3), gives the step route's
        arrays; every layer is over the least common denominator of its
        values; and sigma_2 of the basis at p_rho(x) is the basis at
        p_{rho^2}(x), array for array."""
        S, f, beta, D = problem_data(Z3_PROBLEMS[name])
        Q = torsion.build_quotient(S.group, S.A)
        rho1, rho2 = S.group.characters()[1:]
        z1, z2 = (torsion.p_rho(rho, f, Q) for rho in (rho1, rho2))
        assert (z1.m, z2.m) == (3, 3) and z1.galois(2) == z2
        bases = []
        for z in (z1, z2):
            TestKernelRoute.assert_routes_agree(Q.semigroup, z, beta, D, monkeypatch)
            monkeypatch.undo()
            step = solve_recursion(z, beta, Q.semigroup, truncation=D)
            assert step.stack.m == 3 and step.stack.layers[0][0].shape[0] == 2
            for P, den in step.stack.layers:
                assert gcd(den, *P.ravel().tolist()) == 1
            bases.append(step)
        image = cli._galois(bases[0], 2, z2)
        assert image.leading == bases[1].leading
        assert_stacks_equal(image.stack, bases[1].stack)


class TestNoElementHash:
    """The solve and the residual check index germs by layer position: once
    the layers and K_prim are built, they hash no group element."""

    @pytest.mark.parametrize("route", ["step", "kernel"])
    def test_solve_and_residuals(self, named_problem, route, monkeypatch):
        _, S, f, beta = named_problem
        D = S.rank + 3
        for k in range(D + 1):
            S.layer(k)
        k_prim(S)
        if route == "kernel":
            hat_quotient_dims(f, beta, S, filtration_bound=D)

        def refuse(self):
            raise AssertionError("a group element was hashed")

        monkeypatch.setattr(GroupElement, "__hash__", refuse)
        with pytest.raises(AssertionError, match="hashed"):
            tables_of(solve_recursion(f, beta, S, truncation=S.rank + 1))
        basis = solve_recursion(f, beta, S, truncation=D)
        assert len(basis) == S.volume * S.group.torsion_order
        assert check_residuals(basis).all_passed


def reference_restricted_rank(basis):
    """The rank of the germs' canonical values on the interior points of
    degree <= rank, one RowSpace row per germ keyed by group element: the
    dict reader that the array reader replaced."""
    S = basis.semigroup
    cols = (c for k in range(S.rank + 1) for c in S.layer(k, "interior"))
    idx = {c: i for i, c in enumerate(cols)}
    space = RowSpace()
    for t in tables_of(basis):
        add_values(space, {idx[c]: v for c, v in t.entries.items() if c in idx})
    return space.rank


class TestRestriction:
    def test_three_way_at_beta_zero(self, named_problem):
        _, S, f, _ = named_problem
        r = S.rank
        beta0 = (Fraction(0),) * r
        basis = solve_recursion(f, beta0, S, truncation=r + 1)
        assert restricted_rank(basis) == r1_dims(f, S).total

    def test_complex_x(self, named_problem):
        """At a complex x the germs are complex (but for ex51's, 1 at degree
        0 and 0 above), and the interior columns of both parts enter the
        rank."""
        _, S, f, _ = named_problem
        f = FVector(tuple(v + QQI(0, i + 1, 4) for i, v in enumerate(f.x)))
        basis = solve_recursion(f, (Fraction(0),) * S.rank, S, truncation=S.rank + 1)
        assert restricted_rank(basis) == reference_restricted_rank(basis) \
            == r1_dims(f, S).total


    def test_reads_both_parts(self):
        """Hand-built p1 germs, equal in their real and opposite in their
        imaginary parts on two interior points: rank 2, which the real parts
        alone would give as 1."""
        S, f, _ = make_problem("p1")
        a, b = [c for k in range(S.rank + 1) for c in S.layer(k, "interior")][:2]
        beta = (QQI(0),) * S.rank
        basis = basis_of([LambdaTable(S, f.x, beta, S.rank, {a: QQI(1),
                                                             b: QQI(0, s)}, 1)
                          for s in (1, -1)])
        assert restricted_rank(basis) == reference_restricted_rank(basis) == 2


class TestResiduals:
    @pytest.mark.parametrize("name", ["z2", "ex51", "p1", "repeated"])
    def test_recursion_identity_and_orders(self, name):
        S, f, beta = make_problem(name)
        basis = solve_recursion(f, beta, S, truncation=S.rank + 3)
        report = check_residuals(basis)
        assert report.shift_identity_exact
        assert all(c.passed for c in report.checks)
        assert report.all_passed

    def test_comparison_radius(self):
        assert comparison_radius((2.0, 1.0)) == 1.0 / 8
        assert comparison_radius((0.0, 2.0)) == 2.0 / 8
        with pytest.raises(ValueError):
            comparison_radius((0, 0))

    def test_zero_coordinate_is_not_vacuous(self):
        """x = (0, 1, 2, 3) is nondegenerate for p2; the zero coordinate
        must not make the step size, and with it every residual, zero."""
        S, _, beta = make_problem("p2")
        f = FVector((0, 1, 2, 3))
        assert is_nondegenerate(f, S)[0]
        basis = solve_recursion(f, beta, S, truncation=6)
        report = check_residuals(basis)
        assert report.all_passed
        assert len(report.checks) == 45
        assert sum(1 for c in report.checks if c.orders) == 41

    @pytest.mark.parametrize("name,seed", [("p2", 9), ("p2", 45),
                                           ("square_z2", 5), ("ex52", 63)])
    def test_roundoff_floor_is_no_failure(self, name, seed):
        """A pair whose smaller-step residual is under the roundoff floor has
        no meaningful order and only has to decrease; at these seeds the
        order test alone would fail on that noise."""
        report = check_residuals(fixture_basis(name, seed))
        assert report.all_passed
        assert any(c.orders and min(c.residuals) < 1e-13 for c in report.checks)

    def test_corrupted_entry_fails_despite_floor(self):
        basis = fixture_basis("p2", 9)
        S = basis.semigroup
        tables = tables_of(basis)
        t = tables[0]
        c = next(c for c in S.layer(1) if c in t.entries)
        t.entries[c] = t.entries[c] * QQI(1001, 0, 1000)
        report = check_residuals(basis_of(tables))
        assert not report.shift_identity_exact
        assert any(not c.passed for c in report.checks)

    def test_corrupted_table_fails(self):
        S, f, beta = make_problem("z2")
        basis = solve_recursion(f, beta, S, truncation=4)
        c = S.group.element((1,), (0,))
        tables = tables_of(basis)
        tables[0].entries[c] = tables[0].entries[c] + 1
        report = check_residuals(basis_of(tables))
        assert not report.all_passed


class TestBatchedResiduals:
    """check_residuals against the per-check reference: the same checks,
    passed flags and vacuous class, and residuals within BOUND times the
    germ's scale (see assert_residuals_match)."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
    @pytest.mark.parametrize("offset", [1, 2, 3])
    def test_fixtures(self, name, offset):
        S, f, beta = make_problem(name)
        basis = solve_recursion(f, beta, S, truncation=S.rank + offset)
        assert_residuals_match(basis)

    @pytest.mark.parametrize("name,seed", [("p2", 9), ("p2", 45),
                                           ("square_z2", 5), ("ex52", 63)])
    def test_roundoff_seeds(self, name, seed):
        assert_residuals_match(fixture_basis(name, seed))

    def test_complex_beta(self):
        S, f, beta, D = problem_data(CBETA)
        basis = solve_recursion(f, beta, S, truncation=D)
        assert any(b.b for b in basis.beta)
        assert assert_residuals_match(basis).all_passed

    def test_corrupted_entry(self):
        basis = fixture_basis("p2", 9)
        tables = tables_of(basis)
        t = tables[1]
        c = next(c for c in basis.semigroup.layer(2) if c in t.entries)
        t.entries[c] = t.entries[c] * QQI(1001, 1, 1000)
        assert not assert_residuals_match(basis_of(tables)).all_passed

    def test_germ_floats_round_like_complex(self):
        """A germ float is its numerator over the layer's denominator by int
        division, so it equals complex() of the exact value also where the
        numerators pass 2**53 or the float range."""
        S, f, beta = make_problem("g3")
        tables = tables_of(solve_recursion(f, beta, S, truncation=3))
        entries = tables[0].entries
        entries[S.layer(1)[0]] = QQI(10**400 + 7, -(3 * 10**399 + 1), 3 * 10**400)
        entries[S.layer(1)[1]] = QQI(2**60 + 1, 2**58 + 3, 7)
        basis = basis_of(tables)
        re, im = solver._germ_floats(basis.stack)
        points = [c for k in range(4) for c in S.layer(k)]
        want = [[complex(t.entries.get(c, 0)) for c in points] for t in tables]
        assert re.tolist() == [[v.real for v in row] for row in want]
        assert im.tolist() == [[v.imag for v in row] for row in want]
        assert_residuals_match(basis)

    def test_one_stack_and_float_array(self, monkeypatch):
        """One check reads the basis' own GermStack, builds one float germ
        array and evaluates the series once for all three step sizes."""
        calls = {"stack": 0, "floats": 0, "series": 0}
        defects, floats, series = solver.recursion_defects, solver._germ_floats, solver._series

        def count_defects(stack):
            calls["stack"] += stack is basis.stack
            return defects(stack)

        def count_floats(stack):
            calls["floats"] += stack is basis.stack
            return floats(stack)

        def count_series(S, D, lam, dzs):
            calls["series"] += 1
            assert len(dzs) == 3
            return series(S, D, lam, dzs)

        monkeypatch.setattr(solver, "recursion_defects", count_defects)
        monkeypatch.setattr(solver, "_germ_floats", count_floats)
        monkeypatch.setattr(solver, "_series", count_series)
        S, f, beta = make_problem("p2")
        basis = solve_recursion(f, beta, S, truncation=S.rank + 3)
        assert check_residuals(basis).all_passed
        assert calls == {"stack": 1, "floats": 1, "series": 1}


class TestRepetitionCollapse:
    def test_tables_depend_on_coefficient_sum(self):
        """Repeated generators only enter through the sum of their x's."""
        S, _, beta = make_problem("repeated")
        delta = Fraction(1, 2)
        a = solve_recursion(FVector((Fraction(2), Fraction(1), Fraction(3))),
                            beta, S, truncation=5)
        b = solve_recursion(
            FVector((Fraction(2) + delta, Fraction(1) - delta, Fraction(3))),
            beta, S, truncation=5)
        assert a.leading == b.leading
        assert_stacks_equal(a.stack, dataclasses.replace(b.stack, base_x=a.stack.base_x))
