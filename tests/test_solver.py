"""Degree-by-degree recursion: closed forms, dimensions, and residuals."""

import os
import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from bbgkz import cli, ring, solver, torsion
from bbgkz.abelian import GroupElement
from bbgkz.linalg import RowSpace
from bbgkz.polyhedral import build_semigroup
from bbgkz.ring import (FVector, hat_quotient_dims, is_nondegenerate, jacobian_dims,
                        r1_dims)
from bbgkz.solver import InconsistentSystem, filtration_dims, recursion_defects, solve_recursion
from conftest import (FIXTURE_BUILDERS, QQI, LambdaTable, add_values, assert_leading_degrees,
                      assert_stacks_equal, make_problem, qqi_entries, qqi_values,
                      reference_series, replaced, restricted_rank, stack_of, tables_of)
from test_torsion import defect_sets, reference_defect_sets

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CBETA = os.path.join(GOLDEN, "p2_z4_cbeta.problem.json")


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


def identities(basis):
    """The recursion identities of a basis: one per germ, point of layers
    0..truncation - 1 and covector."""
    S = basis.semigroup
    return len(basis) * sum(len(S.layer(k)) for k in range(basis.truncation)) * S.rank


def has_defect(basis):
    return any(any(defect) for _, defect in recursion_defects(basis))


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
                got = reference_series(t, c0, z)
                assert abs(got - want) < 1e-9


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
        eliminates no step, returns the step route's germs, list for list
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
        f = FVector(tuple(v + QQI(0, i + 1, 4) for i, v in enumerate(qqi_entries(f))))
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
        f = FVector(tuple(v + QQI(0, i + 1, 4) for i, v in enumerate(qqi_entries(f))))
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
        assert_stacks_equal(kernel, step)
        # every layer in lowest terms, over the one denominator of its values
        for P, den in kernel.layers + step.layers:
            assert gcd(den, *chain.from_iterable(P)) == 1

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
    the basis' canonical values one by one: the same lists, and every
    layer's den the least common denominator of its values."""
    tables = tables_of(basis)
    assert_stacks_equal(basis, stack_of(tables))
    assert basis.leading == [t.leading_degree for t in tables]


ROUTES = ("step", "kernel", "kernel+steps")
SEEDED = {name: cli.fixture_path(name) for name in ("p2", "ex52", "square_z2")}
SEEDED["hexagon_seeded"] = os.path.join(GOLDEN, "hexagon_seeded.problem.json")
GOLDEN_PROBLEMS = ("hexagon", "p3", "p2_z4", "p2_z4_cbeta", "hexagon_z2", "seg5_z3")
Z3_PROBLEMS = {"seg5_z3": os.path.join(GOLDEN, "seg5_z3.problem.json"),
               "square_z3": os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                                         "problems", "square_z3.json")}


class TestLeadingDegrees:
    """A solve's leading degrees are where its germs start, on both routes.
    `test_torsion.test_lift_keeps_leading_degrees` checks Galois images and
    lifts."""

    @pytest.mark.parametrize("route", ROUTES)
    def test_routes(self, named_problem, route):
        _, S, f, beta = named_problem
        assert_leading_degrees(solve_by(route, S, f, beta, S.rank + 2))


class TestOneRepresentation:
    """The layer lists the solve returns are the reference stack of canonical
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
            assert basis.m == 4 and any(any(P[1]) for P, _ in basis.layers)

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
            assert [{p: v.conjugate() for p, v in qqi_values(basis, t, k).items()}
                    for t in range(len(basis)) for k in range(D + 1)] == \
                [qqi_values(conj, t, k) for t in range(len(conj)) for k in range(D + 1)]
            conjugated += 1
        assert conjugated == 2

    @pytest.mark.parametrize("name", ["seg5_z3", "square_z3"])
    def test_cyclotomic_quotient_bases(self, name, monkeypatch):
        """Quotient bases of Z/3 problems over Q(zeta_3): the kernel route,
        off a hat space reduced over Q(zeta_3), gives the step route's
        lists; every layer is over the least common denominator of its
        values; and sigma_2 of the basis at p_rho(x) is the basis at
        p_{rho^2}(x), list for list."""
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
            assert step.m == 3 and len(step.layers[0][0]) == 2
            for P, den in step.layers:
                assert gcd(den, *P[0], *P[1]) == 1
            bases.append(step)
        image = cli._galois(bases[0], 2, z2)
        assert image.leading == bases[1].leading
        assert_stacks_equal(image, bases[1])


class TestNoElementHash:
    """The solve and the recursion check index germs by layer position: once
    the layers are built, they hash no group element."""

    @pytest.mark.parametrize("route", ["step", "kernel"])
    def test_solve_and_residuals(self, named_problem, route, monkeypatch):
        _, S, f, beta = named_problem
        D = S.rank + 3
        for k in range(D + 1):
            S.layer(k)
        if route == "kernel":
            hat_quotient_dims(f, beta, S, filtration_bound=D)

        def refuse(self):
            raise AssertionError("a group element was hashed")

        monkeypatch.setattr(GroupElement, "__hash__", refuse)
        with pytest.raises(AssertionError, match="hashed"):
            tables_of(solve_recursion(f, beta, S, truncation=S.rank + 1))
        basis = solve_recursion(f, beta, S, truncation=D)
        assert len(basis) == S.volume * S.group.torsion_order
        assert not has_defect(basis)


def reference_restricted_rank(basis):
    """The rank of the germs' canonical values on the interior points of
    degree <= rank, one RowSpace row per germ keyed by group element: the
    dict reader that the layer reader replaced."""
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
        f = FVector(tuple(v + QQI(0, i + 1, 4) for i, v in enumerate(qqi_entries(f))))
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
        basis = stack_of([LambdaTable(S, qqi_entries(f), beta, S.rank, {a: QQI(1),
                                                             b: QQI(0, s)}, 1)
                          for s in (1, -1)])
        assert restricted_rank(basis) == reference_restricted_rank(basis) == 2


class TestResiduals:
    @pytest.mark.parametrize("name", ["z2", "ex51", "p1", "repeated"])
    def test_recursion_identity_and_orders(self, name):
        """At truncation orders rank + 1 to rank + 3 every identity is
        tested, once, and holds exactly."""
        S, f, beta = make_problem(name)
        for D in range(S.rank + 1, S.rank + 4):
            basis = solve_recursion(f, beta, S, truncation=D)
            defects = [defect for _, defect in recursion_defects(basis)]
            assert sum(map(len, defects)) == identities(basis)
            assert not any(map(any, defects))

    def test_zero_coordinate_is_not_vacuous(self):
        """x = (0, 1, 2, 3) is nondegenerate for p2; the zero coordinate
        drops its generator from every sum, but one off value of a germ is
        still a defect of that germ alone."""
        S, _, beta = make_problem("p2")
        f = FVector((0, 1, 2, 3))
        assert is_nondegenerate(f, S)[0]
        basis = solve_recursion(f, beta, S, truncation=6)
        assert not has_defect(basis)
        tables = tables_of(basis)
        c = next(c for c in S.layer(2) if c in tables[0].entries)
        tables[0].entries[c] += 1
        assert [bool(d) for d in defect_sets(stack_of(tables))] == \
            [True] + [False] * (len(tables) - 1)

    @pytest.mark.parametrize("name,seed", [("p2", 9), ("p2", 45), ("square_z2", 5),
                                           ("ex52", 63), ("hexagon_seeded", 14)])
    def test_roundoff_floor_is_no_failure(self, name, seed):
        """solve,residuals at seeded base points, chosen where a float order
        test of the series failed on roundoff: each run tests identities,
        finds them exact and exits 0."""
        report, code = cli.run(SEEDED[name], tasks=["solve", "residuals"], seed=seed,
                               timings=False)
        assert code == 0
        assert report["residuals"]["recursion_identity_exact"]
        assert report["residuals"]["identities_checked"] > 0

    def test_corrupted_entry_fails_despite_floor(self):
        """p2 at seed 9: a relative change of 1/1000 in one value, however
        small against float roundoff, is a defect of that germ alone."""
        basis = fixture_basis("p2", 9)
        S = basis.semigroup
        tables = tables_of(basis)
        t = tables[0]
        c = next(c for c in S.layer(1) if c in t.entries)
        t.entries[c] = t.entries[c] * QQI(1001, 0, 1000)
        assert not has_defect(basis)
        assert [bool(d) for d in defect_sets(stack_of(tables))] == \
            [True] + [False] * (len(tables) - 1)

    def test_corrupted_table_fails(self):
        S, f, beta = make_problem("z2")
        basis = solve_recursion(f, beta, S, truncation=4)
        c = S.group.element((1,), (0,))
        tables = tables_of(basis)
        tables[0].entries[c] = tables[0].entries[c] + 1
        assert has_defect(stack_of(tables))


def assert_defects_match(basis):
    """recursion_defects against the per-term reference of test_torsion, on
    the germs as they are and with one value of the last germ off: the same
    (c, j) per germ, and a defect only in the changed germ."""
    tables = tables_of(basis)
    assert defect_sets(basis) == reference_defect_sets(tables) == [set()] * len(tables)
    t = tables[-1]
    c = max(t.entries, key=t.degree)
    t.entries[c] = t.entries[c] * QQI(1001, 1, 1000)
    got = defect_sets(stack_of(tables))
    assert got == reference_defect_sets(tables, near=c)
    assert [bool(d) for d in got] == [False] * (len(tables) - 1) + [True]


class TestBatchedResiduals:
    """recursion_defects, which checks every identity of a stack in one pass
    over its layer lists, against the per-term reference in QQI arithmetic
    (see assert_defects_match)."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
    @pytest.mark.parametrize("offset", [1, 2, 3])
    def test_fixtures(self, name, offset):
        S, f, beta = make_problem(name)
        assert_defects_match(solve_recursion(f, beta, S, truncation=S.rank + offset))

    @pytest.mark.parametrize("name,seed", [("p2", 9), ("p2", 45),
                                           ("square_z2", 5), ("ex52", 63)])
    def test_roundoff_seeds(self, name, seed):
        """The seeds of test_roundoff_floor_is_no_failure."""
        assert_defects_match(fixture_basis(name, seed))

    def test_complex_beta(self):
        S, f, beta, D = problem_data(CBETA)
        basis = solve_recursion(f, beta, S, truncation=D)
        assert any(b.b for b in qqi_entries(basis.beta))
        assert_defects_match(basis)

    def test_corrupted_entry(self):
        basis = fixture_basis("p2", 9)
        tables = tables_of(basis)
        t = tables[1]
        c = next(c for c in basis.semigroup.layer(2) if c in t.entries)
        t.entries[c] = t.entries[c] * QQI(1001, 1, 1000)
        got = defect_sets(stack_of(tables))
        assert got == reference_defect_sets(tables, near=c)
        assert [bool(d) for d in got] == [False, True] + [False] * (len(tables) - 2)


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
        assert_stacks_equal(a, replaced(b, base_x=a.base_x))


class TestTracerViews:
    """`FVector[i]` and `GermStack.tables`, which no report reads: the
    benchmark's tracer counts a lift as exact when every entry of its base
    point has a `d`, and takes `coeff_bits_max` from the `a`, `b` and `d` of
    the table entries.  Over Q and Q(i) both give each value's canonical
    (a, b, d), (a + b i)/d, as the QQI oracle has it; over another field the
    tables hold the parts, which the tracer skips."""

    @staticmethod
    def abd(v):
        return v.a, v.b, v.d

    @pytest.mark.parametrize("name", ["p2_z4_cbeta", "hexagon"])
    def test_views_are_canonical(self, name):
        S, f, beta, D = problem_data(os.path.join(GOLDEN, f"{name}.problem.json"))
        basis = solve_recursion(f, beta, S, truncation=D)
        assert basis.m == beta.m == (4 if name == "p2_z4_cbeta" else 1)
        for vec in (f, beta):
            assert [self.abd(v) for v in vec] == [self.abd(q) for q in qqi_entries(vec)]
        tables = basis.tables
        assert len(tables) == len(basis) and all(t.entries for t in tables)
        for t, table in enumerate(tables):
            assert {key: self.abd(v) for key, v in table.entries.items()} == \
                {(k, p): self.abd(q) for k in range(D + 1)
                 for p, q in qqi_values(basis, t, k).items()}

    def test_other_fields_have_no_view(self):
        """g3's quotient point of a character of order 3 is over Q(zeta_3)."""
        S, f, beta = make_problem("g3")
        Q = torsion.build_quotient(S.group, S.A)
        z = torsion.p_rho(S.group.characters()[1], f, Q)
        with pytest.raises(ValueError):
            z[0]
        basis = solve_recursion(z, beta, Q.semigroup, truncation=2)
        assert basis.m == 3
        assert not any(hasattr(v, "d") for t in basis.tables for v in t.entries.values())
