"""Degree-by-degree recursion: closed forms, dimensions, and residuals."""

import random
from fractions import Fraction

import pytest

from bbgkz.abelian import AbelianGroup
from bbgkz.linalg import GaussianRational
from bbgkz.polyhedral import build_semigroup, normalized_volume
from bbgkz.ring import FVector, jacobian_dims, r1_dims
from bbgkz.solver import (InconsistentSystem, check_residuals, comparison_radius,
                          evaluate_series, filtration_dims,
                          restricted_solution_rank, solve_recursion)
from conftest import make_problem


class TestClosedForms:
    def test_single_ray_falling_factorial(self):
        """K = Z>=0 with one generator: lambda_k = prod_{j<k}(beta-j) / x^k."""
        S, f, _ = make_problem("ex51")
        beta = Fraction(5, 2)
        basis = solve_recursion(f, (beta,), S, truncation=5)
        assert len(basis) == 1
        t = basis.tables[0]
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
        for t in basis.tables:
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
        for t in basis.tables:
            def g(k, c):
                return complex(t.entries.get(S.group.element((k,), (c,)), 0))
            alpha = (g(0, 0) + g(0, 1)) / 2 / (x1 + x2) ** bf
            gamma = (g(0, 0) - g(0, 1)) / 2 / (x1 - x2) ** bf
            for dz in [(0.004, -0.003), (0.01, 0.006), (-0.005, 0.002)]:
                z = (x1 + dz[0], x2 + dz[1])
                want = alpha * (z[0] + z[1]) ** bf + gamma * (z[0] - z[1]) ** bf
                got = evaluate_series(t, c0, z)
                assert abs(got - want) < 1e-9


class TestDimensions:
    def test_count_equals_volume_times_torsion(self, named_problem):
        _, S, f, beta = named_problem
        basis = solve_recursion(f, beta, S, truncation=S.rank + 1)
        assert len(basis) == normalized_volume(S.A) * S.group.torsion_order

    def test_beta_independence(self, named_problem):
        _, S, f, _ = named_problem
        r = S.rank
        expected = normalized_volume(S.A) * S.group.torsion_order
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
        leads = [t.leading_degree for t in basis.tables]
        assert leads == sorted(leads)

    def test_truncation_validation(self):
        S, f, beta = make_problem("p1")
        with pytest.raises(ValueError):
            solve_recursion(f, beta, S, truncation=S.rank)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_degenerate_point_is_inconsistent(self, backend):
        """At x = (1, 1) the Z/2 problem is degenerate (x1 - x2 = 0): both
        degree-0 equations have the same left side, so a germ must take equal
        values at the two degree-0 points, which the unit germs do not."""
        S, _, _ = make_problem("z2")
        with pytest.raises(InconsistentSystem, match="degree 1"):
            solve_recursion((Fraction(1), Fraction(1)), (Fraction(3, 2),), S,
                            truncation=3, backend=backend)


class TestRestriction:
    def test_three_way_at_beta_zero(self, named_problem):
        _, S, f, _ = named_problem
        r = S.rank
        beta0 = (Fraction(0),) * r
        basis = solve_recursion(f, beta0, S, truncation=r + 1)
        assert restricted_solution_rank(basis) == r1_dims(f, S).total


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

    def test_corrupted_table_fails(self):
        S, f, beta = make_problem("z2")
        basis = solve_recursion(f, beta, S, truncation=4)
        c = S.group.element((1,), (0,))
        basis.tables[0].entries[c] = basis.tables[0].entries[c] + 1
        report = check_residuals(basis)
        assert not report.all_passed


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
        assert len(a) == len(b)
        for ta, tb in zip(a.tables, b.tables):
            assert ta.entries == tb.entries


class TestFloatBackend:
    def test_matches_exact_lane(self):
        S, f, beta = make_problem("p1")
        exact = solve_recursion(f, beta, S, truncation=4)
        approx = solve_recursion([complex(v) for v in f.x],
                                 [complex(b) for b in beta], S,
                                 truncation=4, backend="float")
        assert len(exact) == len(approx)
        # spans agree: every float table is reproduced by the exact germs
        # entrywise up to the backend's own basis choice, so compare ranks
        from bbgkz.torsion import independence_count
        assert independence_count(list(exact.tables) + list(approx.tables)) \
            == len(exact)
