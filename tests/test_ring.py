"""Graded quotient dimensions at a fixed coefficient vector.

The frozen per-degree tables below were derived from the layer sizes and
image ranks by hand for the small fixtures (e.g. the square cone has layer
sizes 1, 4, 9, ... and three independent relations per point) and are pinned
here; structural identities (duality, interior pairing, stabilization) are
checked on every fixture.
"""

from fractions import Fraction

import pytest

from bbgkz import cli, ring
from bbgkz.linalg import RowSpace
from bbgkz.polyhedral import build_semigroup
from bbgkz.ring import (FVector, NondegeneracyRetriesExhausted, certifies, hat_quotient_dims,
                        hat_restriction_rank, is_nondegenerate, jacobian_dims, r1_dims,
                        random_rational_x, _image_rows)
from bbgkz.solver import filtration_dims, solve_recursion
from conftest import QQI, make_problem, qqi_entries, reference_interior_rank, slot_values

# per-degree dimensions of C[K]_k modulo the log-derivative image,
# degrees 0..rank+1, at the conftest base points
JACOBIAN_FULL = {
    "z2": (2, 0, 0),
    "ex51": (1, 0, 0),
    "ex52": (1, 1, 0, 0, 0),
    "p1": (1, 1, 0, 0),
    "p2": (1, 1, 1, 0, 0),
    "square_z2": (2, 2, 0, 0, 0),
    "repeated": (1, 0, 0, 0),
    "g3": (3, 0, 0),
}
JACOBIAN_INTERIOR = {
    "z2": (0, 2, 0),
    "ex51": (0, 1, 0),
    "ex52": (0, 0, 1, 1, 0),
    "p1": (0, 1, 1, 0),
    "p2": (0, 1, 1, 1, 0),
    "square_z2": (0, 0, 2, 2, 0),
    "repeated": (0, 0, 1, 0),
    "g3": (0, 3, 0),
}
R1_PER_DEGREE = {
    "z2": (0, 0, 0),
    "ex51": (0, 0, 0),
    "ex52": (0, 0, 0, 0, 0),
    "p1": (0, 1, 0, 0),
    "p2": (0, 1, 1, 0, 0),
    "square_z2": (0, 0, 0, 0, 0),
    "repeated": (0, 0, 0, 0),
    "g3": (0, 0, 0),
}


class TestImageRows:
    def test_z2_degree_one_rows(self):
        """The generators times X, the lcm of the denominators of x, as
        integer parts: one for a real x, the real and imaginary ones for a
        complex one."""
        S, f, _ = make_problem("z2")
        assert qqi_entries(f) == (QQI(2), QQI(1)) and (f.m, f.parts, f.den) == (1, ((2, 1),), 1)
        rows = _image_rows(f, S, 1)
        assert rows == [({0: 2, 1: 1},), ({0: 1, 1: 2},)]
        rows = _image_rows(FVector((Fraction(1, 2), Fraction(-2, 3))), S, 1)
        assert rows == [({0: 3, 1: -4},), ({0: -4, 1: 3},)]
        assert all(type(v) is int for row in rows for v in row[0].values())
        rows = _image_rows(FVector((QQI(1, 1, 2), Fraction(1, 3))), S, 1)
        assert rows == [({0: 3, 1: 2}, {0: 3}), ({0: 2, 1: 3}, {1: 3})]

    @pytest.mark.parametrize("name,x", [("p2", (0, 1, 2, 3)),
                                        ("repeated", (2, -2, 3)),
                                        ("repeated", (0, Fraction(1, 2), 3))])
    def test_no_explicit_zeros(self, name, x):
        """A zero x_i and the cancelling terms of repeated generators leave no
        explicit 0 in the operator rows, nor in the hat rows built on them."""
        S, _, beta = make_problem(name)
        f = FVector(x)
        for k in range(1, S.rank + 3):
            rows = _image_rows(f, S, k)
            assert len(rows) == S.rank * len(S.layer(k - 1))
            assert all(v for row in rows for part in row for v in part.values())
        hat = ring._hat_rows(f, FVector(beta), S, S.rank + 1)
        assert all(v for row in hat for part in row for v in part.values())
        if name == "repeated" and x[0]:
            # x1 + x2 = 0: the repeated generators' terms cancel, leaving
            # the row of covector 0 empty and x3 alone in that of covector 1
            assert [len(row[0]) for row in _image_rows(f, S, 1)] == [0, 1]

    def test_shape_follows_layers(self):
        S, f, _ = make_problem("ex52")
        rows = _image_rows(f, S, 2)
        assert len(rows) == S.rank * len(S.layer(1))
        assert all(0 <= col < len(S.layer(2)) for row in rows for col in row[0])


class TestJacobianDims:
    def test_frozen_full(self, named_problem):
        name, S, f, _ = named_problem
        jac = jacobian_dims(f, S, S.rank + 1)
        assert jac.per_degree == JACOBIAN_FULL[name]

    def test_frozen_interior(self, named_problem):
        name, S, f, _ = named_problem
        jac = jacobian_dims(f, S, S.rank + 1, region="interior")
        assert jac.per_degree == JACOBIAN_INTERIOR[name]

    def test_total_is_volume_times_torsion(self, named_problem):
        _, S, f, _ = named_problem
        jac = jacobian_dims(f, S, S.rank + 1)
        assert jac.total == S.volume * S.group.torsion_order

    def test_interior_total_matches_full(self, named_problem):
        """Poincare-type pairing: interior and full quotients agree in total."""
        _, S, f, _ = named_problem
        full = jacobian_dims(f, S, S.rank + 1)
        inner = jacobian_dims(f, S, S.rank + 1, region="interior")
        assert inner.total == full.total
        # interior graded pieces mirror the full ones: dim_k' = dim_{r-k}
        r = S.rank
        for k in range(r + 1):
            assert inner.per_degree[k] == full.per_degree[r - k]


class TestImageCache:
    def test_each_image_reduced_once(self, monkeypatch):
        """is_nondegenerate, jacobian_dims and r1_dims share one reduction
        per (x, degree, region), keyed on the numerators of x; r1_dims only
        reads it, so the shared one stays as it was."""
        S, f, _ = make_problem("p2")
        S, r = build_semigroup(S.group, S.A), S.rank
        calls = []
        build = ring._image_rows
        monkeypatch.setattr(ring, "_image_rows",
                            lambda *args: calls.append(args[2:]) or build(*args))
        assert is_nondegenerate(f, S)[0]
        jac = slot_values(jacobian_dims(f, S, r + 1))
        assert slot_values(jacobian_dims(FVector(qqi_entries(f)), S, r + 1)) == jac
        assert slot_values(r1_dims(f, S)) == slot_values(r1_dims(f, S))
        assert slot_values(jacobian_dims(f, S, r + 1)) == jac
        assert sorted(calls) == [(k, "full") for k in range(r + 2)]

    @pytest.mark.parametrize("name", ["p2", "square_z2"])
    def test_hat_base_reduced_once(self, name, monkeypatch):
        """Each (x, beta, D) hat space is reduced once and cached;
        hat_restriction_rank only reads it, so repeated calls agree with a
        fresh semigroup."""
        S0, f, beta = make_problem(name)
        r = S0.rank

        def dims(S):
            return (slot_values(hat_quotient_dims(f, (0,) * r, S, filtration_bound=r + 2)),
                    hat_restriction_rank(f, S, filtration_bound=r + 2),
                    slot_values(hat_quotient_dims(f, beta, S, filtration_bound=r + 2)))

        want = dims(build_semigroup(S0.group, S0.A))
        S = build_semigroup(S0.group, S0.A)
        calls = []
        build = ring._hat_rows
        monkeypatch.setattr(ring, "_hat_rows",
                            lambda *args: calls.append(any(map(any, args[1].parts)))
                            or build(*args))
        for _ in range(2):
            assert dims(S) == want
        assert sorted(calls) == [False, True]


class TestNondegeneracy:
    def test_z2_good_and_bad_points(self):
        S, _, _ = make_problem("z2")
        ok, dims = is_nondegenerate(FVector((Fraction(2), Fraction(1))), S)
        assert ok and dims.total == sum(S.h_star) == 2
        # x1 = x2 collapses the two eigendirections
        bad, dims = is_nondegenerate(FVector((Fraction(1), Fraction(1))), S)
        assert not bad
        assert not certifies(dims.per_degree, S)

    def test_quotient_dims_are_h_star(self, named_problem):
        """For nondegenerate x the quotient dims are h* degree by degree."""
        _, S, f, _ = named_problem
        assert jacobian_dims(f, S, S.rank + 1).per_degree == S.h_star + (0,)

    def test_certificate_needs_each_degree(self):
        """A count moved from degree 1 to 0 keeps the total and the zero tail
        and still fails the certificate; so does a count at degree rank + 1."""
        S, f, _ = make_problem("p2")
        dims = list(jacobian_dims(f, S, S.rank + 1).per_degree)
        dims[0], dims[1] = dims[0] + 1, dims[1] - 1
        assert sum(dims) == sum(S.h_star) and not any(dims[S.rank + 1:])
        assert not certifies(dims, S)
        assert certifies(S.h_star + (0,), S) and not certifies(S.h_star + (1,), S)

    def test_certificate_records_tail(self):
        S, f, _ = make_problem("p1")
        ok, dims = is_nondegenerate(f, S)
        assert ok and not any(dims.per_degree[S.rank + 1:])

    def test_certificate_of_solve_filtration(self, named_problem):
        """A solve's kernel counts are the quotient dims, so its filtration,
        cut at rank + 1, gives is_nondegenerate's dims and certifies."""
        _, S, f, beta = named_problem
        basis = solve_recursion(f, beta, S, truncation=S.rank + 3)
        filt = filtration_dims(basis).per_degree[:S.rank + 2]
        assert filt == is_nondegenerate(f, S)[1].per_degree
        assert certifies(filt, S) and len(filt) == S.rank + 2

    def test_zero_vector_degenerate(self, named_problem):
        _, S, _, _ = named_problem
        zero = FVector((Fraction(0),) * len(S.A))
        ok, _ = is_nondegenerate(zero, S)
        assert not ok


class TestDualKernel:
    def test_matches_jacobian(self, named_problem):
        """The report's dual_kernel dims, the adjoint kernel of the rows of
        the Jacobian dims, are those dims; the interior ones are them
        reversed, from eliminations over other layers."""
        _, S, f, beta = named_problem
        report = {}
        spec = type("Spec", (), {"beta": beta})
        cli._task_analyze(spec, S, f, S.rank + 3, report, [])
        dims, r = report["dims"], S.rank
        assert dims["dual_kernel"] == dims["jacobian_full"]
        full, inner = dims["jacobian_full"]["per_degree"], dims["jacobian_interior"]["per_degree"]
        assert inner[:r + 1] == full[r::-1] and full[r + 1] == inner[r + 1] == 0


class TestHatQuotient:
    def test_z2_beta_values(self):
        S, f, _ = make_problem("z2")
        for beta in [(Fraction(0),), (Fraction(3, 2),), (Fraction(-7, 3),)]:
            hat = hat_quotient_dims(f, beta, S)
            assert hat.per_degree == (2, 0, 0)

    def test_total_beta_independent(self, named_problem):
        name, S, f, beta = named_problem
        r = S.rank
        jac_total = jacobian_dims(f, S, r + 1).total
        betas = [beta, (Fraction(0),) * r,
                 tuple(Fraction(k + 1, k + 2) for k in range(r))]
        for b in betas:
            hat = hat_quotient_dims(f, b, S)
            assert hat.total == jac_total

    def test_graded_matches_jacobian(self, named_problem):
        name, S, f, beta = named_problem
        hat = hat_quotient_dims(f, beta, S)
        assert hat.per_degree[:S.rank + 2] == JACOBIAN_FULL[name]

    def test_stabilization(self):
        for name in ["z2", "p1", "ex52"]:
            S, f, beta = make_problem(name)
            r = S.rank
            small = hat_quotient_dims(f, beta, S, filtration_bound=r + 1)
            large = hat_quotient_dims(f, beta, S, filtration_bound=r + 3)
            assert small.total == large.total
            assert large.per_degree[:r + 2] == small.per_degree

    def test_bound_validation(self):
        """Both hat-space readers refuse a bound below rank + 1."""
        S, f, beta = make_problem("p1")
        with pytest.raises(ValueError, match="at least rank"):
            hat_quotient_dims(f, beta, S, filtration_bound=S.rank)
        with pytest.raises(ValueError, match="at least rank"):
            hat_restriction_rank(f, S, filtration_bound=S.rank)


def reference_hat_dims(f, beta, S, D):
    """The old count: jumps of the rank as the unit vectors of each degree,
    lowest first, join the hat rows."""
    space = RowSpace(key=lambda c: -c)
    for row in ring._hat_rows(f, FVector(beta), S, D - 1):
        space.add(row, 4)
    pos, per_degree = 0, []
    for k in range(D + 1):
        n = len(S.layer(k))
        per_degree.append(sum(space.add([{c: 1}]) for c in range(pos, pos + n)))
        pos += n
    return tuple(per_degree)


class TestHatDimsFromPivots:
    # the hat quotient is taken over the full cone only
    @pytest.mark.parametrize("offset", [1, 3], ids=["1-full", "3-full"])
    def test_matches_unit_vector_count(self, named_problem, offset):
        _, S, f, beta = named_problem
        D = S.rank + offset
        for b in (beta, (0,) * S.rank):
            assert hat_quotient_dims(f, b, S, filtration_bound=D).per_degree \
                == reference_hat_dims(f, b, S, D)


class TestR1:
    def test_frozen(self, named_problem):
        name, S, f, _ = named_problem
        assert r1_dims(f, S).per_degree == R1_PER_DEGREE[name]

    def test_matches_hat_restriction(self, named_problem):
        _, S, f, _ = named_problem
        assert r1_dims(f, S).total == hat_restriction_rank(f, S)

    def test_bounded_by_both_quotients(self, named_problem):
        _, S, f, _ = named_problem
        r1 = r1_dims(f, S)
        full = jacobian_dims(f, S, S.rank + 1)
        inner = jacobian_dims(f, S, S.rank + 1, region="interior")
        for a, b, c in zip(r1.per_degree, full.per_degree, inner.per_degree):
            assert a <= b and a <= c


class TestInteriorRank:
    @pytest.mark.parametrize("x", ["problem", "complex"])
    def test_matches_copy_and_add(self, named_problem, x):
        """_interior_rank, read off a reduced space, equals the count of the
        interior unit vectors added to a copy, and leaves the space as it
        was: the image spaces up to degree rank + 1 and the beta and beta = 0
        hat spaces at bounds rank + 2 and rank + 3, at the problem's x and at
        an x over Q(i), whose spaces are restricted to Q (n = 2)."""
        _, S, f, beta = named_problem
        r = S.rank
        if x == "complex":
            f = FVector([(Fraction(v, f.den), Fraction(i + 1, 3))
                         for i, v in enumerate(f.parts[0])])
        spaces = [(ring._image_space(f, S, k), [k]) for k in range(r + 2)]
        spaces += [(ring._hat_space(f, FVector(b), S, D), range(D + 1))
                   for b in (beta, (0,) * r) for D in (r + 2, r + 3)]
        for space, degrees in spaces:
            assert space.n == (2 if x == "complex" and space.rows else 1)
            rows = {p: dict(row) for p, row in space.rows.items()}
            assert ring._interior_rank(space, S, degrees) == \
                reference_interior_rank(space, S, degrees)
            assert space.rows == rows


class TestRandomRationalX:
    def test_deterministic(self):
        S, _, _ = make_problem("p1")
        f1, _ = random_rational_x(S, seed=5)
        f2, _ = random_rational_x(S, seed=5)
        assert f1 == f2

    def test_certified(self):
        S, _, _ = make_problem("ex52")
        f, dims = random_rational_x(S, seed=3)
        assert certifies(dims.per_degree, S)

    def test_retries_exhausted(self, monkeypatch):
        S, _, _ = make_problem("p1")
        monkeypatch.setattr(ring, "MAX_RETRIES", 0)
        with pytest.raises(NondegeneracyRetriesExhausted):
            random_rational_x(S, seed=0)
