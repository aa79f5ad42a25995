"""Quotient construction, base points, and character lifting."""

import cmath
import dataclasses
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest

from bbgkz import cli, torsion
from bbgkz.abelian import AbelianGroup, char_value
from bbgkz.linalg import QQI_I, GaussianRational
from bbgkz.polyhedral import build_semigroup, normalized_volume
from bbgkz.ring import FVector, is_nondegenerate
from bbgkz.solver import recursion_defects, solve_recursion
from bbgkz.torsion import (LogModulusBox, RegionTooTight, ResidualTooLarge,
                           build_quotient, exact_rank, find_common_basepoint,
                           independence_count, lift_and_verify, p_rho)
from conftest import make_problem


class TestBuildQuotient:
    def test_z2_merges_to_single_image(self):
        S, _, _ = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        assert len(Q.images) == 1
        assert Q.images[0].free == (1,)
        assert Q.index_sets == ((0, 1),)

    def test_torsion_free_distinct_is_identity(self):
        S, _, _ = make_problem("p2")
        Q = build_quotient(S.group, S.A)
        assert len(Q.images) == len(S.A)
        assert all(idx == (i,) for i, idx in enumerate(Q.index_sets))

    def test_repeated_vectors_collapse(self):
        S, _, _ = make_problem("repeated")
        Q = build_quotient(S.group, S.A)
        assert len(Q.images) == 2
        assert Q.index_sets == ((0, 1), (2,))

    def test_index_sets_partition(self, named_problem):
        _, S, _, _ = named_problem
        Q = build_quotient(S.group, S.A)
        flat = sorted(i for idxs in Q.index_sets for i in idxs)
        assert flat == list(range(len(S.A)))


class TestPRho:
    def test_trivial_character_plain_sums(self):
        S, f, _ = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        z = p_rho(S.group.characters()[0], f.x, Q)
        assert z == (GaussianRational(3),)

    def test_z2_nontrivial_gives_difference(self):
        S, f, _ = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        z = p_rho(S.group.characters()[1], f.x, Q)
        assert z == (GaussianRational(1),)

    def test_singleton_sets_scale_coordinates(self):
        S, f, _ = make_problem("square_z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[1]
        z = p_rho(rho, f.x, Q)
        for zj, idxs in zip(z, Q.index_sets):
            i = idxs[0]
            _, val = char_value(rho, S.A[i])
            assert complex(zj) == val * complex(f.x[i])

    def test_order_three_goes_float(self):
        S, f, _ = make_problem("g3")
        Q = build_quotient(S.group, S.A)
        z = p_rho(S.group.characters()[1], f.x, Q)
        assert isinstance(z[0], complex)
        w = cmath.exp(2j * cmath.pi / 3)
        expect = 1 + w / 2 + w * w / 3
        assert abs(z[0] - expect) < 1e-12


class TestBasepoint:
    def test_images_in_region(self):
        S, _, _ = make_problem("g3")
        Q = build_quotient(S.group, S.A)
        region = LogModulusBox((math.log(0.5),), (math.log(2.0),))
        x = find_common_basepoint(Q, region)
        for rho in S.group.characters():
            assert region.contains(p_rho(rho, x, Q))

    def test_distinguished_argument_window(self):
        S, _, _ = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        region = LogModulusBox((0.0,), (1.0,))
        x = find_common_basepoint(Q, region)
        G = S.group.torsion_order
        phase = cmath.phase(x[0])
        assert -math.pi <= phase < -math.pi + 2 * math.pi / G
        assert abs(x[1]) < abs(x[0]) * 1e-6

    def test_region_too_tight(self):
        # for Z/4 the small coordinates perturb the modulus at first order,
        # so a box narrower than that perturbation cannot be satisfied
        N = AbelianGroup(1, (4,))
        A = (N.element((1,), (0,)), N.element((1,), (1,)))
        Q = build_quotient(N, A)
        region = LogModulusBox((0.0,), (1e-12,))
        with pytest.raises(RegionTooTight):
            find_common_basepoint(Q, region)

    def test_bad_region_shape(self):
        S, _, _ = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        with pytest.raises(ValueError):
            find_common_basepoint(Q, LogModulusBox((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            LogModulusBox((1.0,), (0.0,))


def lift_full_basis(name, beta=None, truncation=5):
    """All quotient germs lifted through all characters of the fixture."""
    S, f, fixture_beta = make_problem(name)
    beta = beta if beta is not None else fixture_beta
    Q = build_quotient(S.group, S.A)
    exact = all(d in (2, 4) for d in S.group.torsion_invariants)
    lifted = []
    worst = 0.0
    if exact:
        x = tuple(f.x)
        for rho in S.group.characters():
            z = p_rho(rho, x, Q)
            qb = solve_recursion(FVector(z), beta, Q.semigroup,
                                 truncation=truncation)
            for psi in qb.tables:
                table, resid = lift_and_verify(psi, rho, x, S)
                lifted.append(table)
                worst = max(worst, resid)
    else:
        m = len(Q.images)
        region = LogModulusBox((math.log(0.5),) * m, (math.log(2.0),) * m)
        x = find_common_basepoint(Q, region)
        bf = tuple(complex(b) for b in beta)
        for rho in S.group.characters():
            z = p_rho(rho, x, Q)
            qb = solve_recursion(z, bf, Q.semigroup, truncation=truncation,
                                 backend="float")
            for psi in qb.tables:
                table, resid = lift_and_verify(psi, rho, x, S)
                lifted.append(table)
                worst = max(worst, resid)
    return S, lifted, worst


class TestLifting:
    def test_trivial_character_reindexes(self):
        """Torsion-free group, trivial character: the lift is psi itself."""
        S, f, beta = make_problem("p1")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[0]
        x = tuple(f.x)
        z = p_rho(rho, x, Q)
        assert z == x
        basis = solve_recursion(FVector(z), beta, Q.semigroup, truncation=4)
        for psi in basis.tables:
            table, resid = lift_and_verify(psi, rho, x, S)
            assert resid == 0.0
            assert {c.free: v for c, v in table.entries.items()} == \
                {c.free: v for c, v in psi.entries.items()}

    def test_z2_exact_lift_rank_two(self):
        S, lifted, worst = lift_full_basis("z2", beta=(Fraction(3, 2),))
        assert worst == 0.0
        assert len(lifted) == 2
        assert exact_rank(lifted) == 2
        assert independence_count(lifted) == 2

    def test_z2_lift_reproduces_power_germs(self):
        """The two lifts are the germs of (x1+x2)^b and (x1-x2)^b."""
        beta = Fraction(3, 2)
        S, lifted, _ = lift_full_basis("z2", beta=(beta,))
        x1, x2 = Fraction(2), Fraction(1)
        for table, base in zip(lifted, (x1 + x2, x1 - x2)):
            def g(k, c):
                return table.entries.get(S.group.element((k,), (c,)), 0)
            for k in range(5):
                assert base * g(k + 1, 0) == g(k, 0) * (beta - k)
            # character sign pattern on the torsion bit
            sign = 1 if base == x1 + x2 else -1
            for k in range(5):
                assert g(k, 1) == sign * g(k, 0)

    def test_square_z2_completion(self):
        S, lifted, worst = lift_full_basis("square_z2")
        expect = normalized_volume(S.A) * S.group.torsion_order
        assert worst == 0.0
        assert len(lifted) == expect
        assert exact_rank(lifted) == expect

    def test_g3_float_lane(self):
        S, lifted, worst = lift_full_basis("g3")
        assert worst <= 1e-9
        assert independence_count(lifted) == 3

    def test_zero_table_lifts_to_zero(self):
        S, f, beta = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[1]
        x = tuple(f.x)
        z = p_rho(rho, x, Q)
        psi = solve_recursion(FVector(z), beta, Q.semigroup,
                              truncation=4).tables[0]
        psi.entries.clear()
        table, resid = lift_and_verify(psi, rho, x, S)
        assert table.entries == {} and resid == 0.0

    def test_corrupted_lift_raises(self):
        S, f, beta = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[1]
        x = tuple(f.x)
        z = p_rho(rho, x, Q)
        psi = solve_recursion(FVector(z), beta, Q.semigroup,
                              truncation=4).tables[0]
        c = psi.semigroup.group.element((1,))
        psi.entries[c] = psi.entries[c] + 1
        with pytest.raises(ResidualTooLarge):
            lift_and_verify(psi, rho, x, S)

    def test_lift_builds_no_semigroup(self, monkeypatch):
        """lift_and_verify projects the data and reuses psi's semigroup, the
        quotient's, instead of building it again for every germ."""
        S, f, beta = make_problem("square_z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[1]
        x = tuple(f.x)
        psi = solve_recursion(FVector(p_rho(rho, x, Q)), beta, Q.semigroup,
                              truncation=4).tables[0]

        def refuse(*args):
            raise AssertionError("build_semigroup called")
        monkeypatch.setattr(torsion, "build_semigroup", refuse)
        table, resid = lift_and_verify(psi, rho, x, S)
        assert resid == 0.0 and table.entries

    def test_base_point_mismatch_rejected(self):
        S, f, beta = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[0]
        z = (GaussianRational(5),)
        psi = solve_recursion(FVector(z), beta, Q.semigroup,
                              truncation=4).tables[0]
        with pytest.raises(ValueError):
            lift_and_verify(psi, rho, tuple(f.x), S)


class TestIndependenceCount:
    def test_duplicates_do_not_raise_rank(self):
        S, lifted, _ = lift_full_basis("z2", beta=(Fraction(3, 2),))
        assert independence_count(lifted + [lifted[0]]) == 2

    def test_empty(self):
        assert independence_count([]) == 0


def reference_defects(table):
    """The per-term loop that recursion_defects replaced, kept as its
    reference: (c, j, lhs - rhs) in GaussianRational arithmetic, reading
    c + v_i by group addition."""
    S = table.semigroup
    xs, beta, entries = table.base_x, table.beta, table.entries
    for k in range(table.truncation):
        for c in S.layer(k):
            lam = entries.get(c, 0)
            for j in range(S.rank):
                lhs = 0
                for x, v in zip(xs, S.A):
                    if v.free[j] and (c + v) in entries:
                        lhs = lhs + x * v.free[j] * entries[c + v]
                yield c, j, lhs - (lam * (beta[j] - c.free[j]) if lam else 0)


def first_reference_defect(table):
    return next(((c, j) for c, j, diff in reference_defects(table) if diff), None)


def first_defect(table):
    for k, defect in recursion_defects(table):
        for p, j in np.argwhere(defect)[:1]:
            return table.semigroup.layer(k)[p], j
    return None


def spec_problem(path):
    spec = cli.load_problem(path)
    S = build_semigroup(spec.group, spec.vectors)
    f, _ = spec.resolve_x(S)
    return spec, S, f


def exact_lifts(path):
    """(rho, quotient germ, lifted table) for every exact lift of a problem."""
    spec, S, f = spec_problem(path)
    Q = build_quotient(S.group, S.A)
    x = tuple(f.x)
    out = []
    for rho in S.group.characters():
        qb = solve_recursion(FVector(p_rho(rho, x, Q)), spec.beta, Q.semigroup,
                             truncation=spec.truncation)
        for psi in qb.tables:
            table, resid = lift_and_verify(psi, rho, x, S)
            assert resid == 0.0
            out.append((rho, psi, table))
    return S, x, out


def sample(entries, count):
    """`count` entries spread over the table in a fixed order."""
    keys = sorted(entries, key=lambda c: c.sort_key())
    return keys[::max(1, len(keys) // count)][:count]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
LIFT_PROBLEMS = {
    "z2_example": cli.fixture_path("z2_example"),
    "p2_z4": os.path.join(GOLDEN, "p2_z4.problem.json"),
}


class TestExactRecursionCheck:
    """Single-entry corruptions of exact tables, lifted and quotient germs:
    recursion_defects must report the first (c, j) that the per-term reference
    reports, and lift_and_verify must name it."""

    @pytest.mark.parametrize("name", sorted(LIFT_PROBLEMS))
    def test_lifted_entry_corruptions(self, name):
        S, _, lifts = exact_lifts(LIFT_PROBLEMS[name])
        if name == "p2_z4":
            assert any(v.b for _, _, t in lifts for v in t.entries.values())
            assert any(z.b for _, psi, _ in lifts for z in psi.base_x)
        # the quotient germs too: under +-i characters their base point is complex
        for table in [t for _, psi, lifted in lifts[::2] for t in (lifted, psi)]:
            assert first_defect(table) is None
            assert first_reference_defect(table) is None
            for c in sample(table.entries, 3):
                for delta in (1, QQI_I):
                    bad = dataclasses.replace(
                        table, entries={**table.entries, c: table.entries[c] + delta})
                    want = first_reference_defect(bad)
                    assert want is not None
                    assert first_defect(bad) == want

    @pytest.mark.parametrize("name", sorted(LIFT_PROBLEMS))
    def test_lift_and_verify_names_first_defect(self, name):
        S, x, lifts = exact_lifts(LIFT_PROBLEMS[name])
        for rho, psi, table in lifts[::3]:
            for pc in sample(psi.entries, 2):
                # doubling psi at pc doubles every lifted entry above pc
                bad_psi = dataclasses.replace(
                    psi, entries={**psi.entries, pc: 2 * psi.entries[pc]})
                bad = dataclasses.replace(table, entries={
                    c: 2 * v if c.free == pc.free else v for c, v in table.entries.items()})
                c, j = first_reference_defect(bad)
                assert first_defect(bad) == (c, j)
                with pytest.raises(ResidualTooLarge,
                                   match=rf"at {re.escape(str(c))}, coordinate {j}$"):
                    lift_and_verify(bad_psi, rho, x, S)

    def test_hexagon_germ_corruptions(self):
        spec, S, f = spec_problem(os.path.join(GOLDEN, "hexagon.problem.json"))
        basis = solve_recursion(f, spec.beta, S, truncation=spec.truncation)
        for table in basis.tables[::2]:
            assert first_defect(table) is None
            for c in sample(table.entries, 4):
                bad = dataclasses.replace(
                    table, entries={**table.entries, c: table.entries[c] * 3})
                want = first_reference_defect(bad)
                assert want is not None
                assert first_defect(bad) == want
