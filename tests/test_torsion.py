"""Quotient construction, quotient points, and character lifting."""

import cmath
import dataclasses
import functools
import json
import math
import os
import re
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from bbgkz import cli, solver, torsion
from bbgkz.abelian import char_value
from bbgkz.linalg import RowSpace, degree, embed, field, mul, root_of_unity
from bbgkz.polyhedral import build_semigroup
from bbgkz.ring import FVector
from bbgkz.solver import check_residuals, exact_rank, recursion_defects, solve_recursion
from bbgkz.torsion import ResidualTooLarge, build_quotient, lift_and_verify, p_rho
from conftest import (QQI, QQI_I, LambdaTable, assert_stacks_equal, basis_of, make_problem,
                      qqi_values, stack_of, tables_of)


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
        assert z.x == (QQI(3),)

    def test_z2_nontrivial_gives_difference(self):
        S, f, _ = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        z = p_rho(S.group.characters()[1], f.x, Q)
        assert z.x == (QQI(1),)

    def test_singleton_sets_scale_coordinates(self):
        S, f, _ = make_problem("square_z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[1]
        z = p_rho(rho, f.x, Q)
        for zj, idxs in zip(z.x, Q.index_sets):
            i = idxs[0]
            sign = root_of_unity(char_value(rho, S.A[i]), 1)[0]
            assert zj == sign * QQI(f.x[i])

    def test_order_three_stays_exact(self):
        """g3 under a character of order 3: z = 1 + zeta/2 + zeta^2/3 =
        2/3 + zeta/6 in Q(zeta_3), whose embedding is the complex sum."""
        S, f, _ = make_problem("g3")
        Q = build_quotient(S.group, S.A)
        z = p_rho(S.group.characters()[1], f.x, Q)
        assert (z.m, z.parts, z.den) == (3, ((4,), (1,)), 6)
        w = cmath.exp(2j * cmath.pi / 3)
        assert abs(z.complex()[0] - (1 + w / 2 + w * w / 3)) < 1e-15


def quotient_bases(S, x, beta, truncation):
    """(rho, quotient basis at p_rho(x)) for every character."""
    Q = build_quotient(S.group, S.A)
    return [(rho, solve_recursion(p_rho(rho, x, Q), beta, Q.semigroup, truncation=truncation))
            for rho in S.group.characters()]


def lift_full_basis(name, beta=None, truncation=5):
    """One lifted GermStack per character of the fixture, and the worst
    residual."""
    S, f, fixture_beta = make_problem(name)
    beta = beta if beta is not None else fixture_beta
    stacks = []
    worst = 0.0
    for rho, qb in quotient_bases(S, f, beta, truncation):
        stack, resid = lift_and_verify(qb, rho, f, S)
        stacks.append(stack)
        worst = max(worst, resid)
    return S, stacks, worst


def stack_values(stack):
    """Per germ, the nonzero entries of a stack as {c: value}, values as
    `qqi_values` gives them."""
    return [{stack.semigroup.layer(k)[p]: v for k in range(stack.truncation + 1)
             for p, v in qqi_values(stack, t, k).items()} for t in range(len(stack))]


def field_parts(value, m):
    """The Fraction parts in Q(zeta_m) of a GermStack value: a
    GaussianRational, or the parts tuple of a value of Q(zeta_m)."""
    if isinstance(value, tuple):
        return list(value)
    re, im = Fraction(value.a, value.d), Fraction(value.b, value.d)
    return embed([re, im], 4, m) if im else [re] + [Fraction(0)] * (degree(m) - 1)


def field_value(parts, m):
    """A value in the form `qqi_values` gives over Q(zeta_m)."""
    if m in (1, 4):
        return QQI.from_fractions(parts[0], parts[1] if m == 4 else 0)
    return tuple(parts)


def reference_lift(psi, rho, x, S, m):
    """The per-germ dict lift that the array lift replaced, kept as its
    reference: lambda_c = rho(c) psi_{pi(c)} entry by entry over S's layers,
    on Fraction parts in Q(zeta_m)."""
    by_free = {pc.free: val for pc, val in psi.entries.items()}
    entries = {}
    lead = psi.truncation
    for k in range(psi.truncation + 1):
        for c in S.layer(k):
            val = by_free.get(c.free)
            if val is None:
                continue
            lifted = mul(root_of_unity(char_value(rho, c), m), field_parts(val, m), m)
            if any(lifted):
                entries[c] = field_value(lifted, m)
                lead = min(lead, k)
    return LambdaTable(S, tuple(x), psi.beta, psi.truncation, entries, lead)


def reference_rank(tables, m):
    """Exact rank over Q(zeta_m) of LambdaTables over all their columns at
    once."""
    cols = sorted({c for t in tables for c in t.entries}, key=lambda c: (c.free, c.torsion))
    space = RowSpace()
    for t in tables:
        parts = [field_parts(t.entries[c], m) if c in t.entries else [0] * degree(m)
                 for c in cols]
        den = lcm(*(Fraction(v).denominator for p in parts for v in p))
        space.add([{i: int(p[s] * den) for i, p in enumerate(parts) if p[s]}
                   for s in range(degree(m))], m)
    return space.rank


class TestLifting:
    def test_trivial_character_reindexes(self):
        """Torsion-free group, trivial character: the lift is psi itself."""
        S, f, beta = make_problem("p1")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[0]
        z = p_rho(rho, f, Q)
        assert z == f
        basis = solve_recursion(z, beta, Q.semigroup, truncation=4)
        stack, resid = lift_and_verify(basis, rho, f, S)
        assert resid == 0.0
        for values, psi in zip(stack_values(stack), tables_of(basis)):
            assert {c.free: v for c, v in values.items()} == \
                {c.free: v for c, v in psi.entries.items()}

    def test_z2_exact_lift_rank_two(self):
        S, lifted, worst = lift_full_basis("z2", beta=(Fraction(3, 2),))
        assert worst == 0.0
        assert [s.m for s in lifted] == [1, 1]
        assert sum(len(s) for s in lifted) == 2
        assert exact_rank(lifted) == 2

    def test_z2_lift_reproduces_power_germs(self):
        """The two lifts are the germs of (x1+x2)^b and (x1-x2)^b."""
        beta = Fraction(3, 2)
        S, lifted, _ = lift_full_basis("z2", beta=(beta,))
        x1, x2 = Fraction(2), Fraction(1)
        tables = [values for s in lifted for values in stack_values(s)]
        for entries, base in zip(tables, (x1 + x2, x1 - x2)):
            def g(k, c):
                return entries.get(S.group.element((k,), (c,)), 0)
            for k in range(5):
                assert base * g(k + 1, 0) == g(k, 0) * (beta - k)
            # character sign pattern on the torsion bit
            sign = 1 if base == x1 + x2 else -1
            for k in range(5):
                assert g(k, 1) == sign * g(k, 0)

    def test_square_z2_completion(self):
        S, lifted, worst = lift_full_basis("square_z2")
        expect = S.volume * S.group.torsion_order
        assert worst == 0.0
        assert sum(len(s) for s in lifted) == expect
        assert exact_rank(lifted) == expect

    def test_g3_exact_lift(self):
        """g3 lifts over Q(zeta_3) with rank 3, on exact defects."""
        S, lifted, worst = lift_full_basis("g3")
        assert worst == 0.0
        assert [s.m for s in lifted] == [1, 3, 3]
        assert exact_rank(lifted) == 3

    def test_zero_table_lifts_to_zero(self):
        S, f, beta = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[1]
        z = p_rho(rho, f, Q)
        tables = tables_of(solve_recursion(z, beta, Q.semigroup, truncation=4))
        tables[0].entries.clear()
        stack, resid = lift_and_verify(basis_of(tables), rho, f, S)
        assert stack_values(stack) == [{}] and resid == 0.0

    def test_corrupted_lift_raises(self):
        S, f, beta = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[1]
        z = p_rho(rho, f, Q)
        tables = tables_of(solve_recursion(z, beta, Q.semigroup, truncation=4))
        psi = tables[0]
        c = psi.semigroup.group.element((1,))
        psi.entries[c] = psi.entries[c] + 1
        c, j = first_reference_defect(reference_lift(psi, rho, f.x, S, 1))
        with pytest.raises(ResidualTooLarge,
                           match=rf"^exact lift residual nonzero at {re.escape(str(c))}, "
                                 rf"coordinate {j}$"):
            lift_and_verify(basis_of(tables), rho, f, S)

    def test_lift_builds_no_semigroup(self, monkeypatch):
        """lift_and_verify projects the data and reuses the basis' semigroup,
        the quotient's, instead of building it again."""
        S, f, beta = make_problem("square_z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[1]
        basis = solve_recursion(p_rho(rho, f, Q), beta, Q.semigroup, truncation=4)

        def refuse(*args):
            raise AssertionError("build_semigroup called")
        monkeypatch.setattr(torsion, "build_semigroup", refuse)
        stack, resid = lift_and_verify(basis, rho, f, S)
        assert resid == 0.0 and any(stack_values(stack))

    def test_base_point_mismatch_rejected(self):
        S, f, beta = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[0]
        basis = solve_recursion((QQI(5),), beta, Q.semigroup, truncation=4)
        with pytest.raises(ValueError):
            lift_and_verify(basis, rho, f, S)

    def test_quotient_layers_must_match(self, monkeypatch):
        """A quotient semigroup whose layers are not the free slices of S's
        is refused rather than lifted onto the wrong points."""
        S, f, beta = make_problem("z2")
        Q = build_quotient(S.group, S.A)
        rho = S.group.characters()[1]
        basis = solve_recursion(p_rho(rho, f, Q), beta, Q.semigroup, truncation=4)
        layer = Q.semigroup.free_layer(2)
        monkeypatch.setitem(Q.semigroup._free, (2, "full"), layer + 1)
        with pytest.raises(ValueError, match="quotient layer 2"):
            lift_and_verify(basis, rho, f, S)


def problem_path(name):
    """A problem stored beside the goldens, or else a bundled fixture, or
    else a benchmark problem."""
    path = os.path.join(GOLDEN, f"{name}.problem.json")
    if os.path.exists(path):
        return path
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "problems",
                         f"{name}.json")
    return bench if os.path.exists(bench) else cli.fixture_path(name)


class TestArrayLift:
    """The array lift against the per-germ dict lift it replaced."""

    @pytest.mark.parametrize("name", ["z2_example", "square_z2", "p2_z4", "hexagon_z2",
                                      "g3_torsion", "seg5_z3"])
    def test_matches_reference_lift(self, name):
        spec, S, f = spec_problem(problem_path(name))
        for rho, basis in quotient_bases(S, f, spec.beta, spec.truncation):
            stack, _ = lift_and_verify(basis, rho, f, S)
            assert stack.m == field(f.m, basis.stack.m, torsion._order(rho))
            assert (stack.m == 3) == (name in ("g3_torsion", "seg5_z3")
                                      and rho != rho.group.characters()[0])
            refs = [reference_lift(psi, rho, f.x, S, stack.m)
                    for psi in tables_of(basis)]
            assert stack.base_x == FVector(refs[0].base_x) and stack.beta == basis.beta
            assert stack_values(stack) == [ref.entries for ref in refs]


class TestExactRank:
    """exact_rank stops adding columns once the rank is the germ count."""

    @pytest.mark.parametrize("name", ["z2_example", "square_z2", "p2_z4", "hexagon_z2",
                                      "seg5_z3", "square_z3"])
    def test_prefix_rank_is_full_rank(self, name):
        spec, S, f = spec_problem(problem_path(name))
        stacks, refs = [], []
        m = field(f.m, FVector(spec.beta).m, *S.group.torsion_invariants)
        for rho, basis in quotient_bases(S, f, spec.beta, spec.truncation):
            stacks.append(lift_and_verify(basis, rho, f, S)[0])
            refs.extend(reference_lift(psi, rho, f.x, S, m) for psi in tables_of(basis))
        full = reference_rank(refs, m)
        assert full == S.volume * S.group.torsion_order
        assert exact_rank(stacks) == full
        # replacing germ 0 of one stack by a copy of the last germ of another,
        # or by zero, lowers the rank by one
        for src, dst in ((0, -1), (-1, 0)):
            for duplicate in (True, False):
                layers = []
                for (P, d), (sP, sd) in zip(stacks[dst].layers, stacks[src].layers):
                    den = lcm(d, sd)
                    P = solver._arrays(embed(list(P * (den // d)), stacks[dst].m, m),
                                        P.shape[1:])
                    sP = solver._arrays(embed(list(sP * (den // sd)), stacks[src].m, m),
                                         sP.shape[1:])
                    P[:, 0] = sP[:, -1] if duplicate else 0
                    layers.append((P, den))
                bad = list(stacks)
                bad[dst] = dataclasses.replace(stacks[dst], layers=layers, m=m)
                assert exact_rank(bad) == full - 1

    def test_empty(self):
        assert exact_rank([]) == 0


class TestLiftTruncation:
    """Germs up to degree rank + 1 fix the lift: every germ is born at or
    below it, and each step above it has one solution."""

    @pytest.mark.parametrize("name", ["z2_example", "g3_torsion", "square_z2", "p2_z4",
                                      "p2_z4_cbeta", "hexagon_z2", "seg5_z3"])
    def test_lifts_at_rank_plus_one_are_the_cut_lifts(self, name):
        """Lifts of quotient solves at the problem's truncation D, cut to
        layers 0..rank + 1, are the lifts of solves at rank + 1, array for
        array, and both have exact rank vol |N_tors|."""
        spec, S, f = spec_problem(problem_path(name))
        r, D = S.rank, spec.truncation
        assert D > r + 1
        full, short = [], []
        for truncation, stacks in ((D, full), (r + 1, short)):
            for rho, basis in quotient_bases(S, f, spec.beta, truncation):
                assert max(basis.leading) <= r + 1
                stacks.append(lift_and_verify(basis, rho, f, S)[0])
        for stack, cut in zip(short, full):
            assert_stacks_equal(stack, dataclasses.replace(cut, truncation=r + 1,
                                                           layers=cut.layers[:r + 2]))
        assert exact_rank(full) == exact_rank(short) == S.volume * S.group.torsion_order


def reference_defects(table, near=None):
    """The per-term loop that recursion_defects replaced, kept as its
    reference: (c, j, lhs - rhs) in QQI arithmetic, reading
    c + v_i by group addition.  With `near`, the one entry changed in a
    table that has no reference defect, only the positions whose terms
    read that entry: the others are unchanged, so they stay defect-free."""
    S = table.semigroup
    beta, entries = list(map(QQI, table.beta)), table.entries
    # x_i v_i[j] per generator i and covector j
    coeffs = [[QQI(x) * vj for vj in v.free] for x, v in zip(table.base_x, S.A)]
    positions = None if near is None else reading(S, near, table.truncation)
    for k in range(table.truncation):
        for c in S.layer(k):
            if positions is not None and c not in positions:
                continue
            lam = entries.get(c, 0)
            terms = [(xv, up) for xv, v in zip(coeffs, S.A)
                     if (up := entries.get(c + v)) is not None]
            for j in range(S.rank):
                lhs = 0
                for xv, up in terms:
                    if xv[j]:
                        lhs = lhs + xv[j] * up
                yield c, j, lhs - (lam * (beta[j] - c.free[j]) if lam else 0)


def reading(S, near, truncation):
    """The positions whose recursion terms read the entry at `near`: near
    itself and each c of the layer below with c + v_i = near."""
    k = next(k for k in range(truncation + 1) if near in S.layer(k))
    below = S.layer(k - 1) if k else ()
    return {near, *(c for c in below if any(c + v == near for v in S.A))}


def first_reference_defect(table, near=None):
    return next(((c, j) for c, j, diff in reference_defects(table, near) if diff), None)


def first_defects(stack):
    """Per germ of a stack, the first (c, j) that recursion_defects reports,
    or None."""
    out = [None] * len(stack)
    for k, defect in recursion_defects(stack):
        for t, p, j in np.argwhere(defect):
            if out[t] is None:
                out[t] = (stack.semigroup.layer(k)[p], j)
    return out


def defect_sets(stack):
    """Per germ of a stack, every (c, j) that recursion_defects reports."""
    out = [set() for _ in range(len(stack))]
    for k, defect in recursion_defects(stack):
        for t, p, j in np.argwhere(defect):
            out[t].add((stack.semigroup.layer(k)[p], j))
    return out


def reference_defect_sets(tables, near=None):
    return [{(c, j) for c, j, diff in reference_defects(t, near) if diff} for t in tables]


def spec_problem(path):
    spec = cli.load_problem(path)
    S = build_semigroup(spec.group, spec.vectors)
    f, _ = spec.resolve_x(S)
    return spec, S, f


@functools.cache
def exact_lifts(path):
    """(rho, quotient basis, lifted stack, reference lifts of its germs) for
    every character of an exact-lane problem, computed once per path: the
    tests read them and build changed copies."""
    spec, S, f = spec_problem(path)
    x = tuple(f.x)
    out = []
    for rho, basis in quotient_bases(S, x, spec.beta, spec.truncation):
        stack, resid = lift_and_verify(basis, rho, x, S)
        assert resid == 0.0
        out.append((rho, basis, stack,
                    [reference_lift(psi, rho, x, S, stack.m) for psi in tables_of(basis)]))
    return S, x, out


def sample(entries, count):
    """`count` entries spread over the table in a fixed order."""
    keys = sorted(entries, key=lambda c: (c.free, c.torsion))
    return keys[::max(1, len(keys) // count)][:count]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
LIFT_PROBLEMS = {
    "z2_example": cli.fixture_path("z2_example"),
    "p2_z4": os.path.join(GOLDEN, "p2_z4.problem.json"),
}


class TestExactRecursionCheck:
    """Single-entry corruptions of exact germs, lifted and quotient, in
    stacks of all germs of one character: recursion_defects must report, for
    the corrupted germ only, the first (c, j) that the per-term reference
    reports, and lift_and_verify must name it."""

    @pytest.mark.parametrize("name", sorted(LIFT_PROBLEMS))
    def test_lifted_entry_corruptions(self, name):
        S, _, lifts = exact_lifts(LIFT_PROBLEMS[name])
        if name == "p2_z4":
            assert any(v.b for *_, refs in lifts for t in refs for v in t.entries.values())
            assert any(z.b for _, basis, *_ in lifts for z in basis.stack.base_x)
        # the quotient germs too: under +-i characters their base point is complex
        for _, basis, stack, refs in lifts:
            for tables in (refs, tables_of(basis)):
                assert first_defects(stack_of(tables)) == [None] * len(tables)
                for t, table in list(enumerate(tables))[::2]:
                    assert first_reference_defect(table) is None
                    for c in sample(table.entries, 3):
                        for delta in (1, QQI_I):
                            bad = dataclasses.replace(
                                table, entries={**table.entries, c: table.entries[c] + delta})
                            want = first_reference_defect(bad, near=c)
                            assert want is not None
                            got = first_defects(stack_of(tables[:t] + [bad] + tables[t + 1:]))
                            assert got == [want if u == t else None for u in range(len(tables))]

    @pytest.mark.parametrize("name", sorted(LIFT_PROBLEMS))
    def test_lift_and_verify_names_first_defect(self, name):
        S, x, lifts = exact_lifts(LIFT_PROBLEMS[name])
        for rho, basis, stack, refs in lifts[::3]:
            psis = tables_of(basis)
            for t in range(len(psis))[::-2]:
                psi = psis[t]
                for pc in sample(psi.entries, 2):
                    # doubling psi at pc doubles every lifted entry above pc
                    bad_psi = dataclasses.replace(
                        psi, entries={**psi.entries, pc: 2 * psi.entries[pc]})
                    bad = dataclasses.replace(refs[t], entries={
                        c: 2 * v if c.free == pc.free else v for c, v in refs[t].entries.items()})
                    assert reference_lift(bad_psi, rho, x, S, stack.m).entries == bad.entries
                    c, j = first_reference_defect(bad)
                    assert first_defects(stack_of([bad]))[0] == (c, j)
                    # germ t is the first failing one: later germs fail too
                    tables = psis[:t] + [bad_psi] + [
                        dataclasses.replace(p, entries={**p.entries, k: 2 * p.entries[k]})
                        for p in psis[t + 1:] for k in sample(p.entries, 1)]
                    with pytest.raises(ResidualTooLarge,
                                       match=rf"at {re.escape(str(c))}, coordinate {j}$"):
                        lift_and_verify(basis_of(tables), rho, x, S)

    def test_real_data_complex_layers(self):
        """p2_z4 lifted under the characters +-i: x and beta real and the
        layers complex, checked as two real sums per covector.  Every defect,
        not only the first, is the reference's, on the lifts and with a
        single entry changed by 1 or by i."""
        S, x, lifts = exact_lifts(LIFT_PROBLEMS["p2_z4"])
        assert not any(v.b for v in x)
        complex_lifts = [(stack, refs) for _, _, stack, refs in lifts
                         if stack.m == 4 and any(P[1].any() for P, _ in stack.layers)]
        assert len(complex_lifts) == 2
        for stack, refs in complex_lifts:
            assert not any(b.b for b in stack.beta)
            untouched = reference_defect_sets(refs)
            assert defect_sets(stack) == untouched == [set()] * len(refs)
            for t, table in enumerate(refs):
                for c in sample(table.entries, 3):
                    for delta in (1, QQI_I):
                        bad = dataclasses.replace(
                            table, entries={**table.entries, c: table.entries[c] + delta})
                        tables = refs[:t] + [bad] + refs[t + 1:]
                        # a germ's reference defects read that germ alone
                        want = (untouched[:t] + reference_defect_sets([bad], near=c)
                                + untouched[t + 1:])
                        assert want[t] and not any(want[:t] + want[t + 1:])
                        assert defect_sets(stack_of(tables)) == want

    def test_coprime_layer_denominators(self):
        """Hand-built germs on a single ray, x = 3/5 and beta = 2/7, with
        coprime denominators on layers 0 and 1 and a layer 3 denominator
        that layer 2's does not divide: the layer scalars must bring both
        sides to one denominator through their gcd, not a quotient of
        denominators.  Germ 0 solves the recursion up to layer 2 and breaks
        it into layer 3; germ 1 breaks it into layer 1 only."""
        S, _, _ = make_problem("ex51")
        x, beta = (QQI(3, 0, 5),), (QQI(2, 0, 7),)

        def germ(*values):
            entries = {S.layer(k)[0]: QQI(v) for k, v in enumerate(values)}
            return LambdaTable(S, x, beta, len(values) - 1, entries, 0)

        def step(v, k):  # the next value on the ray: v (beta - k) / x
            return v * (Fraction(2, 7) - k) / Fraction(3, 5)

        l1 = step(Fraction(1, 2), 0)
        m2 = step(Fraction(1, 13), 1)
        tables = [germ(Fraction(1, 2), l1, step(l1, 1), Fraction(1, 17)),
                  germ(Fraction(1, 4), Fraction(1, 13), m2, step(m2, 2))]
        stack = stack_of(tables)
        dens = [d for _, d in stack.layers]
        assert math.gcd(dens[0], dens[1]) == 1 and dens[3] % dens[2]
        want = reference_defect_sets(tables)
        assert want == [{(S.layer(2)[0], 0)}, {(S.layer(0)[0], 0)}]
        assert defect_sets(stack) == want

    def test_complex_x_real_germs(self):
        """Real germs of `repeated` at real x stay solutions when i/3 moves
        between the two equal generators, whose terms then have complex
        coefficients summing to a real one; moving it onto one generator
        alone breaks every identity that reads a nonzero value through it."""
        S, f, beta = make_problem("repeated")
        psis = tables_of(solve_recursion(f, beta, S, truncation=4))
        assert not any(v.b for t in psis for v in t.entries.values())
        third = QQI(0, 1, 3)
        for shift, broken in (((third, -third, 0), False), ((third, 0, 0), True)):
            xs = tuple(QQI(v) + d for v, d in zip(f.x, shift))
            tables = [dataclasses.replace(t, base_x=xs) for t in psis]
            want = reference_defect_sets(tables)
            assert any(want) == broken
            assert defect_sets(stack_of(tables)) == want
            for t, table in enumerate(tables):
                for c in sample(table.entries, 3):
                    bad = dataclasses.replace(
                        table, entries={**table.entries, c: table.entries[c] + 1})
                    bad_tables = tables[:t] + [bad] + tables[t + 1:]
                    assert defect_sets(stack_of(bad_tables)) == \
                        reference_defect_sets(bad_tables)

    def test_top_layer_corruptions(self):
        """A single entry changed on the top layer D is read only by the
        identities at degree D - 1, the last ones the check tests."""
        spec, S, f = spec_problem(os.path.join(GOLDEN, "hexagon.problem.json"))
        D = spec.truncation
        basis = solve_recursion(f, spec.beta, S, truncation=D)
        psis = tables_of(basis)
        assert defect_sets(basis.stack) == [set()] * len(basis)
        for t, table in list(enumerate(psis))[::2]:
            for c in [c for c in S.layer(D) if c in table.entries][::40]:
                for delta in (1, QQI_I):
                    bad = dataclasses.replace(
                        table, entries={**table.entries, c: table.entries[c] + delta})
                    want = reference_defect_sets([bad])[0]
                    assert want and all(d in S.layer(D - 1) for d, _ in want)
                    tables = psis[:t] + [bad] + psis[t + 1:]
                    assert defect_sets(stack_of(tables)) == \
                        [want if u == t else set() for u in range(len(tables))]

    def test_hexagon_germ_corruptions(self):
        spec, S, f = spec_problem(os.path.join(GOLDEN, "hexagon.problem.json"))
        basis = solve_recursion(f, spec.beta, S, truncation=spec.truncation)
        psis = tables_of(basis)
        assert first_defects(basis.stack) == [None] * len(basis)
        for t, table in list(enumerate(psis))[::2]:
            for c in sample(table.entries, 4):
                bad = dataclasses.replace(
                    table, entries={**table.entries, c: table.entries[c] * 3})
                want = first_reference_defect(bad)
                assert want is not None
                tables = psis[:t] + [bad] + psis[t + 1:]
                assert first_defects(stack_of(tables)) == \
                    [want if u == t else None for u in range(len(tables))]


CYCLOTOMIC_PROBLEMS = {
    # a segment with Z/5 torsion: characters of order 5, phi = 4
    "seg_z5": ({"rank": 2, "torsion_invariants": [5]},
               [([-1, 1], [0]), ([0, 1], [1]), ([1, 1], [3])], ["1/2", "-1/3"], 5, 2),
    # Z/6 with two vectors over one image: Q(zeta_3) and Q, orders 1, 2, 3, 6
    "seg_z6": ({"rank": 2, "torsion_invariants": [6]},
               [([-1, 1], [0]), ([0, 1], [1]), ([1, 1], [3]), ([0, 1], [4])],
               ["2/3", "1/5"], 3, 4),
    # g3 with a complex beta: Q(zeta_3)(i) = Q(zeta_12), phi = 4
    "g3_cbeta": ({"rank": 1, "torsion_invariants": [3]},
                 [([1], [0]), ([1], [1]), ([1], [2])], [{"re": "2/5", "im": "1/3"}], 12, 3),
}


class TestCyclotomicLifts:
    """Lifts through characters of order 5 and 6, and of order 3 with a
    complex beta, at the problem's own x: every quotient basis passes the
    residual check, whose series run through zeta -> exp(2 pi i / m), so a
    wrong Phi_m or power basis fails it; the lifts have zero exact defects
    and exact rank vol |N_tors|; and one solve serves each Galois orbit."""

    @pytest.mark.parametrize("name", sorted(CYCLOTOMIC_PROBLEMS))
    def test_lift_rank_and_residuals(self, name, tmp_path, monkeypatch):
        group, vectors, beta, m, solves = CYCLOTOMIC_PROBLEMS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "schema_version": 1, "name": name, "group": group,
            "vectors": [{"free": v, "torsion": t} for v, t in vectors], "beta": beta,
            "x_policy": {"mode": "seeded", "seed": 0, "denominator_bound": 4},
            "truncation": group["rank"] + 3, "tasks": ["lift"]}))
        spec, S, f = spec_problem(str(path))
        expect = S.volume * S.group.torsion_order
        Q, D = build_quotient(S.group, S.A), spec.truncation
        stacks = []
        for rho, basis in quotient_bases(S, f, spec.beta, D):
            assert check_residuals(basis).all_passed
            stack, resid = lift_and_verify(basis, rho, f, S)
            assert resid == 0.0 and not any(d.any() for _, d in recursion_defects(stack))
            stacks.append(stack)
        assert max(s.m for s in stacks) == m
        assert exact_rank(stacks) == expect
        assert exact_rank(stacks[:-1]) == expect - len(stacks[-1])

        solve = cli.solve_recursion
        calls = []
        monkeypatch.setattr(cli, "solve_recursion",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        report, code = cli.run(str(path), timings=False)
        assert code == 0 and report["torsion_lift"]["rank"] == expect
        assert len(calls) == solves
