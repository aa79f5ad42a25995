"""End-to-end acceptance checks, one test per criterion.

Each test prints a single CRITERION line so the run log shows an explicit
pass/fail verdict per item; assertions carry the actual gate.  Tolerances:
exact (zero) unless stated, 1e-9 for the numeric comparisons; every rank is
exact.
"""

import random
import time
from fractions import Fraction

import pytest

from bbgkz.ring import hat_quotient_dims, hat_restriction_rank, jacobian_dims, r1_dims
from bbgkz.solver import check_residuals, exact_rank, filtration_dims, solve_recursion
from conftest import evaluate_series, make_problem, restricted_rank, tables_of
from test_torsion import lift_full_basis

CORE_FIXTURES = ["z2", "ex51", "ex52", "p1", "p2", "square_z2"]
ALL_FIXTURES = CORE_FIXTURES + ["repeated", "g3"]


def verdict(num, label, passed):
    print(f"CRITERION {num} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed


def test_criterion_01_dimension_theorem():
    ok = True
    for name in CORE_FIXTURES:
        t0 = time.monotonic()
        S, f, _ = make_problem(name)
        jac = jacobian_dims(f, S, S.rank + 1)
        expected = S.volume * S.group.torsion_order
        elapsed = time.monotonic() - t0
        ok = ok and jac.total == expected and elapsed < 5.0
    verdict(1, "quotient total = volume x torsion order, each fixture < 5 s", ok)


def test_criterion_02_solution_dimension():
    ok = True
    rng = random.Random(23)
    for name in CORE_FIXTURES:
        S, f, _ = make_problem(name)
        r = S.rank
        expected = S.volume * S.group.torsion_order
        for _ in range(5):
            beta = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(r))
            basis = solve_recursion(f, beta, S, truncation=r + 1)
            ok = ok and len(basis) == expected
    verdict(2, "solution count = volume x torsion for 5 seeded beta each", ok)


def test_criterion_03_filtration_theorem():
    ok = True
    for name in ALL_FIXTURES:
        S, f, beta = make_problem(name)
        basis = solve_recursion(f, beta, S, truncation=S.rank + 1)
        filt = filtration_dims(basis)
        jac = jacobian_dims(f, S, S.rank + 1)
        ok = ok and filt.per_degree == jac.per_degree
    verdict(3, "filtration graded counts = quotient graded dims", ok)


def test_criterion_04_duality_and_vanishing():
    ok = True
    for name in ALL_FIXTURES:
        S, f, _ = make_problem(name)
        r = S.rank
        full = jacobian_dims(f, S, r + 2).per_degree
        interior = jacobian_dims(f, S, r + 2, region="interior").per_degree
        ok = ok and all(interior[k] == full[r - k] for k in range(r + 1))
        ok = ok and all(d == 0 for d in full[r + 1:] + interior[r + 1:])
    verdict(4, "interior dims = full dims reversed, zero above the rank", ok)


def test_criterion_05_worked_example_match():
    S, f, _ = make_problem("z2")
    beta = Fraction(3, 2)
    basis = solve_recursion(f, (beta,), S, truncation=8)
    x1, x2, bf = 2.0, 1.0, float(beta)
    c0 = S.group.element((0,), (0,))
    worst = 0.0
    for ti, t in enumerate(tables_of(basis)):
        def g(k, c):
            return complex(t.entries.get(S.group.element((k,), (c,)), 0))
        a = (g(0, 0) + g(0, 1)) / 2 / (x1 + x2) ** bf
        b = (g(0, 0) - g(0, 1)) / 2 / (x1 - x2) ** bf
        for dz in [(0.004, -0.003), (0.01, 0.006), (-0.005, 0.002)]:
            z = (x1 + dz[0], x2 + dz[1])
            want = a * (z[0] + z[1]) ** bf + b * (z[0] - z[1]) ** bf
            got = evaluate_series(basis.stack, ti, c0, z)
            scale = max(1.0, abs(want))
            worst = max(worst, abs(got - want) / scale)
    verdict(5, "series matches A(z1+z2)^b + B(z1-z2)^b to 1e-9", worst < 1e-9)


def test_criterion_06_hat_module_freeness():
    ok = True
    for name in ALL_FIXTURES:
        S, f, beta = make_problem(name)
        r = S.rank
        jac = jacobian_dims(f, S, r + 1)
        betas = [beta, (Fraction(0),) * r,
                 tuple(Fraction(3, 7) + k for k in range(r))]
        for b in betas:
            hat = hat_quotient_dims(f, b, S, filtration_bound=r + 1)
            ok = ok and hat.total == jac.total
            ok = ok and hat.per_degree == jac.per_degree
        stable = hat_quotient_dims(f, beta, S, filtration_bound=r + 3)
        ok = ok and stable.total == jac.total
        ok = ok and stable.per_degree[:r + 2] == jac.per_degree
    verdict(6, "twisted quotient total beta-independent, graded match, stable", ok)


def test_criterion_07_restriction_rank_three_way():
    ok = True
    for name in ALL_FIXTURES:
        S, f, _ = make_problem(name)
        r = S.rank
        basis0 = solve_recursion(f, (Fraction(0),) * r, S, truncation=r + 1)
        sol = restricted_rank(basis0)
        hat = hat_restriction_rank(f, S)
        r1 = r1_dims(f, S).total
        ok = ok and sol == hat == r1
        if name in ("ex51", "ex52"):
            ok = ok and sol == 0
    verdict(7, "solution = module = ring restriction rank at beta 0", ok)


def test_criterion_08_torsion_lifting():
    _, lifted2, worst2 = lift_full_basis("z2", beta=(Fraction(3, 2),))
    rank2 = exact_rank(lifted2)
    S3, lifted3, worst3 = lift_full_basis("g3")
    rank3 = exact_rank(lifted3)
    ok = rank2 == 2 and rank3 == 3 and worst2 == worst3 == 0.0
    verdict(8, "exact lifted ranks 2 and 3, exact defects zero", ok)


def test_criterion_09_pde_residuals():
    ok = True
    for name in ALL_FIXTURES:
        S, f, beta = make_problem(name)
        basis = solve_recursion(f, beta, S, truncation=S.rank + 3)
        report = check_residuals(basis)
        ok = ok and report.shift_identity_exact
        ok = ok and all(c.passed for c in report.checks)
    verdict(9, "recursion identity exact; numeric order >= D - deg - 1", ok)


def test_criterion_10_repetition_collapse():
    from bbgkz.ring import FVector
    S, _, beta = make_problem("repeated")
    delta = Fraction(3, 4)
    a = solve_recursion(FVector((Fraction(2), Fraction(1), Fraction(3))),
                        beta, S, truncation=5)
    b = solve_recursion(
        FVector((Fraction(2) + delta, Fraction(1) - delta, Fraction(3))),
        beta, S, truncation=5)
    ok = len(a) == len(b) and all(
        ta.entries == tb.entries for ta, tb in zip(tables_of(a), tables_of(b)))
    verdict(10, "tables invariant under shifting weight between repeats", ok)
