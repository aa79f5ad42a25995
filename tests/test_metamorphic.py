"""Metamorphic invariants of whole reports.

Permuting the v_i, with the resolved x permuted the same way and given as
explicit values, changes no number that the theory fixes: the dims blocks,
the solution dimension and filtration, the three restriction ranks and the
lift rank.  Nor does a unimodular change of basis of N applied to the free
parts of the v_i and to beta, with the resolved x given as explicit values.

At integer beta, resonant ones included, the better-behaved system keeps
rank vol * |N_tors| (Borisov-Horja, arXiv:1011.5720), where the classical
GKZ rank of a configuration that is not normal, such as the
Sturmfels-Takayama curve or the rank-3 triangle_gap, jumps.
"""

import json
import os
import random
from fractions import Fraction
from itertools import product

import pytest

from bbgkz import cli
from conftest import QQI

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FIXTURES = ["z2_example", "ex51", "ex52", "p1", "p2", "square_z2", "repeated",
            "g3_torsion"]
PROBLEMS = {name: cli.fixture_path(name) for name in FIXTURES}
PROBLEMS.update({name.removesuffix(".problem.json"): os.path.join(GOLDEN, name)
                 for name in sorted(os.listdir(GOLDEN)) if name.endswith(".problem.json")})


def permutations(n, seeds=(1, 2)):
    """One seeded permutation of range(n) per seed, none the identity for
    n > 1."""
    out = []
    for seed in seeds:
        perm = random.Random(seed).sample(range(n), n)
        out.append(perm[1:] + perm[:1] if perm == sorted(perm) else perm)
    return out


def fixed_numbers(report):
    """The report's numbers that the theory fixes: they depend neither on
    the order of the v_i nor on the basis of N."""
    basis = report.get("solution_basis", {})
    return {"dims": report.get("dims"),
            "solution": (basis.get("dimension"), basis.get("filtration")),
            "restriction_ranks": report.get("restriction_ranks"),
            "lift_rank": report.get("torsion_lift", {}).get("rank")}


def change_basis(v):
    """Uv for U = E2·E1, where E1 adds x_1 to x_0 and E2 subtracts 2x_0 from
    x_{r-1}; in rank 1, U = (-1)."""
    if len(v) == 1:
        return [-v[0]]
    w = list(v)
    w[0] = w[0] + w[1]
    w[-1] = w[-1] - w[0] * 2
    return w


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_permuted_vectors(name, tmp_path):
    with open(PROBLEMS[name], encoding="utf-8") as fh:
        data = json.load(fh)
    report, code = cli.run(PROBLEMS[name], timings=False)
    assert code == 0
    want = fixed_numbers(report)
    for i, perm in enumerate(permutations(len(data["vectors"]))):
        permuted = dict(data, vectors=[data["vectors"][j] for j in perm],
                        x_policy={"mode": "explicit",
                                  "values": [report["base_point"][j] for j in perm]})
        path = tmp_path / f"perm{i}.json"
        path.write_text(json.dumps(permuted), encoding="utf-8")
        got, code = cli.run(str(path), timings=False)
        assert code == 0
        assert fixed_numbers(got) == want


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_unimodular_change_of_basis(name, tmp_path):
    with open(PROBLEMS[name], encoding="utf-8") as fh:
        data = json.load(fh)
    report, code = cli.run(PROBLEMS[name], timings=False)
    assert code == 0
    beta = change_basis([QQI(*(Fraction(*q) for q in cli.parse_scalar(b))) for b in data["beta"]])
    moved = dict(data, vectors=[dict(v, free=change_basis(v["free"])) for v in data["vectors"]],
                 beta=[cli.format_scalar((b.a, b.b), b.d) for b in beta],
                 x_policy={"mode": "explicit", "values": report["base_point"]})
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(moved), encoding="utf-8")
    got, code = cli.run(str(path), timings=False)
    assert code == 0
    assert fixed_numbers(got) == fixed_numbers(report)


# (problem, integer beta): the ST curve at beta_1 in -2..4 and beta_2 in
# -1..2, around its classical jump point (2, 1) (degree coordinate last),
# square_z5 and p2_z4 at 0 and at each +-e_j, and triangle_gap, a rank-3
# configuration that is not saturated, at every point of {-1, 0, 1}^3
INTEGER_BETAS = [("st_curve", (a, b)) for a in range(-2, 5) for b in range(-1, 3)] + [
    (name, beta) for name in ("square_z5", "p2_z4")
    for beta in [(0, 0, 0), (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
] + [("triangle_gap", beta) for beta in product((-1, 0, 1), repeat=3)]


@pytest.mark.parametrize("name, beta", INTEGER_BETAS,
                         ids=[f"{n}-{','.join(map(str, b))}" for n, b in INTEGER_BETAS])
def test_integer_beta(name, beta, tmp_path):
    """Every task passes at an integer beta, the torsion problems at
    truncation rank + 2: the solution dimension and the lift rank are
    vol * |N_tors|, and the hat dims are those at beta = 0."""
    with open(PROBLEMS[name], encoding="utf-8") as fh:
        data = json.load(fh)
    data.update(beta=[str(b) for b in beta], tasks=list(cli.ALL_TASKS))
    if name != "st_curve":
        data["truncation"] = data["group"]["rank"] + 2
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    report, code = cli.run(str(path), timings=False)
    assert code == 0
    rank = report["volume"] * report["torsion_order"]
    assert report["solution_basis"]["dimension"] == rank
    assert report["dims"]["hat_quotient"] == report["dims"]["hat_quotient_beta0"]
    if report["torsion_order"] > 1:
        assert report["torsion_lift"]["rank"] == rank
