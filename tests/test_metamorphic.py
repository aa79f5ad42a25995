"""Metamorphic invariants of whole reports.

Permuting the v_i, with the resolved x permuted the same way and given as
explicit values, changes no number that the theory fixes: the dims blocks,
the solution dimension and filtration, the three restriction ranks and the
lift rank.  Nor does a unimodular change of basis of N applied to the free
parts of the v_i and to beta, with the resolved x given as explicit values.
"""

import json
import os
import random

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
    beta = change_basis([QQI(cli.parse_scalar(b)) for b in data["beta"]])
    moved = dict(data, vectors=[dict(v, free=change_basis(v["free"])) for v in data["vectors"]],
                 beta=[cli.format_scalar(b) for b in beta],
                 x_policy={"mode": "explicit", "values": report["base_point"]})
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(moved), encoding="utf-8")
    got, code = cli.run(str(path), timings=False)
    assert code == 0
    assert fixed_numbers(got) == fixed_numbers(report)
