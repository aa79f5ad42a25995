"""Fresh fixture reports against the reports stored in tests/golden.

Each golden file is the `--no-timings` report of a bundled fixture, or of
a problem stored beside it: the hexagon (solve and residuals at truncation 5),
P^3 (analyze, solve and restrict at truncation 5), p2_z4 (exact lift through
Z/4 characters, whose values include +-i), p2_z4_cbeta (p2_z4 with a
complex beta and every task: complex hat spaces and step systems, solved
by restriction of scalars), p2_z4_spelled (p2_z4 with every task, beta and
an explicit complex x spelled with leading zeros, '-0', unreduced fractions
and zero imaginary parts), hexagon_z2 (exact lift through
Z/2 characters), seg5_z3 (lift through Z/3 characters, over Q(zeta_3)) and
sweep144_z3 (a rank-3 Z/3 problem at seed 144, every task, lift rank 18);
and of the benchmark's square_z3 (the square with Z/3 torsion, lift rank
6) and its Z/5 twin square_z5 (lifted over Q(zeta_5), lift rank 10); and
st_curve, the Sturmfels-Takayama monomial curve (0, 1), (1, 1), (3, 1),
(4, 1) at its classical jump point beta = (1, 2), written with the degree
coordinate last, at a seeded x with every task: the first configuration
in a problem file that is not normal, since (2, 1) lies in its cone but is
no sum of its vectors.  A
`--no-timings` report holds no float, so the files must match byte for byte.
"""

import os
import pathlib

import pytest

from bbgkz import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FIXTURES = ["z2_example", "ex51", "ex52", "p1", "p2", "square_z2", "repeated",
            "g3_torsion"]


PROBLEMS = {name: cli.fixture_path(name) for name in FIXTURES}
PROBLEMS.update({name: os.path.join(GOLDEN, f"{name}.problem.json")
                 for name in ("hexagon", "p3", "p2_z4", "p2_z4_cbeta", "p2_z4_spelled",
                              "hexagon_z2", "seg5_z3", "sweep144_z3", "square_z5",
                              "st_curve")})
PROBLEMS["square_z3"] = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                                     "problems", "square_z3.json")


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    _, code = cli.run(PROBLEMS[name], timings=False, out_path=str(out))
    assert code == 0
    assert out.read_bytes() == pathlib.Path(GOLDEN, f"{name}.json").read_bytes()
