"""Problem parsing, report generation, exit codes, and determinism."""

import dataclasses
import glob
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from bbgkz import cli, ring, solver
from bbgkz.abelian import AbelianGroup
from bbgkz.polyhedral import KPrimGuardError, build_semigroup
from bbgkz.ring import DimReport, FVector
from bbgkz.solver import InconsistentSystem
from bbgkz.torsion import DegenerateQuotient, ResidualTooLarge, p_rho
from conftest import assert_stacks_equal


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_problem(tmp_path, data, name="problem.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


BASE_PROBLEM = {
    "schema_version": 1,
    "group": {"rank": 1},
    "vectors": [{"free": [1]}],
    "beta": ["0"],
    "x_policy": {"mode": "explicit", "values": ["3"]},
}
FIXTURES = ["z2_example", "ex51", "ex52", "p1", "p2", "square_z2", "repeated", "g3_torsion"]


class TestScalarSerialization:
    def test_rational_round_trip(self):
        s = cli.parse_scalar("-7/3")
        assert cli.format_scalar(s) == "-7/3"

    def test_gaussian_round_trip(self):
        s = cli.parse_scalar({"re": "1/2", "im": "-2"})
        assert cli.format_scalar(s) == {"re": "1/2", "im": "-2"}

    def test_bad_rational(self):
        with pytest.raises(cli.ProblemError):
            cli.parse_scalar("1.5")


class TestFixtures:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_parses(self, name):
        spec = cli.load_problem(cli.fixture_path(name))
        assert spec.name == name

    def test_z2_report(self, tmp_path):
        out = str(tmp_path / "r.json")
        report, code = cli.run(cli.fixture_path("z2_example"),
                               timings=False, out_path=out)
        assert code == 0
        assert report["all_passed"]
        assert report["solution_basis"]["dimension"] == 2
        assert report["torsion_lift"]["rank"] == 2
        on_disk = read(out)
        assert on_disk == report

    def test_ex51_beta_zero_restriction_ranks(self):
        report, code = cli.run(cli.fixture_path("ex51"), timings=False)
        assert code == 0
        rr = report["restriction_ranks"]
        assert rr == {"solution_side": 0, "hat_side": 0, "r1_total": 0}

    def test_ex52_restriction_ranks_zero(self):
        report, code = cli.run(cli.fixture_path("ex52"), timings=False,
                               tasks=["analyze", "restrict"])
        assert code == 0
        rr = report["restriction_ranks"]
        assert rr == {"solution_side": 0, "hat_side": 0, "r1_total": 0}

    def test_report_schema(self, tmp_path):
        out = str(tmp_path / "r.json")
        _, code = cli.run(cli.fixture_path("p1"), timings=False, out_path=out)
        assert code == 0
        schema = cli._load_schema("report.schema.json")
        jsonschema.validate(read(out), schema)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cli.run(cli.fixture_path("p2"), timings=False, out_path=a)
        cli.run(cli.fixture_path("p2"), timings=False, out_path=b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_seed_changes_base_point(self):
        ra, _ = cli.run(cli.fixture_path("p1"), timings=False, seed=0,
                        tasks=["analyze"])
        rb, _ = cli.run(cli.fixture_path("p1"), timings=False, seed=4,
                        tasks=["analyze"])
        assert ra["base_point"] != rb["base_point"]
        assert ra["all_passed"] and rb["all_passed"]

    def test_timings_present_by_default(self):
        report, _ = cli.run(cli.fixture_path("ex51"))
        assert "timings_seconds" in report
        report, _ = cli.run(cli.fixture_path("ex51"), timings=False)
        assert "timings_seconds" not in report


SWAPS = (1.0, 2.5, True, None, "1/0", {}, [], float("nan"))


def _subschemas(schema):
    yield schema
    for key, value in schema.items():
        subs = (value.values() if key in ("properties", "$defs") else value if key == "oneOf"
                else [value] if key in ("items", "additionalProperties") else [])
        for sub in subs:
            if isinstance(sub, dict):
                yield from _subschemas(sub)


def _mutant(text, rng, keys):
    """The JSON document text with one value at depth at most 4 dropped or
    swapped for one of SWAPS, or one of keys added to an object: deeper
    values sit in report tables, which the schemas leave unchecked."""
    doc = json.loads(text)
    slots = []  # (container, key) of every value at depth 1 to 4

    def walk(node, depth):
        if isinstance(node, (dict, list)) and depth < 4:
            for k in (list(node) if isinstance(node, dict) else range(len(node))):
                slots.append((node, k))
                walk(node[k], depth + 1)
    walk(doc, 0)
    container, key = rng.choice(slots)
    op = rng.randrange(3)
    if op == 0:
        del container[key]
    elif op == 1:
        target = rng.choice([doc] + [c[k] for c, k in slots if isinstance(c[k], dict)])
        target[rng.choice(keys)] = json.loads(json.dumps(rng.choice(SWAPS + (container[key],))))
    else:
        container[key] = json.loads(json.dumps(rng.choice(SWAPS)))
    return doc


class TestValidationErrors:
    def test_degree_two_vector(self, tmp_path):
        data = dict(BASE_PROBLEM)
        data["vectors"] = [{"free": [1]}, {"free": [2]}]
        data["x_policy"] = {"mode": "explicit", "values": ["1", "1"]}
        report, code = cli.run(write_problem(tmp_path, data))
        assert code == 2
        assert "NoDegreeFunctional" in report["error"]

    def test_schema_violation(self, tmp_path):
        report, code = cli.run(write_problem(tmp_path, {"vectors": []}))
        assert code == 2
        assert "schema violation" in report["error"]

    @pytest.mark.parametrize("data", [
        {"vectors": []},
        dict(BASE_PROBLEM, beta=[3]),
        dict(BASE_PROBLEM, x_policy={"mode": "explicit"}),
    ])
    def test_schema_message_matches_jsonschema(self, tmp_path, data):
        with pytest.raises(jsonschema.ValidationError) as err:
            jsonschema.validate(data, cli._load_schema("problem.schema.json"))
        report, code = cli.run(write_problem(tmp_path, data))
        assert code == 2
        assert report["error"] == f"ProblemError: schema violation: {err.value.message}"

    @pytest.mark.parametrize("name", ["problem.schema.json", "report.schema.json"])
    def test_bundled_schema_uses_only_interpreted_keywords(self, name):
        """Each bundled schema meets jsonschema's metaschema, is draft
        2020-12, the draft whose meaning _valid reads, and uses only keywords
        _valid interprets; the enum and const values it compares with == are
        strings."""
        schema = cli._load_schema(name)
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        assert cls is jsonschema.Draft202012Validator
        for sub in _subschemas(schema):
            assert set(sub) <= cli.KEYWORDS, set(sub) - cli.KEYWORDS
            assert all(isinstance(v, str) for v in sub.get("enum", []) + [sub.get("const", "")])

    def test_keyword_check_agrees_with_jsonschema(self):
        """_valid against jsonschema, the reference, on every bundled and golden
        problem, every golden report and seeded mutations of them."""
        problems = sorted(glob.glob(os.path.join(GOLDEN, "*.problem.json"))
                          + [cli.fixture_path(n) for n in FIXTURES])
        reports = sorted(set(glob.glob(os.path.join(GOLDEN, "*.json"))) - set(problems))
        schemas = [cli._load_schema(n) for n in ("problem.schema.json", "report.schema.json")]
        # every property name of the bundled schemas, and one that none has
        keys = sorted({k for schema in schemas for sub in _subschemas(schema)
                       for k in sub.get("properties", {})}) + ["extra"]
        rng = random.Random(0)
        verdicts = []
        for schema, paths, mutants in zip(schemas, (problems, reports), (1800, 800)):
            reference = jsonschema.validators.validator_for(schema)(schema).is_valid
            docs = [read(p) for p in paths]
            texts = [json.dumps(doc) for doc in docs]
            docs += [_mutant(rng.choice(texts), rng, keys) for _ in range(mutants)]
            for doc in docs:
                verdict = cli._valid(schema, doc, schema)
                assert verdict == reference(doc), doc
                verdicts.append(verdict)
        assert 0.2 < verdicts.count(False) / len(verdicts) < 0.8

    def test_not_spanning(self, tmp_path):
        data = dict(BASE_PROBLEM)
        data["group"] = {"rank": 2}
        data["vectors"] = [{"free": [0, 1]}, {"free": [3, 1]}]
        data["beta"] = ["0", "0"]
        data["x_policy"] = {"mode": "explicit", "values": ["1", "1"]}
        report, code = cli.run(write_problem(tmp_path, data))
        assert code == 2
        assert "NotSpanning" in report["error"]

    def test_degenerate_explicit_x(self, tmp_path):
        data = {
            "schema_version": 1,
            "group": {"rank": 1, "torsion_invariants": [2]},
            "vectors": [{"free": [1], "torsion": [0]},
                        {"free": [1], "torsion": [1]}],
            "beta": ["0"],
            "x_policy": {"mode": "explicit", "values": ["1", "1"]},
        }
        report, code = cli.run(write_problem(tmp_path, data))
        assert code == 2
        assert "degenerate" in report["error"]

    def test_unknown_task(self):
        report, code = cli.run(cli.fixture_path("ex51"), tasks=["bogus"])
        assert code == 2

    def test_unreadable_file(self, tmp_path):
        report, code = cli.run(str(tmp_path / "missing.json"))
        assert code == 2

    def test_truncation_too_small(self):
        report, code = cli.run(cli.fixture_path("p1"), truncation=1)
        assert code == 2


class TestFailedComputation:
    """Errors the theory rules out are failed checks with exit code 3."""

    @pytest.mark.parametrize("error, target, fixture, task", [
        (InconsistentSystem, "solve_recursion", "ex51", "solve"),
        (DegenerateQuotient, "lift_and_verify", "g3_torsion", "lift"),
        (ResidualTooLarge, "lift_and_verify", "g3_torsion", "lift"),
        (KPrimGuardError, "k_prim", "ex51", "analyze"),
    ])
    def test_exit_code_three(self, tmp_path, monkeypatch, error, target, fixture, task):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(cli, target, fail)
        out = str(tmp_path / "r.json")
        report, code = cli.run(cli.fixture_path(fixture), tasks=[task],
                               timings=False, out_path=out)
        assert code == 3
        assert not report["all_passed"]
        assert report["checks"][-1] == {"name": f"{task}_completed", "passed": False,
                                        "error": f"{error.__name__}: injected"}
        jsonschema.validate(read(out), cli._load_schema("report.schema.json"))


def _bump(dims):
    """The dims with one more in degree 0."""
    return DimReport.of((dims.per_degree[0] + 1, *dims.per_degree[1:]))


def _shift(dims):
    """The dims with one moved from degree 0 to degree 1: the same total."""
    d = dims.per_degree
    return DimReport.of((d[0] - 1, d[1] + 1, *d[2:]))


def _drop_germ(basis):
    """The basis without its last germ."""
    stack = dataclasses.replace(basis.stack, layers=[(P[:, :-1], den)
                                                     for P, den in basis.stack.layers])
    return dataclasses.replace(basis, stack=stack, leading=basis.leading[:-1])


def _corrupt_layer_one(basis):
    """The basis with one numerator of its first germ's degree-1 values off
    by one: the quotient germ no longer solves the recursion."""
    layers = list(basis.stack.layers)
    P, den = layers[1]
    P = P.copy()
    P[0, 0, 0] += 1
    layers[1] = (P, den)
    return dataclasses.replace(basis, stack=dataclasses.replace(basis.stack, layers=layers))


def _fail_first(rr):
    """The residual report with its first numeric check failed."""
    return dataclasses.replace(rr, checks=[dataclasses.replace(rr.checks[0], passed=False),
                                           *rr.checks[1:]])


# (check, cli name patched, mutation of its result, task), one id each
MUTATIONS = [
    # only the interior call is off; the full dims keep the hat checks
    ("interior_dual_to_full", "jacobian_dims",
     lambda real, *a, **kw: (_shift if kw.get("region") == "interior" else lambda d: d)(
         real(*a, **kw)), "analyze"),
    # hat0, the beta = 0 call, is off in total; hat keeps the graded check
    ("hat_total_matches_jacobian", "hat_quotient_dims",
     lambda real, f, beta, S, **kw: (_bump if beta == (0,) * S.rank else lambda d: d)(
         real(f, beta, S, **kw)), "analyze"),
    ("hat_graded_matches_jacobian", "hat_quotient_dims",
     lambda real, *a, **kw: _shift(real(*a, **kw)), "analyze"),
    ("solution_dimension", "solve_recursion",
     lambda real, *a, **kw: _drop_germ(real(*a, **kw)), "solve"),
    ("restriction_rank_three_way", "r1_dims",
     lambda real, *a: _bump(real(*a)), "restrict"),
    ("torsion_lift_rank", "exact_rank", lambda real, *a: real(*a) - 1, "lift"),
    ("residuals", "check_residuals",
     lambda real, *a: dataclasses.replace(real(*a), shift_identity_exact=False),
     "residuals"),
    ("residuals", "check_residuals", lambda real, *a: _fail_first(real(*a)), "residuals"),
    # a quotient germ off in one value: the exact lift check stops the lift
    ("lift_completed", "solve_recursion",
     lambda real, *a, **kw: _corrupt_layer_one(real(*a, **kw)), "lift"),
]
MUTATION_IDS = ["interior_dual", "hat_total", "hat_graded", "solution_dimension",
                "restriction_rank", "torsion_lift_rank", "residuals_exact",
                "residuals_numeric", "lift_completed"]
# cannot fail yet (ROADMAP item 2(a)): on the kernel route only its zero tail
# can, as the germs are read off only when their counts are the Jacobian dims
CANNOT_FAIL_YET = {"filtration_matches_jacobian"}


class TestChecksCanFail:
    """Each report check that can fail today fails, alone and with exit code
    3, when the one cli input it reads is mutated.  Left out, as it cannot
    fail yet: filtration_matches_jacobian."""

    @pytest.mark.parametrize("check, target, mutate, task", MUTATIONS, ids=MUTATION_IDS)
    def test_mutation_fails_its_check(self, check, target, mutate, task, monkeypatch):
        real = getattr(cli, target)
        monkeypatch.setattr(cli, target, lambda *a, **kw: mutate(real, *a, **kw))
        report, code = cli.run(cli.fixture_path("square_z2"), tasks=[task], timings=False)
        assert code == 3
        assert [c["name"] for c in report["checks"] if not c["passed"]] == [check]

    def test_every_golden_check_is_covered(self):
        """Every check the golden reports carry has a mutation above, is a
        `<task>_completed` check (TestFailedComputation), or is the one
        documented exception: a new check that cannot fail shows here."""
        completed = {f"{task}_completed" for task in cli.ALL_TASKS}
        covered = {case[0] for case in MUTATIONS} | completed | CANNOT_FAIL_YET
        names = set()
        for path in glob.glob(os.path.join(GOLDEN, "*.json")):
            if not path.endswith(".problem.json"):
                names.update(c["name"] for c in read(path)["checks"])
        assert "interior_dual_to_full" in names and names <= covered, names - covered


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class TestLiftLanes:
    """The lift reads its rank from RowSpace and its quotient certificate
    from the quotient solve, at the problem's x for every character order; a
    degenerate quotient point is a failed lift."""

    @pytest.mark.parametrize("name", ["p2_z4", "hexagon_z2"])
    def test_exact_lane_uses_no_float_rank_or_quotient_check(self, name, monkeypatch):
        def problem_only(f, S, *args):
            assert S.group.torsion_order > 1, "is_nondegenerate called on the quotient"
            return check(f, S, *args)

        check = ring.is_nondegenerate
        monkeypatch.setattr(cli, "is_nondegenerate", problem_only)
        monkeypatch.setattr(ring, "is_nondegenerate", problem_only)
        report, code = cli.run(os.path.join(GOLDEN, f"{name}.problem.json"), timings=False)
        assert code == 0
        lift = report["torsion_lift"]
        assert lift["rank"] == lift["expected"]

    @staticmethod
    def lift_block(spec, S, f, D=5):
        report, checks = {}, []
        cli._task_lift(spec, S, f, D, report, checks)
        assert all(c["passed"] for c in checks)
        return report["torsion_lift"]

    def test_degenerate_quotient_point_fails_the_lift(self):
        """P^1 with Z/2 on one end point: at x = (1, 2, -1) the trivial
        character's quotient point is nondegenerate and the other one's,
        (-1, 2, -1), has discriminant 0, so x fails its own certificate and
        the lift, run at it regardless, stops on that quotient solve."""
        N = AbelianGroup(2, (2,))
        S = build_semigroup(N, (N.element((-1, 1), (1,)), N.element((0, 1), (0,)),
                                N.element((1, 1), (0,))))
        spec = type("Spec", (), {"beta": (Fraction(1, 2), Fraction(-1, 3))})
        bad, good = FVector((1, 2, -1)), FVector((1, 2, 3))
        assert not ring.is_nondegenerate(bad, S)[0] and ring.is_nondegenerate(good, S)[0]
        with pytest.raises((InconsistentSystem, DegenerateQuotient)):
            self.lift_block(spec, S, bad)
        assert self.lift_block(spec, S, good) == {"lifted_tables": 4, "rank": 4, "expected": 4}

    @pytest.mark.parametrize("name, solves", [("p2_z4", 3), ("p2_z4_cbeta", 4),
                                              ("seg5_z3", 2)])
    def test_conjugate_characters_reuse_the_solve(self, name, solves, monkeypatch):
        """With x and beta rational, the character whose quotient point is
        the Galois image sigma_a of an earlier one takes that solve's tables
        under sigma_a, and they equal a direct solve's at truncation
        rank + 1, array for array and in the same order: one solve per
        Galois orbit, 3 for Z/4 and 2 for Z/3; with a complex beta every
        character is solved."""
        spec = cli.load_problem(os.path.join(GOLDEN, f"{name}.problem.json"))
        S = build_semigroup(spec.group, spec.vectors)
        f, _ = spec.resolve_x(S)
        Q = cli.build_quotient(S.group, S.A)
        solves_run, bases = [], []
        solve, lift = cli.solve_recursion, cli.lift_and_verify
        monkeypatch.setattr(cli, "solve_recursion",
                            lambda *a, **k: solves_run.append(1) or solve(*a, **k))
        monkeypatch.setattr(cli, "lift_and_verify",
                            lambda basis, *a: bases.append(basis) or lift(basis, *a))
        assert len(cli._lifts(spec, S, Q, f)) == S.group.torsion_order
        assert len(solves_run) == solves

        for rho, basis in zip(S.group.characters(), bases):
            direct = solve(p_rho(rho, f, Q), spec.beta, Q.semigroup, truncation=S.rank + 1)
            assert basis.leading == direct.leading
            assert_stacks_equal(basis.stack, direct.stack)

    @pytest.mark.parametrize("name", ["p2_z4", "seg5_z3", "square_z5"])
    def test_quotient_solves_stop_at_rank_plus_one(self, name, monkeypatch):
        """Every quotient solve of the lift runs at truncation rank + 1, below
        the problem's own truncation, and the lift still has full rank."""
        path = os.path.join(GOLDEN, f"{name}.problem.json")
        spec = cli.load_problem(path)
        r = spec.group.rank
        assert spec.truncation > r + 1
        truncations = []
        solve = cli.solve_recursion
        monkeypatch.setattr(cli, "solve_recursion", lambda *a, truncation: (
            truncations.append(truncation) or solve(*a, truncation=truncation)))
        report, code = cli.run(path, tasks=["lift"], timings=False)
        assert code == 0 and report["torsion_lift"]["rank"] == report["torsion_lift"]["expected"]
        assert truncations and set(truncations) == {r + 1}

    @pytest.mark.parametrize("fault", ["tail", "total"])
    def test_failed_certificate_fails_the_lift(self, fault, monkeypatch):
        """A quotient solve whose filtration fails the certificate, which the
        certificate of x rules out, is a failed lift_completed check."""
        path = cli.fixture_path("z2_example")
        spec = cli.load_problem(path)
        S = build_semigroup(spec.group, spec.vectors)
        f, _ = spec.resolve_x(S)
        lift = self.lift_block(spec, S, f)
        assert lift["rank"] == lift["expected"]
        dims = cli.filtration_dims

        def off(basis):
            """One more count at degree 0 or, with the total kept, one moved
            from degree 0 to rank + 1."""
            counts = list(dims(basis).per_degree)
            counts[0] += 1
            if fault == "tail":
                counts[0] -= 2
                counts[S.rank + 1] += 1
            return DimReport.of(counts)

        monkeypatch.setattr(cli, "filtration_dims", off)
        report, code = cli.run(path, tasks=["lift"], timings=False)
        assert code == 3 and "torsion_lift" not in report
        assert report["checks"] == [{"name": "lift_completed", "passed": False, "error":
                                     "DegenerateQuotient: the quotient point of character "
                                     "(0,) is degenerate"}]


class TestSharedWork:
    def test_p3_one_hat_base(self, monkeypatch):
        """Each hat base (beta and beta = 0) is reduced once, and both solves
        read their germs off it, so no step is eliminated."""
        hat_bases, steps = [], []
        rows = ring._hat_rows
        monkeypatch.setattr(ring, "_hat_rows", lambda f, beta, *a: hat_bases.append(
            any(map(any, beta.parts))) or rows(f, beta, *a))
        monkeypatch.setattr(solver, "solve_sparse", lambda *a: steps.append(1))
        report, code = cli.run(os.path.join(GOLDEN, "p3.problem.json"), timings=False)
        assert code == 0 and report["volume"] == 4
        assert sorted(hat_bases) == [False, True]
        assert steps == []

    def test_restrict_alone_solves_off_its_hat_space(self, monkeypatch):
        """Without analyze, restrict reduces the beta = 0 hat space before its
        solve, which then eliminates no step."""
        monkeypatch.setattr(solver, "solve_sparse", None)
        report, code = cli.run(os.path.join(GOLDEN, "p3.problem.json"), tasks=["restrict"],
                               timings=False)
        assert code == 0 and report["restriction_ranks"]["solution_side"] == 3

    @pytest.mark.parametrize("name, steps", [("z2_example", 2), ("g3_torsion", 1),
                                             ("ex51", 1)])
    def test_steps_only_above_analyzed_bound(self, name, steps, monkeypatch):
        """analyze reduces its hat spaces at min(D, rank + 3), below these
        fixtures' truncation D; solve reads the germs of degrees up to that
        bound off them and eliminates only the steps above it, and restrict
        solves only up to that bound, so it eliminates no step."""
        calls, solve_sparse = [], solver.solve_sparse
        monkeypatch.setattr(solver, "solve_sparse",
                            lambda *a: calls.append(1) or solve_sparse(*a))
        report, code = cli.run(cli.fixture_path(name), tasks=["analyze", "solve", "restrict"],
                               timings=False)
        assert code == 0 and len(calls) == steps

    @pytest.mark.parametrize("name", ["z2_example", "g3_torsion", "ex51"])
    def test_restrict_solves_up_to_its_hat_bound(self, name, monkeypatch):
        """With D > rank + 3, restrict's beta = 0 solve stops at rank + 3, the
        bound of its hat space: the restricted rank reads layers up to the
        rank only."""
        truncations, solve = [], cli.solve_recursion
        monkeypatch.setattr(cli, "solve_recursion", lambda *a, truncation: truncations.append(
            truncation) or solve(*a, truncation=truncation))
        path = cli.fixture_path(name)
        spec = cli.load_problem(path)
        report, code = cli.run(path, tasks=["restrict"], timings=False)
        assert spec.truncation > spec.group.rank + 3
        assert code == 0 and truncations == [spec.group.rank + 3]

    def test_r1_dims_once_per_run(self, monkeypatch):
        """analyze and restrict get the one r1_dims report cached on S."""
        calls = []
        r1 = ring.r1_dims
        monkeypatch.setattr(cli, "r1_dims", lambda *a: calls.append(r1(*a)) or calls[-1])
        report, code = cli.run(os.path.join(GOLDEN, "p3.problem.json"), timings=False)
        assert code == 0 and len(calls) == 2 and calls[0] is calls[1]


class TestMain:
    def test_main_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        code = cli.main([cli.fixture_path("ex51"), "--no-timings",
                         "--out", out])
        assert code == 0
        assert read(out)["all_passed"]

    def test_main_stdout(self, capsys):
        code = cli.main([cli.fixture_path("ex51"), "--no-timings",
                         "--tasks", "analyze"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"]

    @pytest.mark.parametrize("to_file", [False, True])
    def test_invalid_report_never_printed_or_written(self, to_file, tmp_path, capsys,
                                                      monkeypatch):
        """run validates every full report before any output: one that breaks
        the report schema raises on stdout as on --out, and nothing is
        emitted."""
        monkeypatch.setattr(cli, "_task_analyze",
                            lambda spec, S, f, D, report, checks: report.update(volume="2"))
        out = tmp_path / "r.json"
        with pytest.raises(jsonschema.ValidationError, match="is not of type 'integer'"):
            cli.main([cli.fixture_path("ex51"), "--tasks", "analyze",
                      *(["--out", str(out)] if to_file else [])])
        assert not capsys.readouterr().out and not os.listdir(tmp_path)

    @pytest.mark.parametrize("out", ["missing/r.json", "dir"])
    def test_unwritable_out(self, out, tmp_path, capsys):
        """An --out path that cannot be written is bad input: exit 2, one
        line on stderr, and no report or temporary file left behind."""
        (tmp_path / "dir").mkdir()
        out = str(tmp_path / out)
        code = cli.main([cli.fixture_path("ex51"), "--tasks", "analyze", "--out", out])
        reason = "Is a directory" if out.endswith("dir") else "No such file or directory"
        assert code == 2
        assert capsys.readouterr().err == f"cannot write report {out}: {reason}\n"
        assert os.listdir(tmp_path) == ["dir"] and not os.listdir(tmp_path / "dir")

    @pytest.mark.parametrize("valid", [True, False])
    def test_jsonschema_imported_only_to_explain(self, valid, tmp_path):
        """In a fresh interpreter, a valid run never imports jsonschema; an
        invalid problem imports it and exits 2 with its message."""
        path = cli.fixture_path("ex51")
        if not valid:
            path = write_problem(tmp_path, dict(BASE_PROBLEM, beta=[3]))
            with pytest.raises(jsonschema.ValidationError) as err:
                jsonschema.validate(read(path), cli._load_schema("problem.schema.json"))
        script = ("import sys; from bbgkz import cli; code = cli.main(sys.argv[1:]); "
                  "print('jsonschema' in sys.modules); sys.exit(code)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-c", script, path, "--out", str(tmp_path / "r.json")]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.stdout == f"{not valid}\n"
        if valid:
            assert proc.returncode == 0 and not proc.stderr
            assert read(tmp_path / "r.json")["all_passed"]
        else:
            assert proc.returncode == 2
            assert proc.stderr == f"ProblemError: schema violation: {err.value.message}\n"

    def test_main_error_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        code = cli.main([str(p)])
        assert code == 2
        assert capsys.readouterr().err
