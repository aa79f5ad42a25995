"""Problem parsing, report generation, exit codes, and determinism."""

import functools
import glob
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from bbgkz import cli, ring, solver
from bbgkz.abelian import AbelianGroup
from bbgkz.linalg import common
from bbgkz.polyhedral import build_semigroup
from bbgkz.ring import DimReport, FVector, NondegeneracyRetriesExhausted
from bbgkz.solver import InconsistentSystem
from bbgkz.torsion import DegenerateQuotient, ResidualTooLarge, p_rho
from conftest import QQI, assert_stacks_equal, replaced


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


def reformat(scalar):
    """A JSON scalar parsed and written back, over the lcm of its part's
    denominators."""
    m, parts, den = common([cli.parse_scalar(scalar)])
    return cli.format_scalar([part[0] for part in parts], den)


class TestScalarSerialization:
    def test_rational_round_trip(self):
        s = cli.parse_scalar("-7/3")
        assert s == ((-7, 3),)
        assert cli.format_scalar((-7,), 3) == reformat("-7/3") == "-7/3"

    def test_gaussian_round_trip(self):
        s = cli.parse_scalar({"re": "1/2", "im": "-2"})
        assert s == ((1, 2), (-2, 1))
        assert cli.format_scalar((1, -4), 2) == reformat({"re": "1/2", "im": "-2"}) \
            == {"re": "1/2", "im": "-2"}

    def test_lowest_terms(self):
        """Parts are written in lowest terms, over a den they need not share
        a factor with, as str(Fraction) writes them."""
        assert cli.parse_scalar("-06/04") == ((-6, 4),)
        assert reformat("-06/04") == "-3/2" and reformat("0/7") == "0"
        assert cli.format_scalar((6, 0), 4) == "3/2"
        assert cli.format_scalar((0, -8), 6) == {"re": "0", "im": "-4/3"}

    @pytest.mark.parametrize("scalar", ["3/0", "-0/00", {"re": "1", "im": "2/0"}])
    def test_zero_denominator(self, scalar):
        with pytest.raises(cli.ProblemError) as err:
            cli.parse_scalar(scalar)
        bad = scalar["im"] if isinstance(scalar, dict) else scalar
        assert str(err.value) == f"bad rational {bad!r}: zero denominator"

    @pytest.mark.parametrize("field", ["beta", "x"])
    @pytest.mark.parametrize("text, error", [
        ("3/0", "bad rational '3/0': zero denominator"),
        ("1" * 5000, "bad rational of 5000 characters: too many digits")],
        ids=["zero_denominator", "too_many_digits"])
    def test_bad_rational_exits_2(self, field, text, error, tmp_path):
        """A zero denominator, or more digits than int() reads, in beta or in
        an explicit x value is bad input, reported without the name of a
        Python class or the digits."""
        data = dict(BASE_PROBLEM, beta=[text]) if field == "beta" else dict(
            BASE_PROBLEM, x_policy={"mode": "explicit", "values": [text]})
        report, code = cli.run(write_problem(tmp_path, data), timings=False)
        assert (code, report) == (2, {"error": f"ProblemError: {error}"})

    def test_bad_rational(self):
        with pytest.raises(cli.ProblemError):
            cli.parse_scalar("1.5")

    def test_empty_object(self):
        """A scalar object needs 're' or 'im'; either alone is enough."""
        with pytest.raises(cli.ProblemError, match="expected 're' or 'im'"):
            cli.parse_scalar({})
        assert reformat({"im": "2"}) == {"re": "0", "im": "2"}

    @pytest.mark.parametrize("field", ["beta", "x"])
    def test_empty_object_exits_2(self, field, tmp_path):
        """An empty scalar object as beta or as an explicit x value is bad
        input, not 0."""
        data = dict(BASE_PROBLEM, beta=[{}]) if field == "beta" else dict(
            BASE_PROBLEM, x_policy={"mode": "explicit", "values": [{}]})
        report, code = cli.run(write_problem(tmp_path, data), timings=False)
        assert code == 2
        assert report["error"] == "ProblemError: bad scalar {}: expected 're' or 'im'"


@st.composite
def spelled_rationals(draw):
    """(string, Fraction) of a rational spelled as a problem file may spell
    it: leading zeros, '-0', numerator and denominator with a common
    factor."""
    num, den, k = draw(st.integers(0, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    sign = draw(st.sampled_from(["", "-"]))
    text = f"{sign}{'0' * draw(st.integers(0, 2))}{num * k}"
    if den * k != 1 or draw(st.booleans()):
        text += f"/{'0' * draw(st.integers(0, 2))}{den * k}"
    return text, Fraction(-num if sign else num, den)


@st.composite
def spelled_scalars(draw):
    """(JSON scalar, QQI): a spelled rational, or an object with 're', 'im' or
    both, each a spelled rational that may be zero."""
    if draw(st.booleans()):
        text, q = draw(spelled_rationals())
        return text, QQI(q)
    keys = draw(st.sampled_from([("re",), ("im",), ("re", "im")]))
    parts = {key: draw(spelled_rationals()) for key in keys}
    re, im = (parts[key][1] if key in parts else Fraction(0) for key in ("re", "im"))
    return {key: text for key, (text, _) in parts.items()}, QQI(re, im)


class TestScalarRoundTrip:
    """Scalars however spelled parse to their values: reports format them
    as canonical Fraction strings, and FVectors of them are the QQI
    oracle's."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(spelled_scalars())
    def test_format_is_canonical(self, scalar):
        text, q = scalar
        want = {"re": str(q.real), "im": str(q.imag)} if q.imag else str(q.real)
        assert reformat(text) == want

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(spelled_scalars(), min_size=1, max_size=4))
    def test_fvector_of_parsed_values(self, scalars):
        parsed = FVector.of(*common([cli.parse_scalar(text) for text, _ in scalars]))
        assert parsed.key == FVector([q for _, q in scalars]).key


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

    @pytest.mark.parametrize("rank, free, error", [
        (0, [], "NoDegreeFunctional"),
        (2, [2, 1], "NotSpanning"),
        (2, [2, 4], "NoDegreeFunctional"),
    ])
    def test_single_vector(self, tmp_path, rank, free, error):
        """One vector: rank 0 has no degree functional; (2, 1) has one but
        does not span Z^2; (2, 4) has none, and it is reported first."""
        data = dict(BASE_PROBLEM, group={"rank": rank}, vectors=[{"free": free}],
                    beta=["0"] * rank)
        report, code = cli.run(write_problem(tmp_path, data))
        assert code == 2
        assert report["error"].startswith(f"{error}:")

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
        assert report == {"error": "ProblemError: explicit x is degenerate: total 4, "
                                   "expected 2, tail zero False"}

    @pytest.mark.parametrize("keys, value", [
        (("group", "rank"), 3), (("truncation",), 5), (("group", "torsion_invariants"), [2]),
        (("x_policy", "denominator_bound"), 4), (("x_policy", "seed"), 2 ** 62)],
        ids=["rank", "truncation", "torsion_invariants", "denominator_bound", "seed"])
    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_integral_floats(self, keys, value, tmp_path):
        """The schema's integers admit integral numbers such as 3.0: a problem
        giving one runs as its integer twin does, with the same exit code and
        the same report apart from the problem it echoes.  A float bound
        would reach random.randint, deprecated there, and a float seed would
        seed from its hash, 2 for 2.0 ** 62."""
        *parents, key = keys
        runs = []
        for v in (value, [float(t) for t in value] if isinstance(value, list) else float(value)):
            data = read(cli.fixture_path("p2"))
            functools.reduce(dict.__getitem__, parents, data)[key] = v
            report, code = cli.run(write_problem(tmp_path, data), timings=False)
            assert report.pop("problem") == data
            runs.append((code, report))
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_retries_exhausted(self, monkeypatch):
        """A seeded x that no draw certifies is bad input: exit 2 with the
        whole error of random_rational_x, which gets the seed and bound."""
        calls = []

        def exhausted(S, seed, denominator_bound):
            calls.append((seed, denominator_bound))
            raise NondegeneracyRetriesExhausted(
                f"no nondegenerate x within {ring.MAX_RETRIES} draws (seed {seed})")

        monkeypatch.setattr(cli, "random_rational_x", exhausted)
        report, code = cli.run(cli.fixture_path("square_z2"), seed=7, timings=False)
        assert (code, report, calls) == (2, {"error": "NondegeneracyRetriesExhausted: no "
                                                      "nondegenerate x within 16 draws "
                                                      "(seed 7)"}, [(7, 4)])

    def test_unknown_task(self):
        report, code = cli.run(cli.fixture_path("ex51"), tasks=["bogus"])
        assert code == 2

    def test_unreadable_file(self, tmp_path):
        report, code = cli.run(str(tmp_path / "missing.json"))
        assert code == 2

    def test_truncation_too_small(self):
        report, code = cli.run(cli.fixture_path("p1"), truncation=1)
        assert code == 2


class TestExitCodeContract:
    """README's exit codes are the whole contract: on schema-valid problems,
    cli.run returns 0, 2 or 3 and raises nothing."""

    def test_schema_valid_mutants(self, tmp_path):
        """300 schema-valid seeded mutations of the fixtures, with the
        property names of the problem schema and one it lacks as new keys."""
        schema = cli._load_schema("problem.schema.json")
        keys = sorted({k for sub in _subschemas(schema) for k in sub.get("properties", {})})
        texts = [json.dumps(read(cli.fixture_path(name))) for name in FIXTURES]
        rng, codes = random.Random(31), set()
        path = tmp_path / "mutant.json"
        for _ in range(300):
            while not cli._valid(schema, doc := _mutant(rng.choice(texts), rng, keys + ["extra"]),
                                 schema):
                pass
            path.write_text(json.dumps(doc), encoding="utf-8")
            report, code = cli.run(str(path), timings=False)
            assert code in (0, 2, 3), (doc, report)
            codes.add(code)
        assert codes >= {0, 2}


class TestFailedComputation:
    """Errors the theory rules out are failed checks with exit code 3."""

    @pytest.mark.parametrize("error, target, fixture, task", [
        (InconsistentSystem, "solve_recursion", "ex51", "solve"),
        (DegenerateQuotient, "lift_and_verify", "g3_torsion", "lift"),
        (ResidualTooLarge, "lift_and_verify", "g3_torsion", "lift"),
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
    S = basis.semigroup
    return replaced(basis, layers=[([part[:-len(S.layer(k))] for part in P], den)
                                   for k, (P, den) in enumerate(basis.layers)],
                    leading=basis.leading[:-1])


def _corrupt_layer_one(basis):
    """The basis with one numerator of its first germ's degree-1 values off
    by one: the quotient germ no longer solves the recursion."""
    layers = list(basis.layers)
    P, den = layers[1]
    layers[1] = ([[P[0][0] + 1, *P[0][1:]], *P[1:]], den)
    return replaced(basis, layers=layers)


def _flag_first(defects):
    """The (k, defect) lists of recursion_defects with the first identity of
    degree 0 broken."""
    for k, defect in defects:
        yield k, [True, *defect[1:]] if k == 0 else defect


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
    ("residuals", "recursion_defects", lambda real, *a: _flag_first(real(*a)), "residuals"),
    # the residuals task solves for itself when no solve ran before it
    ("residuals", "solve_recursion",
     lambda real, *a, **kw: _corrupt_layer_one(real(*a, **kw)), "residuals"),
    # a quotient germ off in one value: the exact lift check stops the lift
    ("lift_completed", "solve_recursion",
     lambda real, *a, **kw: _corrupt_layer_one(real(*a, **kw)), "lift"),
]
MUTATION_IDS = ["interior_dual", "hat_total", "hat_graded", "solution_dimension",
                "restriction_rank", "torsion_lift_rank", "residuals_exact",
                "residuals_germ", "lift_completed"]
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
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_example(capsys):
    """README's Library example prints what its comments say."""
    with open(README, encoding="utf-8") as fh:
        code = fh.read().split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.split("#", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    exec(compile(code, "README.md", "exec"), {})
    assert len(want) == 3
    assert capsys.readouterr().out.splitlines() == want


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
        spec = type("Spec", (), {"beta": FVector((Fraction(1, 2), Fraction(-1, 3)))})
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
        rank + 1, list for list and in the same order: one solve per
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
            assert_stacks_equal(basis, direct)

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
    def test_unwritable_out(self, out, tmp_path, capsys, monkeypatch):
        """An --out path that cannot be written is bad input, found before
        any task runs: exit 2, one line on stderr, and no report or temporary
        file left behind."""
        def no_task(*args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(cli, "_task_analyze", no_task)
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

    @pytest.fixture(scope="class")
    def fresh_run(self, tmp_path_factory):
        """In a fresh interpreter, cli.main runs ex51 with all five tasks and
        p2_z4 with lift, each writing its report to the returned directory.
        The process prints its exit codes and, for numpy, dataclasses and
        inspect, whether it imported them."""
        tmp = tmp_path_factory.mktemp("fresh_run")
        runs = [[cli.fixture_path("ex51"), "--tasks", ",".join(cli.ALL_TASKS),
                 "--out", str(tmp / "ex51.json")],
                [os.path.join(GOLDEN, "p2_z4.problem.json"), "--tasks", "lift",
                 "--out", str(tmp / "p2_z4.json")]]
        script = ("import json, sys; from bbgkz import cli; "
                  "print(json.dumps([[cli.main(argv) for argv in json.loads(sys.argv[1])], "
                  "{m: m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')}]))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        return json.loads(proc.stdout), tmp

    def test_numpy_never_imported(self, fresh_run):
        (codes, imported), tmp = fresh_run
        assert (codes, imported["numpy"]) == ([0, 0], False)
        assert read(tmp / "ex51.json")["tasks_run"] == list(cli.ALL_TASKS)
        assert read(tmp / "p2_z4.json")["torsion_lift"]["rank"] == 12

    def test_dataclasses_never_imported(self, fresh_run):
        """The fresh run imports neither dataclasses nor inspect, which
        dataclasses imports: both cost start-up and no run needs them."""
        (codes, imported), _ = fresh_run
        assert (codes, imported["dataclasses"], imported["inspect"]) == ([0, 0], False, False)

    def test_library_run_imports_no_fractions_or_argparse(self, tmp_path):
        """Values stay integer numerators from the problem file to the
        report, and only cli.main parses arguments: in a fresh interpreter,
        cli.run of ex51 with all tasks, p2_z4 with lift and p2_z4_cbeta
        imports none of fractions, decimal, numbers and argparse.  cli.main
        then imports argparse and parses its flags."""
        runs = [[cli.fixture_path("ex51"), list(cli.ALL_TASKS)],
                [os.path.join(GOLDEN, "p2_z4.problem.json"), ["lift"]],
                [os.path.join(GOLDEN, "p2_z4_cbeta.problem.json"), None]]
        out = str(tmp_path / "r.json")
        script = ("import json, sys; from bbgkz import cli; "
                  "names = ('fractions', 'decimal', 'numbers', 'argparse'); "
                  "codes = [cli.run(path, tasks=tasks)[1] for path, tasks in "
                  "json.loads(sys.argv[1])]; "
                  "imported = [m for m in names if m in sys.modules]; "
                  "code = cli.main([sys.argv[2], '--tasks', 'analyze', '--seed', '3', "
                  "'--truncation', '4', '--no-timings', '--out', sys.argv[3]]); "
                  "print(json.dumps([codes, imported, code, 'argparse' in sys.modules]))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs),
                               cli.fixture_path("p1"), out],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == [[0, 0, 0], [], 0, True]
        report = read(out)
        assert report["tasks_run"] == ["analyze"] and report["truncation"] == 4
        assert report["problem"]["name"] == "p1" and "timings_seconds" not in report
        assert report["base_point"] == cli.run(cli.fixture_path("p1"), tasks=["analyze"],
                                               seed=3, timings=False)[0]["base_point"]

    def test_importlib_resources_never_imported(self, tmp_path):
        """Schemas and fixtures are read beside the package's files: in a
        fresh interpreter without site, which imports importlib.resources on
        some installations, a run of ex51 never imports it."""
        script = ("import sys; from bbgkz import cli; "
                  "print(cli.main([cli.fixture_path('ex51'), '--out', sys.argv[1]]), "
                  "'importlib.resources' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-S", "-c", script, str(tmp_path / "r.json")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0 False\n")
        assert read(tmp_path / "r.json")["all_passed"]

    def test_main_error_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        code = cli.main([str(p)])
        assert code == 2
        assert capsys.readouterr().err
