"""Batch front end: problem files in, deterministic JSON reports out.

A problem file describes the group, the degree-one vectors, beta, the base
point policy, and a task list.  The runner validates the data, executes the
requested analyses, and writes a report whose cross-check booleans drive the
exit code: 0 when everything passes, 2 for invalid input, 3 for a failing
cross-check.  A task that stops on an error the theory rules out is recorded
as a failed `<task>_completed` check.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import operator
import os
import re
import sys
import time

from .abelian import AbelianGroup, NoDegreeFunctional, NotSpanning
from .linalg import common, galois
from .polyhedral import build_semigroup, k_prim
from .ring import (FVector, NondegeneracyRetriesExhausted, certifies, hat_quotient_dims,
                   hat_restriction_rank, is_nondegenerate, jacobian_dims, r1_dims,
                   random_rational_x)
from .solver import (GermStack, InconsistentSystem, exact_rank, filtration_dims,
                     recursion_defects, solve_recursion)
from .torsion import DegenerateQuotient, ResidualTooLarge, build_quotient, lift_and_verify, p_rho

SCHEMA_VERSION = 1
ALL_TASKS = ("analyze", "solve", "restrict", "lift", "residuals")


class ProblemError(ValueError):
    """Problem file is invalid: schema, group data, or base point."""


# the bundled schemas and fixtures, read beside this file
_HERE = os.path.dirname(os.path.abspath(__file__))


@functools.cache
def _load_schema(name):
    with open(os.path.join(_HERE, "schemas", name), encoding="utf-8") as fh:
        return json.load(fh)


# the keywords _valid interprets; "$schema", "title" and "$defs" assert nothing
KEYWORDS = frozenset(("$schema", "title", "$defs", "$ref", "type", "required", "properties",
                      "additionalProperties", "items", "minItems", "minimum", "pattern",
                      "enum", "const", "oneOf"))
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def _is_type(doc, name):
    if name == "integer":  # a JSON number with no fraction; bool is not one
        return (isinstance(doc, int) and not isinstance(doc, bool)
                or isinstance(doc, float) and doc.is_integer())
    return name in _TYPES and isinstance(doc, _TYPES[name])


def _valid(schema, doc, root):
    """Whether doc meets schema, a part of the bundled schema root, read with
    draft 2020-12's meaning of KEYWORDS.  Any other keyword makes it False,
    as does a non-local $ref: jsonschema then decides.  enum and const compare
    with ==, which is jsonschema's equality for the strings the bundled
    schemas list."""
    if isinstance(schema, bool):
        return schema
    if not KEYWORDS.issuperset(schema):
        return False
    if "type" in schema and not _is_type(doc, schema["type"]):
        return False
    if "$ref" in schema:
        ref = schema["$ref"]
        if not (ref.startswith("#/") and _valid(
                functools.reduce(operator.getitem, ref[2:].split("/"), root), doc, root)):
            return False
    if "enum" in schema and doc not in schema["enum"]:
        return False
    if "const" in schema and doc != schema["const"]:
        return False
    if "oneOf" in schema and sum(_valid(sub, doc, root) for sub in schema["oneOf"]) != 1:
        return False
    if isinstance(doc, dict):
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
        return (all(k in doc for k in schema.get("required", ()))
                and all(_valid(props.get(k, extra), v, root) for k, v in doc.items()))
    if isinstance(doc, list):
        return len(doc) >= schema.get("minItems", 0) and all(
            _valid(schema.get("items", True), item, root) for item in doc)
    if isinstance(doc, str):
        return "pattern" not in schema or re.search(schema["pattern"], doc) is not None
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return not doc < schema.get("minimum", doc)  # NaN passes, as in jsonschema
    return True


def _schema_error(name, doc):
    """None when doc meets the bundled schema `name`, else the error that
    jsonschema's best_match picks.  The keyword check decides a valid
    document alone, so jsonschema is imported only to explain a rejection,
    and its verdict stands."""
    schema = _load_schema(name)
    if _valid(schema, doc, schema):
        return None
    from jsonschema import validators
    from jsonschema.exceptions import best_match
    return best_match(validators.validator_for(schema)(schema).iter_errors(doc))


RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def parse_rational(s):
    """The integer (numerator, denominator) of a 'p' or 'p/q' string, as
    written: q is 1 for 'p', and never 0."""
    if not isinstance(s, str) or not RATIONAL_RE.match(s):
        raise ProblemError(f"bad rational {s!r}: expected 'p' or 'p/q'")
    p, _, q = s.partition("/")
    try:
        p, q = int(p), int(q or 1)
    except ValueError:  # more digits than int() reads
        raise ProblemError(f"bad rational of {len(s)} characters: too many digits")
    if not q:
        raise ProblemError(f"bad rational {s!r}: zero denominator")
    return p, q


def parse_scalar(v):
    """Scalar from JSON as the (numerator, denominator) pairs of its parts,
    which `linalg.common` reads: (re,) from a 'p/q' string, (re, im) from
    {'re': 'p/q', 'im': 'p/q'}, at least one of the two."""
    if isinstance(v, dict):
        if not v.keys() & {"re", "im"}:
            raise ProblemError(f"bad scalar {v!r}: expected 're' or 'im'")
        return parse_rational(v.get("re", "0")), parse_rational(v.get("im", "0"))
    return (parse_rational(v),)


def format_scalar(parts, den):
    """The value of Q or Q(i) with integer parts (re,) or (re, im) over
    den > 0 as JSON, each part in lowest terms as 'p/q', or 'p' when q is 1:
    a string when real, else {'re': 'p/q', 'im': 'p/q'}."""
    re, im = (str(a // g) if (g := math.gcd(a, den)) == den else f"{a // g}/{den // g}"
              for a in (*parts, 0)[:2])
    return {"re": re, "im": im} if im != "0" else re


def format_element(c):
    out = {"free": list(c.free)}
    if c.torsion:
        out["torsion"] = list(c.torsion)
    return out


def format_dims(report):
    return {"per_degree": list(report.per_degree), "total": report.total}


class ProblemSpec:
    """A validated problem.  The schema's integers admit integral numbers
    such as 3.0, as JSON Schema's do, so the counts and seeds are read
    through int()."""

    def __init__(self, data):
        g = data["group"]
        try:
            self.group = AbelianGroup(int(g["rank"]),
                                      tuple(map(int, g.get("torsion_invariants", ()))))
        except ValueError as e:
            raise ProblemError(str(e))
        self.vectors = tuple(
            self.group.element(v["free"], v.get("torsion", ()))
            for v in data["vectors"])
        self.beta = FVector.of(*common([parse_scalar(b) for b in data["beta"]]))
        if len(self.beta) != self.group.rank:
            raise ProblemError("beta length must equal the free rank")
        self.x_policy = data["x_policy"]
        self.truncation = int(data["truncation"]) if "truncation" in data else None
        self.tasks = tuple(data.get("tasks", ALL_TASKS))
        self.name = data.get("name", "")
        self.raw = data

    def resolve_x(self, S, seed_override=None):
        """The base point plus the Jacobian dims that certify it."""
        pol = self.x_policy
        if pol["mode"] == "explicit":
            if len(pol["values"]) != len(self.vectors):
                raise ProblemError("explicit x has wrong length")
            f = FVector.of(*common([parse_scalar(v) for v in pol["values"]]))
            ok, dims = is_nondegenerate(f, S)
            if not ok:
                raise ProblemError(
                    f"explicit x is degenerate: total {dims.total}, "
                    f"expected {sum(S.h_star)}, "
                    f"tail zero {not any(dims.per_degree[S.rank + 1:])}")
            return f, dims
        seed = seed_override if seed_override is not None else int(pol.get("seed", 0))
        bound = int(pol.get("denominator_bound", 4))
        return random_rational_x(S, seed=seed, denominator_bound=bound)


def load_problem(path) -> ProblemSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ProblemError(f"cannot read problem file: {e}")
    error = _schema_error("problem.schema.json", data)
    if error is not None:
        raise ProblemError(f"schema violation: {error.message}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ProblemError(f"unsupported schema_version {data['schema_version']}")
    return ProblemSpec(data)


def _check(checks, name, passed, **details):
    entry = {"name": name, "passed": bool(passed)}
    entry.update(details)
    checks.append(entry)
    return passed


def _task_analyze(spec, S, f, D, report, checks):
    """dims.dual_kernel repeats jacobian_full, the adjoint kernel of the same
    rows by rank-nullity: the benchmark's expected numbers still read it."""
    r = S.rank
    vol = S.volume
    tors = S.group.torsion_order
    report["volume"] = vol
    report["torsion_order"] = tors
    report["k_prim"] = [format_element(c) for c in k_prim(S)]
    jac = jacobian_dims(f, S, r + 1)
    jac_int = jacobian_dims(f, S, r + 1, region="interior")
    hat = hat_quotient_dims(f, spec.beta, S, filtration_bound=min(D, r + 3))
    hat0 = hat_quotient_dims(f, (0,) * r, S, filtration_bound=min(D, r + 3))
    r1 = r1_dims(f, S)
    report["dims"] = {
        "jacobian_full": format_dims(jac),
        "jacobian_interior": format_dims(jac_int),
        "dual_kernel": format_dims(jac),
        "hat_quotient": format_dims(hat),
        "hat_quotient_beta0": format_dims(hat0),
        "r1": format_dims(r1),
    }
    # Batyrev duality: the interior ring is jac reversed, read off other layers
    _check(checks, "interior_dual_to_full",
           jac_int.per_degree[:r + 1] == jac.per_degree[r::-1]
           and jac_int.per_degree[r + 1] == 0,
           interior=list(jac_int.per_degree), full=list(jac.per_degree))
    _check(checks, "hat_total_matches_jacobian",
           hat.total == jac.total and hat0.total == jac.total,
           hat_total=hat.total, hat_beta0_total=hat0.total)
    _check(checks, "hat_graded_matches_jacobian",
           hat.per_degree[:r + 2] == jac.per_degree
           and all(d == 0 for d in hat.per_degree[r + 2:]))
    return jac


def _task_solve(spec, S, f, D, report, checks, jac):
    basis = solve_recursion(f, spec.beta, S, truncation=D)
    filt = filtration_dims(basis)
    vol = S.volume
    tors = S.group.torsion_order
    tables = []
    for t, k in enumerate(basis.leading):
        # a layer is in lexicographic order of the free part, torsion innermost
        lead = [[format_element(S.layer(k)[p]), format_scalar(v, basis.layers[k][1])]
                for p, v in basis.values(t, k).items()]
        tables.append({"leading_degree": k, "leading_entries": lead})
    report["solution_basis"] = {
        "dimension": len(basis),
        "filtration": format_dims(filt),
        "tables": tables,
    }
    _check(checks, "solution_dimension", len(basis) == vol * tors,
           dimension=len(basis), expected=vol * tors)
    if jac is not None:
        _check(checks, "filtration_matches_jacobian",
               filt.per_degree[:len(jac.per_degree)] == jac.per_degree
               and all(d == 0 for d in filt.per_degree[len(jac.per_degree):]))
    return basis


def _task_restrict(spec, S, f, D, report, checks):
    r = S.rank
    # first, so that the solve below reads its germs off the reduced hat
    # space, and stops at its bound: the rank reads layers up to r only
    bound = min(D, r + 3)
    hat_rank = hat_restriction_rank(f, S, filtration_bound=bound)
    basis0 = solve_recursion(f, (0,) * r, S, truncation=bound)
    # the germs' rank on the interior points of degree <= r
    inner = [set(S.layer(k, "interior")) for k in range(r + 1)]
    sol_rank = exact_rank([basis0], [[c in inner[k] for c in S.layer(k)]
                                     for k in range(r + 1)])
    r1_total = r1_dims(f, S).total
    report["restriction_ranks"] = {
        "solution_side": sol_rank,
        "hat_side": hat_rank,
        "r1_total": r1_total,
    }
    _check(checks, "restriction_rank_three_way",
           sol_rank == hat_rank == r1_total,
           solution=sol_rank, hat=hat_rank, r1=r1_total)


def _galois(basis, a, z):
    """The basis under sigma_a (zeta -> zeta^a), at the base point z."""
    return GermStack(basis.semigroup, z, basis.beta, basis.truncation,
                     [(galois(P, a, basis.m), den) for P, den in basis.layers],
                     basis.leading, basis.m)


def _lifts(spec, S, Q, f):
    """lift_and_verify per character at the problem's x, whose certificate
    forces each quotient point's (the Jacobian ring at x splits over the
    characters): a quotient filtration that fails raises DegenerateQuotient.
    Quotient solves stop at truncation rank + 1, which fixes every germ: the
    Jacobian ring vanishes above the rank, so no germ is born and each step
    has one solution past it.  With x and beta rational, sigma_a(p_rho(x)) =
    p_{rho^a}(x) and the solve there is sigma_a of the one at p_rho(x), as
    sigma_a keeps every zero test: one solve serves a Galois orbit."""
    images, lifts = {}, []  # a Galois image of a solved point -> (basis, a)
    for rho in S.group.characters():
        z = p_rho(rho, f, Q)
        if z in images:
            qbasis, a = images[z]
            qbasis = _galois(qbasis, a, z)
        else:
            qbasis = solve_recursion(z, spec.beta, Q.semigroup, truncation=S.rank + 1)
            if f.m == spec.beta.m == 1:
                for a in range(2, z.m):
                    if math.gcd(a, z.m) == 1:
                        images.setdefault(z.galois(a), (qbasis, a))
        if not certifies(filtration_dims(qbasis).per_degree, Q.semigroup):
            raise DegenerateQuotient(
                f"the quotient point of character {rho.torsion_exponents} is degenerate")
        lifts.append(lift_and_verify(qbasis, rho, f, S)[0])
    return lifts


def _task_lift(spec, S, f, D, report, checks):
    tors, vol = S.group.torsion_order, S.volume
    if tors == 1:
        report["torsion_lift"] = {"skipped": "torsion order 1"}
        return
    stacks = _lifts(spec, S, build_quotient(S.group, S.A), f)
    rank = exact_rank(stacks)
    report["torsion_lift"] = {
        "lifted_tables": sum(len(stack) for stack in stacks),
        "rank": rank,
        "expected": vol * tors,
    }
    _check(checks, "torsion_lift_rank", rank == vol * tors,
           rank=rank, expected=vol * tors)


def _task_residuals(spec, S, f, D, report, checks, basis):
    if basis is None:
        basis = solve_recursion(f, spec.beta, S, truncation=D)
    defects = [defect for _, defect in recursion_defects(basis)]
    exact = not any(map(any, defects))
    report["residuals"] = {"recursion_identity_exact": exact,
                           "identities_checked": sum(map(len, defects))}
    _check(checks, "residuals", exact, exact=exact)


def run(problem_path, tasks=None, seed=None, truncation=None,
        timings=True, out_path=None):
    """Execute the requested tasks and return (report dict, exit code)."""
    try:
        spec = load_problem(problem_path)
        S = build_semigroup(spec.group, spec.vectors)
    except (ProblemError, NoDegreeFunctional, NotSpanning, ValueError) as e:
        return {"error": f"{type(e).__name__}: {e}"}, 2
    task_list = tuple(tasks) if tasks else spec.tasks
    bad = [t for t in task_list if t not in ALL_TASKS]
    if bad:
        return {"error": f"unknown tasks: {bad}"}, 2
    D = truncation if truncation is not None else (
        spec.truncation if spec.truncation is not None else S.rank + 3)
    if D < S.rank + 1:
        return {"error": f"truncation {D} below rank + 1"}, 2
    try:
        f, x_dims = spec.resolve_x(S, seed_override=seed)
    except (ProblemError, NondegeneracyRetriesExhausted) as e:
        return {"error": f"{type(e).__name__}: {e}"}, 2

    if out_path and (error := _cannot_write(out_path)):
        return error, 2

    report = {
        "schema_version": SCHEMA_VERSION,
        "problem": spec.raw,
        "tasks_run": list(task_list),
        "truncation": D,
        "base_point": [format_scalar(v, f.den) for v in zip(*f.parts)],
        "nondegeneracy": {
            "total": x_dims.total,
            "expected_total": sum(S.h_star),
            "per_degree": list(x_dims.per_degree),
        },
    }
    checks = []
    times = {}
    jac = None
    basis = None
    try:
        for task in ALL_TASKS:
            if task not in task_list:
                continue
            t0 = time.monotonic()
            if task == "analyze":
                jac = _task_analyze(spec, S, f, D, report, checks)
            elif task == "solve":
                basis = _task_solve(spec, S, f, D, report, checks, jac)
            elif task == "restrict":
                _task_restrict(spec, S, f, D, report, checks)
            elif task == "lift":
                _task_lift(spec, S, f, D, report, checks)
            elif task == "residuals":
                _task_residuals(spec, S, f, D, report, checks, basis)
            times[task] = round(time.monotonic() - t0, 4)
    except (InconsistentSystem, DegenerateQuotient, ResidualTooLarge) as e:
        _check(checks, f"{task}_completed", False, error=f"{type(e).__name__}: {e}")
    report["checks"] = checks
    report["all_passed"] = all(c["passed"] for c in checks)
    if timings:
        report["timings_seconds"] = times
    error = _schema_error("report.schema.json", report)
    if error is not None:
        raise error
    code = 0 if report["all_passed"] else 3
    if out_path:
        try:
            write_report(report, out_path)
        except OSError as e:
            return {"error": f"cannot write report {out_path}: {e.strerror or e}"}, 2
    return report, code


def _cannot_write(path):
    """The error report of an --out path that write_report cannot write, found
    before any task runs: a directory there, or one it cannot create a file
    in; else None."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        open(tmp, "w").close()
        os.remove(tmp)
    except OSError as e:
        return {"error": f"cannot write report {path}: {e.strerror or e}"}
    return None


def write_report(report, path):
    """Serialize a validated report atomically: a crash leaves no partial one,
    and a failed write no temporary file."""
    text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.lexists(tmp):
            os.remove(tmp)
        raise


def fixture_path(name):
    """Filesystem path of a bundled problem fixture by bare name.  No run
    calls it; it stays because the tests and library users locate the
    bundled fixtures by name."""
    return os.path.join(_HERE, "fixtures", f"{name}.json")


def main(argv=None):
    import argparse  # here alone: a library run needs no argument parser
    parser = argparse.ArgumentParser(
        prog="bbgkz",
        description="Analyze a hypergeometric problem file and emit a JSON report.")
    parser.add_argument("problem", help="path to a problem JSON file")
    parser.add_argument("--tasks", default=None,
                        help="comma list from: " + ",".join(ALL_TASKS))
    parser.add_argument("--seed", type=int, default=None,
                        help="override the base point seed")
    parser.add_argument("--truncation", type=int, default=None,
                        help="override the series truncation degree")
    parser.add_argument("--no-timings", action="store_true",
                        help="omit the timings block (byte-stable output)")
    parser.add_argument("--out", default=None,
                        help="report path (default: print to stdout)")
    args = parser.parse_args(argv)
    tasks = args.tasks.split(",") if args.tasks else None
    report, code = run(args.problem, tasks=tasks, seed=args.seed,
                       truncation=args.truncation, timings=not args.no_timings,
                       out_path=args.out)
    if "error" in report:
        print(report["error"], file=sys.stderr)
    elif not args.out:
        print(json.dumps(report, indent=2, sort_keys=False))
    return code


if __name__ == "__main__":
    sys.exit(main())
