"""One measuring process of the benchmark, started fresh by run.py.

    python3 perfbench/worker.py PLAN

PLAN is a JSON file written by run.py (problem paths, expected numbers,
seconds, trace flag).  `bbgkz` must be importable, which run.py arranges
through PYTHONPATH.  The last line printed is one JSON object.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

# Seconds one reference_s() loop takes on the host the benchmark was written
# on (2-vCPU KVM guest, Intel Xeon, Python 3.11) in its faster periods.
REFERENCE_S = 0.06
# Gauge seconds sampled per second of a timed problem, and of a set-up.
REFERENCE_SHARE = 0.05
SETUP_GAUGE_SHARE = 0.5

# The theorem-fixed numbers each task puts in a report.  They depend neither
# on the base point x nor on the report layout.
DIMS = ("jacobian_full", "jacobian_interior", "dual_kernel", "hat_quotient",
        "hat_quotient_beta0", "r1")
RANKS = ("solution_side", "hat_side", "r1_total")
TASK_KEYS = {
    "analyze": ("volume", "torsion_order") + tuple(f"dims.{d}" for d in DIMS),
    "solve": ("solution_dimension", "solution_filtration"),
    "restrict": tuple(f"restriction.{r}" for r in RANKS),
    "lift": ("lift_rank",),
    "residuals": (),
}


def theorem_numbers(report):
    """Flat dict of the theorem-fixed numbers present in a report."""
    out = {}
    if "volume" in report:
        out["volume"] = report["volume"]
        out["torsion_order"] = report["torsion_order"]
    for d, v in report.get("dims", {}).items():
        out[f"dims.{d}"] = v["per_degree"]
    if "solution_basis" in report:
        out["solution_dimension"] = report["solution_basis"]["dimension"]
        out["solution_filtration"] = report["solution_basis"]["filtration"]["per_degree"]
    for r, v in report.get("restriction_ranks", {}).items():
        out[f"restriction.{r}"] = v
    if "torsion_lift" in report:
        out["lift_rank"] = report["torsion_lift"].get("rank")
    return out


def mismatches(report, tasks, expected):
    """Names of the theorem-fixed numbers that differ from the expected ones."""
    got = theorem_numbers(report)
    missing = object()
    return [f"{key}={got.get(key)!r} expected {expected[key]!r}"
            for task in tasks for key in TASK_KEYS[task]
            if got.get(key, missing) != expected[key]]


def reference_s():
    """Wall seconds of a fixed loop of rational row operations, complex sums
    and dict updates: a gauge of the host's speed.

    The host's speed drifts by a third or more over minutes, longer than a
    run, so run.py brings timings to REFERENCE_S over the mean of this gauge
    sampled next to the timed work in the same process.  It uses nothing
    from bbgkz, so a change to the program cannot move it, and it runs with
    garbage collection off, so the program's heap cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(10):
            _reference_body()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _reference_body():
    row_a = [Fraction(i % 11 - 5, i % 7 + 1) for i in range(40)]
    row_b = [Fraction(i % 5 + 1, i % 9 + 2) for i in range(40)]
    for k in range(12):
        f = Fraction(k + 1, 3)
        row_a = [a - f * b for a, b in zip(row_a, row_b)]
    total = 0j
    z = 0.3 + 0.1j
    for i in range(4000):
        key = (i % 17, i % 5, 1)
        nxt = tuple(a + b for a, b in zip(key, (1, 0, 1)))
        total += z ** (i % 6) / (nxt[0] + 1)
    table = {}
    for i in range(6000):
        key = (i % 97, i % 3)
        table[key] = table.get(key, 0) + i


def run_problem(cli, prob, report_dir):
    """Run one problem through cli.run.

    Returns (why it failed or None, whether a theorem-fixed number is wrong).
    A raised exception or a nonzero exit code is a failure; a wrong number is
    a failure and an incorrect output.
    """
    out_path = os.path.join(report_dir, f"{prob['name']}.json")
    try:
        report, code = cli.run(prob["path"], out_path=out_path)
    except Exception as e:  # a raising problem is a counted failure
        return f"{type(e).__name__}: {e}", False
    if "error" in report:
        return f"exit code {code}: {report['error']}", False
    bad = mismatches(report, prob["tasks"], prob["expected"])
    if bad:
        return "; ".join(bad), True
    if code != 0:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        return f"exit code {code}: failed checks {failing}", False
    return None, False


def gauge(seconds):
    """reference_s() samples taken for about `seconds`, at least one."""
    t_end = perf_counter() + seconds
    samples = [reference_s()]
    while perf_counter() < t_end:
        samples.append(reference_s())
    return samples


def passes(plan):
    """Closed loop, one client: whole passes over the timed problems."""
    from bbgkz import cli
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    os.makedirs(plan["report_dir"], exist_ok=True)
    pass_s, layer_passes, failures, reference = [], [], [], []
    attempted = wrong = 0

    def run_pass(n):
        """Run every timed problem; returns the seconds they took, gauge
        samples excluded."""
        nonlocal attempted, wrong
        busy = 0.0
        for prob in plan["timed"]:
            if tracer:
                tracer.problem = f"{n}/{prob['name']}"
            t0 = perf_counter()
            why, bad = run_problem(cli, prob, plan["report_dir"])
            took = perf_counter() - t0
            busy += took
            attempted += 1
            wrong += bad
            if why:
                failures.append(f"{prob['name']}: {why}")
            reference.extend(gauge(REFERENCE_SHARE * took))
        return busy

    t_start = perf_counter()
    while True:
        if tracer:
            tracer.start_pass()
        n = len(pass_s)
        pass_s.append(run_pass(n))
        if tracer:
            layer_passes.append(tracer.metrics())
            functions = tracer.functions()
        # Start another pass only if it should end within the time given.
        next_pass = statistics.median(pass_s) * (1 + REFERENCE_SHARE)
        if perf_counter() - t_start + next_pass > plan["seconds"]:
            break
    result = {
        "pass_s": pass_s,
        "reference_s": reference,
        "attempted": attempted,
        "failures": failures,
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracing.median_metrics(layer_passes)
        result["functions"] = functions
        tracer.write_spans(plan["spans_path"], t_start)
    return result


def main(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    print(json.dumps(passes(plan)))


if __name__ == "__main__":
    main(sys.argv[1])
