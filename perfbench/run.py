"""Benchmark of the bbgkz batch runner, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the repository root; it needs `src/bbgkz` there and nothing
installed.  One client drives `bbgkz.cli.run` in a closed loop, one problem
at a time, in a fresh worker process: a pass runs every timed problem of the
workload and writes each report to a file.  Passes repeat until `--seconds`
is spent.  Each report's theorem-fixed numbers (volume, torsion order, graded
dims, solution dimension and filtration, restriction ranks, lift rank) must
equal the ones stored beside the problem in `problems/<name>.expected.json`;
a report that differs, a nonzero exit code or a raised exception is a failure.

`--seed` is written into every seeded `x_policy` (problems with an explicit
x keep theirs) of the inputs generated under `.perfbench_work/`, where the
reports, the result file and, with `--trace 1`, the span file also go.

End-to-end metrics (`--trace 0`):
  report_s     median wall seconds of a pass
  setup_s      median over 5 fresh interpreters of the wall seconds of
               `import bbgkz` plus, per timed problem, load_problem,
               build_semigroup and resolve_x (setup_worker.py)
  peak_rss_mb  peak resident memory of the process that ran the passes
Both timings are brought to a reference host speed: multiplied by
worker.REFERENCE_S over the mean time of a fixed gauge loop run in the same
process, after each timed problem for 5% of its time and after each set-up
for half its time (see worker.reference_s).  On the 2-vCPU guest the
benchmark was written on, the host's speed drifts by a third or more over
minutes; unscaled, ten seeds gave quartile spreads of report_s of 0.15-0.31.
The unscaled times are printed on the summary line and kept in the result
file.
Every report counts toward `attempted`; one that raises, exits nonzero or
has a wrong theorem-fixed number counts toward `failed`, and the summary
lines print failed / attempted as failed_frac.  `correct` is false when a
theorem-fixed number is wrong.

With `--trace 1`, half the time runs untraced passes and half runs passes
with every public function of the package wrapped (see tracing.py); the
per-layer metrics are medians over the traced passes.

Workloads:
  mixed        the 8 bundled fixtures with their tasks at their own
               truncations, then `lift` on p2_z4 (exact lane, Z/4),
               hexagon_z2 (exact, Z/2) and seg5_z3 (float, Z/3)
  series       hexagon (rank 3) at a fixed base point, solve + residuals at
               truncation 5
  elimination  P^3 (rank 4), analyze + solve + restrict at truncation 5
Every workload is one on which no report fails today, so two known defects
stay out of it.  The residual check fails on roundoff at some seeded base
points (residuals just above its `tiny` cutoff give meaningless orders; p2
fails at seed 9, ex52 at 63, hexagon at 14, and so on), so
residuals run only where x is explicit: seeded problems drop the task, and
hexagon keeps the base point seed 0 draws.  square_z3 (ex52's square with
Z/3 labels, float lane) raises InconsistentSystem in `lift`, because
find_common_basepoint does not certify its float base point; its problem
file is kept, with the theorem's lift rank vol * |N_tors| = 6, for when that
is fixed.  The 2-dilated 3-simplex is left out: one pass at the default
truncation spends 34 s in analyze and over 7 min in solve.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
PROBLEMS = os.path.join(HERE, "problems")
WORK = ".perfbench_work"
ALL_TASKS = ["analyze", "solve", "restrict", "lift", "residuals"]
WORKLOADS = {
    "mixed": ["ex51", "z2_example", "g3_torsion", "p1", "repeated", "p2", "ex52",
              "square_z2", "p2_z4", "hexagon_z2", "seg5_z3"],
    "series": ["hexagon"],
    "elimination": ["p3"],
}
SETUP_RUNS = 5
DEADLINE_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def make_inputs(workload, seed, inputs_dir):
    """Problem files with the seed written in, plus what to check them against."""
    os.makedirs(inputs_dir)
    timed = []
    for name in WORKLOADS[workload]:
        with open(os.path.join(PROBLEMS, f"{name}.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        with open(os.path.join(PROBLEMS, f"{name}.expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        data.setdefault("tasks", ALL_TASKS)
        if data["x_policy"]["mode"] == "seeded":
            data["x_policy"]["seed"] = seed
            # The residual check fails on roundoff at some seeded x (see above).
            data["tasks"] = [t for t in data["tasks"] if t != "residuals"]
        path = os.path.join(inputs_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
        timed.append({"name": name, "path": path, "expected": expected,
                      "tasks": data["tasks"]})
    return {"timed": timed}


class Runner:
    """Starts worker processes against one checkout, under one deadline."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "bbgkz", "cli.py")):
            raise BenchError(f"no bbgkz sources under {src}; run from the repository root")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.calls = 0

    def _run(self, argv):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, timeout=left,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {argv[1:]}")
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def build(self):
        # Byte-compile first, so that no timed import pays for compilation.
        self._run([sys.executable, "-m", "compileall", "-q",
                   os.path.join(self.root, "src", "bbgkz")])

    def setup(self, plan):
        return self._json([os.path.join(HERE, "setup_worker.py"),
                           *(p["path"] for p in plan["timed"])])

    def passes(self, plan):
        self.calls += 1
        plan_path = os.path.join(self.work, f"plan{self.calls}.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        return self._json([os.path.join(HERE, "worker.py"), plan_path])

    def _json(self, argv):
        out = self._run([sys.executable, *argv])
        return json.loads(out.strip().splitlines()[-1])


def at_reference_speed(seconds, reference_s):
    """Wall seconds brought to the host speed worker.REFERENCE_S stands for."""
    return seconds * worker.REFERENCE_S / statistics.mean(reference_s)


def measure(workload, seed, seconds, trace, root):
    """Run one workload; returns the result dict written to the result file."""
    work = os.path.join(root, WORK, f"{workload}-seed{seed}")
    runner = Runner(root, work)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner.build()
    plan = make_inputs(workload, seed, os.path.join(work, "inputs"))
    plan.update(report_dir=os.path.join(work, "reports"),
                spans_path=os.path.join(work, "spans.jsonl"))
    setups = [runner.setup(plan) for _ in range(SETUP_RUNS)]
    runs = [runner.passes(dict(plan, seconds=seconds / 2 if trace else seconds, trace=False))]
    if trace:
        runs.append(runner.passes(dict(plan, seconds=seconds / 2, trace=True)))
    untraced = runs[0]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "setups": setups, "runs": runs,
        "attempted": sum(r["attempted"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "wrong": sum(r["wrong"] for r in runs),
        "end_to_end": {
            "report_s": (at_reference_speed(statistics.median(untraced["pass_s"]),
                                            untraced["reference_s"]), "s"),
            "setup_s": (statistics.median(at_reference_speed(s["setup_s"], s["reference_s"])
                                          for s in setups), "s"),
            "peak_rss_mb": (untraced["peak_rss_mb"], "MB"),
        },
    }
    if trace:
        import tracing
        units = tracing.per_layer_units()
        layers = dict(runs[1]["layers"])
        layers["trace.untraced_s"] = result["end_to_end"]["report_s"][0]
        layers["trace.overhead_s"] = at_reference_speed(
            statistics.median(runs[1]["pass_s"]),
            runs[1]["reference_s"]) - layers["trace.untraced_s"]
        result["per_layer"] = {k: (layers[k], units[k]) for k in units}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def summary(result):
    """Human-readable lines: every metric by name with its unit."""
    failed = len(result["failures"])
    untraced = result["runs"][0]
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"passes {len(untraced['pass_s'])}  unscaled: pass "
             f"{statistics.median(untraced['pass_s']):.4f} s, setup "
             f"{statistics.median(s['setup_s'] for s in result['setups']):.4f} s, gauge "
             f"{statistics.mean(untraced['reference_s']):.4f} s "
             f"(reference {worker.REFERENCE_S} s)"]
    for name, (value, unit) in result["end_to_end"].items():
        lines.append(f"  {name:<12} {value:12.4f} {unit}")
    lines.append(f"  {'failed_frac':<12} {failed / result['attempted']:12.4f} "
                 f"({failed} of {result['attempted']} reports; "
                 f"{result['wrong']} with wrong theorem-fixed numbers)")
    for why in sorted(set(result["failures"])):
        lines.append(f"  FAILED {why}")
    for name, (value, unit) in result.get("per_layer", {}).items():
        lines.append(f"  {name:<42} {value:14.6g} {unit}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = os.getcwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace), root)
                   for w in names]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for result in results:
        print("\n".join(summary(result)))
    if args.workload != "all":
        result = results[0]
        key = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({
            "correct": result["wrong"] == 0,
            "attempted": result["attempted"],
            "failed": len(result["failures"]),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result[key].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
