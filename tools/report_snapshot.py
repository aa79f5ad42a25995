"""Snapshot the `--no-timings` reports of every benchmark problem.

    python3 tools/report_snapshot.py OUT_DIR [--seeds 0 1 3] [--root CHECKOUT]

For each problem in `<CHECKOUT>/perfbench/problems` and in EXTRA_PROBLEMS of
this checkout (a complex beta, so that the Q(i) path of the exact kernel is
covered; the same problem with beta and an explicit complex x spelled in
non-canonical ways, so that parsing and formatting are; the hexagon at a
seeded x; the 2-dilated 3-simplex at truncation 7, where the recursion
check reads the most layers; a rank-3 problem with Z/3 torsion, lifted
over Q(zeta_3); the square with Z/5 torsion, lifted over Q(zeta_5)
with phi(5) = 4 parts; the Sturmfels-Takayama curve, a configuration
that is not normal; and triangle_gap, a rank-3 one that is not saturated),
and each seed, the command line `bbgkz` runs four times in a
fresh interpreter on the sources of `<CHECKOUT>/src`: with the problem's own
tasks, with all tasks (skipped for the problems in OWN_ONLY), with
`solve,restrict`, a run in which no `analyze` reduces a hat space first,
and with `solve,residuals`, in which the residual check reads germs of the
step route.  The runs go through a pool of at most one per CPU.  Each run
writes one file,
`<name>-seed<N>-<own|all|solve-restrict|solve-residuals>.txt`, holding the
exit code, stderr and the report.  Snapshots of two checkouts,
taken into two directories, are byte-identical exactly when `diff -r`
between the directories is empty.
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALL_TASKS = "analyze,solve,restrict,lift,residuals"
TASK_LISTS = (("own", []), ("all", ["--tasks", ALL_TASKS]),
              ("solve-restrict", ["--tasks", "solve,restrict"]),
              ("solve-residuals", ["--tasks", "solve,residuals"]))
OWN_ONLY = {"p3", "simplex2_3"}  # problems snapshotted without the all-tasks run
EXTRA_PROBLEMS = tuple(os.path.join(ROOT, "tests", "golden", f"{name}.problem.json")
                       for name in ("p2_z4_cbeta", "p2_z4_spelled", "hexagon_seeded",
                                    "simplex2_3", "sweep144_z3", "square_z5", "st_curve",
                                    "triangle_gap"))


def run_one(env, path, seed, tasks, out_file):
    """Run the command line once and write its exit code, stderr and report."""
    proc = subprocess.run(
        [sys.executable, "-m", "bbgkz.cli", path, "--no-timings", "--seed", str(seed), *tasks],
        env=env, capture_output=True, text=True)
    with open(out_file, "w", encoding="utf-8") as fh:
        fh.write(f"exit {proc.returncode}\n--- stderr\n{proc.stderr}"
                 f"--- report\n{proc.stdout}")
    return proc.returncode


def snapshot(root, out_dir, seeds):
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    problems = sorted(p for p in glob.glob(os.path.join(root, "perfbench", "problems", "*.json"))
                      if not p.endswith(".expected.json"))
    runs = []
    for path in problems + list(EXTRA_PROBLEMS):
        name = os.path.basename(path).removesuffix(".json").removesuffix(".problem")
        for seed in seeds:
            for label, tasks in TASK_LISTS:
                if label == "all" and name in OWN_ONLY:
                    continue
                runs.append((f"{name} seed {seed} {label}", path, seed, tasks,
                             os.path.join(out_dir, f"{name}-seed{seed}-{label}.txt")))
    # one interpreter per run, at most one run per CPU at a time
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        codes = pool.map(lambda run: run_one(env, *run[1:]), runs)
        for run, code in zip(runs, codes):
            print(f"{run[0]}: exit {code}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", help="directory for the snapshot files")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 3])
    parser.add_argument("--root", default=ROOT,
                        help="checkout whose src/ and perfbench/problems/ are used")
    args = parser.parse_args(argv)
    snapshot(os.path.abspath(args.root), args.out_dir, args.seeds)


if __name__ == "__main__":
    main()
