"""List the functions of `src/bbgkz` that no command-line run enters.

    python3 tools/uncalled.py

Runs `bbgkz.cli.main` in this interpreter under `sys.setprofile` on every
bundled fixture, every problem file beside the goldens in `tests/golden`
and every benchmark problem in `perfbench/problems`, each with its own
tasks and with all tasks, at each of SEEDS, writing the reports to a
temporary directory.  Then prints, one per line as `module.qualname`, every
function and method defined in `src/bbgkz` (comprehensions and lambdas
aside) whose code was never entered.  A name on the list is code that no report needs:
delete it, or say in its docstring why it stays.
"""

from __future__ import annotations

import glob
import inspect
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "bbgkz")
ALL_TASKS = "analyze,solve,restrict,lift,residuals"
SEEDS = (0, 1, 3)


def problems():
    """The fixture, golden and benchmark problem files, sorted per source."""
    return (sorted(glob.glob(os.path.join(PACKAGE, "fixtures", "*.json")))
            + sorted(glob.glob(os.path.join(ROOT, "tests", "golden", "*.problem.json")))
            + sorted(p for p in glob.glob(os.path.join(ROOT, "perfbench", "problems", "*.json"))
                     if not p.endswith(".expected.json")))


def defined_functions():
    """{code object key: module.qualname} of every named function in the
    package, read from the compiled sources."""
    out = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.basename(path).removesuffix(".py")
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                name = getattr(code, "co_qualname", code.co_name)
                out[_key(code)] = f"{module}.{name}"
    return out


def _key(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def entered(runs, out_dir):
    """The keys of the package code objects entered while `runs`, argument
    lists for cli.main, execute."""
    seen = set()
    package = PACKAGE + os.sep

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            seen.add(_key(frame.f_code))

    sys.path.insert(0, SRC)
    sys.setprofile(profile)
    try:
        from bbgkz import cli
        for i, argv in enumerate(runs):
            cli.main(argv + ["--out", os.path.join(out_dir, f"{i}.json")])
    finally:
        sys.setprofile(None)
    return seen


def main():
    runs = [[path, "--no-timings", "--seed", str(seed), *tasks]
            for path in problems() for seed in SEEDS
            for tasks in ([], ["--tasks", ALL_TASKS])]
    with tempfile.TemporaryDirectory() as out_dir:
        seen = entered(runs, out_dir)
    for key, name in sorted(defined_functions().items(), key=lambda item: item[1]):
        if key not in seen:
            print(name)


if __name__ == "__main__":
    main()
