"""List the functions of `src/bbgkz` that no command-line run enters, and
the parameters that no run sets.

    python3 tools/uncalled.py

Runs `bbgkz.cli.main` in this interpreter under `sys.setprofile` on every
bundled fixture, every problem file beside the goldens in `tests/golden`
and every benchmark problem in `perfbench/problems`, each with its own
tasks and with all tasks, at each of SEEDS, writing the reports to a
temporary directory.  Then prints, one per line as `module.qualname`, every
function and method defined in `src/bbgkz` (comprehensions and lambdas
aside) whose code was never entered.  A name on the list is code that no report needs:
delete it, or say in its docstring why it stays.  After them it prints, one
per line as `module.qualname(param)`, each parameter with a default of an
entered module-level function or method whose value, read when the call
starts, equalled that default in every call: an option that no run sets
(nested functions are not looked at).
"""

from __future__ import annotations

import glob
import importlib
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


def defaults():
    """{code object key: {param: default}} of the parameters with a default
    of every module-level function and method of the package."""
    out = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = importlib.import_module("bbgkz." + os.path.basename(path).removesuffix(".py"))
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in members:
                fn = inspect.unwrap(getattr(fn, "__func__", getattr(fn, "fget", fn)))
                if inspect.isfunction(fn) and fn.__code__.co_filename == path:
                    params = {p.name: p.default for p in inspect.signature(fn).parameters.values()
                              if p.default is not p.empty}
                    if params:
                        out[_key(fn.__code__)] = params
    return out


def _same(value, default):
    try:
        return value is default or bool(value == default)
    except (TypeError, ValueError):   # arrays compare elementwise
        return False


def entered(runs, out_dir, params):
    """The keys of the package code objects entered while `runs`, argument
    lists for cli.main, execute, and the (key, param) pairs of `params`
    (as `defaults` gives them) that some call set to another value."""
    seen, varied = set(), set()
    package = PACKAGE + os.sep

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            key = _key(frame.f_code)
            seen.add(key)
            for name, default in params.get(key, {}).items():
                if not _same(frame.f_locals.get(name, default), default):
                    varied.add((key, name))

    sys.setprofile(profile)
    try:
        from bbgkz import cli
        for i, argv in enumerate(runs):
            cli.main(argv + ["--out", os.path.join(out_dir, f"{i}.json")])
    finally:
        sys.setprofile(None)
    return seen, varied


def main():
    runs = [[path, "--no-timings", "--seed", str(seed), *tasks]
            for path in problems() for seed in SEEDS
            for tasks in ([], ["--tasks", ALL_TASKS])]
    sys.path.insert(0, SRC)
    params = defaults()
    with tempfile.TemporaryDirectory() as out_dir:
        seen, varied = entered(runs, out_dir, params)
    names = defined_functions()
    for key, name in sorted(names.items(), key=lambda item: item[1]):
        if key not in seen:
            print(name)
    for option in sorted(f"{names[key]}({p})" for key in seen & params.keys()
                         for p in params[key] if (key, p) not in varied):
        print(option)


if __name__ == "__main__":
    main()
