"""Spans and counters around the bbgkz layers, installed from outside.

`install` replaces every public function of the package modules, and a few
hot methods, with wrappers that record a span (name, start, end, parent,
problem id) and count calls.  Names one module imports from another are
rebound too, so `solver.nullspace` reaches the same wrapper as
`linalg.nullspace`.  A function that a later version of the package no
longer has is simply not wrapped; its metrics then read 0.

A layer's self time is its span's duration minus the time of the wrapped
spans it called.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "abelian", "polyhedral", "ring", "linalg", "solver", "torsion")

# Functions whose calls and self time are per-layer metrics.
TIMED = (
    "linalg.rref", "linalg.solve_multi", "linalg.nullspace",
    "solver.evaluate_series", "solver.solve_recursion",
    "polyhedral.normalized_volume", "polyhedral.k_prim",
    "polyhedral.build_semigroup",
    "ring.jacobian_dims", "ring.is_nondegenerate", "ring.dual_kernel_dims",
    "ring.hat_quotient_dims", "ring.r1_dims", "ring.hat_restriction_rank",
    "torsion.lift_and_verify", "torsion.build_quotient", "torsion.p_rho",
    "torsion.find_common_basepoint", "torsion.independence_count",
)
TASKS = ("analyze", "solve", "restrict", "lift", "residuals")


def unit(name):
    """Unit of a per-layer metric, read from its name."""
    for suffix, u in (("_s", "s"), ("_ratio", "ratio"), ("_bits_max", "bits"),
                      ("_bytes", "bytes")):
        if name.endswith(suffix):
            return u
    return "count"


def per_layer_units():
    """Every per-layer metric the traced run reports, name -> unit."""
    names = [*Tracer().metrics(), "trace.untraced_s", "trace.overhead_s"]
    return {name: unit(name) for name in names}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Span and counter store for one traced worker process."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index, problem id)
        self.stack = []        # [span index, name, child seconds]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.counts = Counter()
        self.problem = ""
        self._layers_seen = set()
        self._layer_owners = []

    def start_pass(self):
        """Forget per-pass state; counters restart at zero."""
        self.calls.clear()
        self.self_s.clear()
        self.errors.clear()
        self.counts.clear()
        self._layers_seen.clear()
        self._layer_owners.clear()

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    # -- hooks: run after a wrapped call returns, outside its span --------

    def _dense(self, args, kwargs, out):
        rows = _arg(args, kwargs, 0, "rows")
        self.counts["linalg.dense_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _dense_multi(self, args, kwargs, out):
        rows = _arg(args, kwargs, 0, "rows")
        self.counts["linalg.dense_cells"] += len(rows) * _arg(args, kwargs, 1, "ncols")

    def _rowspace_add(self, args, kwargs, out):
        self.counts["linalg.RowSpace.add.useful"] += bool(out)

    def _residuals(self, args, kwargs, out):
        self.counts["solver.residual_checks"] += len(out.checks)
        self.counts["solver.residual_checks.useful"] += sum(1 for c in out.checks if c.orders)

    def _solve_recursion(self, args, kwargs, out):
        self.counts["solver.solve_recursion.germs"] += len(out)
        bits = 0
        for t in out.tables:
            for v in t.entries.values():
                if hasattr(v, "d"):
                    bits = max(bits, abs(v.a).bit_length(), abs(v.b).bit_length(),
                               v.d.bit_length())
        self.counts["solver.coeff_bits_max"] = max(self.counts["solver.coeff_bits_max"], bits)

    def _layer(self, args, kwargs, out):
        S = args[0]
        key = (id(S), _arg(args, kwargs, 1, "k"), _arg(args, kwargs, 2, "region", "full"))
        if key in self._layers_seen:
            self.counts["polyhedral.layer.reused"] += 1
        else:
            self._layers_seen.add(key)
            self._layer_owners.append(S)   # keeps id(S) unique for the pass
            self.counts["polyhedral.layer.points"] += len(out)

    def _is_nondegenerate(self, args, kwargs, out):
        if self.parent_name() == "ring.random_rational_x":
            self.counts["ring.random_rational_x.draws"] += 1

    def _random_x(self, args, kwargs, out):
        self.counts["ring.random_rational_x.accepted"] += 1

    def _lift(self, args, kwargs, out):
        exact = all(hasattr(v, "d") for v in out[0].base_x)
        self.counts["torsion.lifts_exact" if exact else "torsion.lifts_float"] += 1

    def _write_report(self, args, kwargs, out):
        self.counts["cli.report_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def _run(self, args, kwargs, out):
        for task, sec in out[0].get("timings_seconds", {}).items():
            self.counts[f"cli.task.{task}_s"] += sec

    HOOKS = {
        "linalg.rref": _dense,
        "linalg.solve_multi": _dense_multi,
        "linalg.RowSpace.add": _rowspace_add,
        "solver.check_residuals": _residuals,
        "solver.solve_recursion": _solve_recursion,
        "polyhedral.layer": _layer,
        "ring.is_nondegenerate": _is_nondegenerate,
        "ring.random_rational_x": _random_x,
        "torsion.lift_and_verify": _lift,
        "cli.write_report": _write_report,
        "cli.run": _run,
    }

    # -- wrappers ---------------------------------------------------------

    def span(self, name, module, fn):
        """Wrap fn so that each call records a span named `name`."""
        hook = self.HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), name, 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[frame[0]] = (name, t0, t1, parent, self.problem)
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - frame[2]
                if stack:
                    stack[-1][2] += t1 - t0
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return wrapper

    def counted(self, name, fn):
        """Wrap a two-argument hot method with a call counter only."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(a, b):
            calls[name] += 1
            return fn(a, b)
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Per-pass values of every per-layer metric except trace.*."""
        c = self.counts
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["linalg.dense_cells"] = c["linalg.dense_cells"]
        adds = self.calls["linalg.RowSpace.add"]
        out["linalg.RowSpace.add.calls"] = adds
        out["linalg.RowSpace.add.useful_ratio"] = _ratio(c["linalg.RowSpace.add.useful"], adds)
        out["solver.check_residuals.self_s"] = self.self_s["solver.check_residuals"]
        out["solver.residual_checks"] = c["solver.residual_checks"]
        out["solver.residual_checks.useful_ratio"] = _ratio(
            c["solver.residual_checks.useful"], c["solver.residual_checks"])
        out["solver.solve_recursion.germs"] = c["solver.solve_recursion.germs"]
        out["solver.coeff_bits_max"] = c["solver.coeff_bits_max"]
        out["abelian.group_add.calls"] = self.calls["abelian.group_add"]
        out["abelian.smith_normal_form.calls"] = self.calls["abelian.smith_normal_form"]
        layers = self.calls["polyhedral.layer"]
        out["polyhedral.layer.calls"] = layers
        out["polyhedral.layer.points"] = c["polyhedral.layer.points"]
        out["polyhedral.layer.reuse_ratio"] = _ratio(c["polyhedral.layer.reused"], layers)
        draws = c["ring.random_rational_x.draws"]
        out["ring.random_rational_x.draws"] = draws
        out["ring.random_rational_x.accept_ratio"] = _ratio(
            c["ring.random_rational_x.accepted"], draws)
        out["torsion.lifts_exact"] = c["torsion.lifts_exact"]
        out["torsion.lifts_float"] = c["torsion.lifts_float"]
        out["cli.load_problem.self_s"] = self.self_s["cli.load_problem"]
        out["cli.write_report.self_s"] = self.self_s["cli.write_report"]
        out["cli.report_bytes"] = c["cli.report_bytes"]
        for t in TASKS:
            out[f"cli.task.{t}_s"] = c[f"cli.task.{t}_s"]
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(v for k, v in self.self_s.items()
                                       if k.split(".", 1)[0] == mod)
            out[f"{mod}.errors"] = self.errors[mod]
        return out

    def functions(self):
        """Calls and self time of every wrapped function, for the span file."""
        return {name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                for name in sorted(self.calls)}

    def write_spans(self, path, t_origin):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, problem in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - t_origin,
                                     "end": t1 - t_origin, "parent": parent,
                                     "problem": problem}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def install(tracer):
    """Wrap the package's public functions and hot methods; returns nothing.

    Must run after `import bbgkz` and before the first traced call.
    """
    pkg = importlib.import_module("bbgkz")
    mods = {m: importlib.import_module(f"bbgkz.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.span(f"{short}.{attr}", short, obj)
    for mod in (pkg, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    methods = (("linalg", "RowSpace", "add", "linalg.RowSpace.add"),
               ("polyhedral", "GradedSemigroup", "layer", "polyhedral.layer"))
    for short, cls_name, meth, name in methods:
        cls = getattr(mods[short], cls_name, None)
        if cls is not None and meth in vars(cls):
            setattr(cls, meth, tracer.span(name, short, vars(cls)[meth]))
    group_element = getattr(mods["abelian"], "GroupElement", None)
    if group_element is not None:
        group_element.__add__ = tracer.counted("abelian.group_add", group_element.__add__)


def median_metrics(passes):
    """Median across traced passes of each metric."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
