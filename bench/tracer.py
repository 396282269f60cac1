"""In-memory spans and counters around the layers of the twomode package.

While installed, the tracer replaces, at every place a module looks it up,

* each public function of the seven layer modules by a span wrapper named
  ``<layer>.<function>``;
* the scenario methods ``coupling``, ``diag_integrals`` and ``eta`` by the
  spans ``scenario.coupling`` and so on, and every drive's ``__call__`` by
  ``scenario.drive``;
* ``scipy.linalg.expm`` by the leaf span ``<layer>.expm``;
* ``scipy.integrate.solve_ivp`` and ``quad`` by counting wrappers.  Their
  counts go to the module that looked them up (``riccati.quad.evals``) and
  to the innermost open span (``evolution.c_coefficients.nfev``,
  ``.ivp_span_s``, ``.quad_evals``);
* ``evolution._su2_lift`` by a counter (``evolution.su2_fallbacks``), and
  the CLI file writers by a byte counter (``cli.bytes_written``).

A span's self time is its duration minus the time covered by its child
spans.  Every span is kept in memory (name, parent, operation, start, end)
and written out by ``write`` when the run ends.  ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("scenario", "riccati", "smatrix", "evolution", "fock", "oracle",
          "cli")
SCENARIO_METHODS = ("coupling", "diag_integrals", "eta")
DRIVE_CLASSES = ("ConstantDrive", "RotatingDrive", "CosineDrive",
                 "_SplineDrive")
STEP_ARGUMENT = {"oracle.brute_force_propagator": "n_steps",
                 "oracle.brute_force_smatrix": "n_steps"}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []   # open spans: [name, child_seconds, index]
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1

    # ------------------------------------------------------------------
    # installation

    def install(self):
        namespaces = list(self.modules.values()) + [self.package]
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapper = self._span_wrapper(f"{layer}.{name}", obj)
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, attr, wrapper)
            if hasattr(mod, "expm"):
                self._patch(mod, "expm",
                            self._span_wrapper(f"{layer}.expm", mod.expm))
            if hasattr(mod, "solve_ivp"):
                self._patch(mod, "solve_ivp",
                            self._ivp_wrapper(layer, mod.solve_ivp))
            if hasattr(mod, "quad"):
                self._patch(mod, "quad", self._quad_wrapper(layer, mod.quad))

        scenario = self.modules["scenario"]
        for obj in vars(scenario).values():
            if inspect.isclass(obj) and issubclass(obj, scenario.Scenario):
                for meth in SCENARIO_METHODS:
                    if meth in obj.__dict__:
                        self._patch(obj, meth, self._span_wrapper(
                            f"scenario.{meth}", obj.__dict__[meth]))
        for cls_name in DRIVE_CLASSES:
            cls = getattr(scenario, cls_name)
            self._patch(cls, "__call__",
                        self._span_wrapper("scenario.drive", cls.__call__))

        evolution = self.modules["evolution"]
        self._patch(evolution, "_su2_lift", self._counting_wrapper(
            "evolution.su2_fallbacks", evolution._su2_lift))
        cli = self.modules["cli"]
        for writer in ("_write_csv", "_write_json"):
            self._patch(cli, writer, self._bytes_wrapper(getattr(cli, writer)))
        return self

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    # ------------------------------------------------------------------
    # wrappers

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, name, fn):
        nid = self._name_id(name)
        step_arg = STEP_ARGUMENT.get(name)
        signature = inspect.signature(fn) if step_arg else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if step_arg:
                bound = signature.bind(*args, **kwargs)
                self.counters[f"{name}.steps"] += bound.arguments[step_arg]
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][2] if stack else -1)
            self.span_op.append(self.op)
            frame = [name, 0.0, index]
            stack.append(frame)
            self.span_end.append(0.0)
            start = perf_counter()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def _innermost(self):
        return self._stack[-1][0] if self._stack else "benchmark"

    def _ivp_wrapper(self, layer, fn):
        @functools.wraps(fn)
        def counted(fun, t_span, *args, **kwargs):
            sol = fn(fun, t_span, *args, **kwargs)
            span = self._innermost()
            self.counters[f"{layer}.solve_ivp.calls"] += 1
            self.counters[f"{layer}.solve_ivp.nfev"] += sol.nfev
            self.counters[f"{span}.nfev"] += sol.nfev
            self.counters[f"{span}.ivp_span_s"] += abs(t_span[1] - t_span[0])
            return sol

        return counted

    def _quad_wrapper(self, layer, fn):
        @functools.wraps(fn)
        def counted(func, a, b, *args, **kwargs):
            evals = 0

            def integrand(*x):
                nonlocal evals
                evals += 1
                return func(*x)

            span = self._innermost()
            try:
                return fn(integrand, a, b, *args, **kwargs)
            finally:
                self.counters[f"{layer}.quad.calls"] += 1
                self.counters[f"{layer}.quad.evals"] += evals
                self.counters[f"{span}.quad_evals"] += evals

        return counted

    def _counting_wrapper(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _bytes_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.counters["cli.bytes_written"] += os.path.getsize(path)
            return result

        return counted

    # ------------------------------------------------------------------
    # results

    def value(self, key: str) -> float:
        """A per-layer figure: ``<span>.self_s``, ``<span>.calls`` or any
        counter.  Spans and counters never reached read 0."""
        if key.endswith(".self_s"):
            return self.self_s.get(key[:-len(".self_s")], 0.0)
        if key.endswith(".calls") and key[:-len(".calls")] in self._name_ids:
            return float(self.calls.get(key[:-len(".calls")], 0))
        return float(self.counters.get(key, 0.0))

    def table(self) -> dict:
        return {name: {"calls": self.calls[name],
                       "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)}

    def write(self, base: str, extra: dict) -> None:
        """Write every recorded span to ``<base>.npz`` (one entry per span:
        name index, parent span, operation, start and end in seconds from
        the first span) and the aggregate table to ``<base>.json``."""
        origin = self.span_start[0] if self.span_start else 0.0
        np.savez(base + ".npz",
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=float) - origin,
                 end=np.frombuffer(self.span_end, dtype=float) - origin)
        with open(base + ".json", "w") as fh:
            json.dump({"spans": self.table(), "counters": dict(self.counters),
                       **extra}, fh, indent=1, sort_keys=True)
