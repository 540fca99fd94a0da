"""Spans around ncorlicz's public functions, installed from outside the package.

``install`` wraps every public function of each module, rebinds each name
under which other modules imported it (``from .norms import ...``), wraps
three methods at class level and the entries of the verify registry. Each
span records its name, start, end, parent span and operation; spans stay in
memory until ``save`` writes them out. Calls, inclusive time (outermost
instance of a name only, so recursion is not counted twice) and self time
(duration minus direct children) are totalled as spans close.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

MODULES = ("algebra", "orlicz", "rearrangement", "norms", "quadrature",
           "morphisms", "sampling", "loaders", "verify")
METHODS = (("orlicz", "OrliczFunction", "eval_many"),
           ("rearrangement", "WeightedContext", "F"),
           ("rearrangement", "WeightedContext", "piece_masses"))
# The CLI is traced at its entry point only, so cli.main's self time is all
# the work the command layer does itself: parsing, digests, report output.
ENTRY_POINTS = (("cli", "main"),)
# (inner, outer): count calls of inner made while outer is running
NESTED = (("norms.modular", "norms.luxemburg_norm"),
          ("algebra.apply_function", "norms.kunze_norm"),
          ("norms.modular", "norms.amemiya_norm"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_time: list[float] = []
        self._active: list[int] = []
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self.nested: dict[tuple[str, str], int] = {pair: 0 for pair in NESTED}
        self.op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        sid = self._id(name)
        watch = [(self._id(pair[1]), pair) for pair in NESTED if pair[0] == name]
        clock = time.perf_counter
        stack = self._stack
        active = self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for outer_id, pair in watch:
                if active[outer_id]:
                    self.nested[pair] += 1
            idx = len(self.span_name)
            self.span_name.append(sid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            active[sid] += 1
            frame = [idx, sid, clock(), 0.0]
            self.span_start.append(frame[2])
            self.span_end.append(0.0)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[sid] -= 1
                dur = end - frame[2]
                self.span_end[idx] = end
                self.calls[sid] += 1
                self.self_time[sid] += dur - frame[3]
                if not active[sid]:
                    self.inclusive[sid] += dur
                if stack:
                    stack[-1][3] += dur

        return traced

    def save(self, path) -> None:
        """Write every span: name id, parent span, operation, start and end (s)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float))

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        return {n: (self.calls[i], self.inclusive[i], self.self_time[i])
                for i, n in enumerate(self.names)}


def install(tracer: Tracer) -> None:
    """Wrap ncorlicz's public functions and rebind every alias of them."""
    import importlib

    import ncorlicz

    mods = {m: importlib.import_module(f"ncorlicz.{m}") for m in MODULES + ("cli",)}
    targets = []
    for m in MODULES:
        mod = mods[m]
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or (m == "verify" and attr.startswith("check_"))):
                continue
            targets.append((f"{m}.{attr}", fn))
    for m, attr in ENTRY_POINTS:
        targets.append((f"{m}.{attr}", getattr(mods[m], attr)))

    namespaces = list(mods.values()) + [ncorlicz]
    for name, fn in targets:
        wrapped = tracer.wrap(name, fn)
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is fn:
                    setattr(ns, attr, wrapped)

    for m, cls_name, meth in METHODS:
        cls = getattr(mods[m], cls_name)
        setattr(cls, meth, tracer.wrap(f"{m}.{meth}", vars(cls)[meth]))

    checks = mods["verify"].CHECKS
    for name, fn in list(checks.items()):
        checks[name] = tracer.wrap(f"verify.{name}", fn)
