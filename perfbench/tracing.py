"""Span tracing of the affinekit layers, installed from outside the package.

``Tracer.install`` wraps every public function defined in each layer module
and rebinds it wherever the package holds a reference: module globals
(``from .kinetics import inverse_legendre`` copies the function) and
module-level dicts such as ``checks.SUITE_RUNNERS``.  Class methods and
private helpers are not wrapped, so their time counts as self time of the
wrapped function that called them.  Spans are kept in flat arrays while the
traced phase runs and summarized or dumped afterwards.  The tracer assumes
one thread, which holds while ``AFFINEKIT_THREADS`` is unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "scenario", "runner", "dynamics", "kinetics", "potentials",
          "matcore", "kinematics", "checks", "measures", "qdesk")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("q")
        self.job = array("l")
        self.job_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, label: str, fn):
        ident = len(self.names)
        self.names.append(label)
        start, end, name, parent, job = self.start, self.end, self.name, self.parent, self.job
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            name.append(ident)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.job_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        wrappers = {}
        for label in LAYERS:
            mod = importlib.import_module(f"affinekit.{label}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{label}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "affinekit" and not modname.startswith("affinekit."):
                continue
            namespaces = [vars(mod)]
            namespaces += [v for v in vars(mod).values() if isinstance(v, dict)]
            for space in namespaces:
                for key, obj in list(space.items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patches.append((space, key, obj))
                        space[key] = wrappers[obj]

    def uninstall(self) -> None:
        for space, key, obj in reversed(self._patches):
            space[key] = obj
        self._patches.clear()

    def spans(self) -> dict:
        """The recorded spans as numpy arrays, in start order."""
        if self._stack:
            raise RuntimeError("spans read while a traced call is open")
        return {"start": np.array(self.start), "end": np.array(self.end),
                "name": np.array(self.name), "parent": np.array(self.parent),
                "job": np.array(self.job)}


class SpanSummary:
    """Self times, per-name statistics and nesting counts of one traced phase."""

    def __init__(self, names: list[str], spans: dict, wall_s: float):
        self.names = names
        self.start, self.end = spans["start"], spans["end"]
        self.name, self.parent = spans["name"], spans["parent"]
        self.dur = self.end - self.start
        nested = self.parent >= 0
        covered = np.zeros_like(self.dur)
        np.add.at(covered, self.parent[nested], self.dur[nested])
        self.self_time = self.dur - covered
        self.wall_s = wall_s
        self.bench_self_s = wall_s - float(self.dur[~nested].sum())
        inside = (self.start[nested] >= self.start[self.parent[nested]]) \
            & (self.end[nested] <= self.end[self.parent[nested]])
        self.well_nested = bool(np.all(inside)) and bool(np.all(self.self_time >= -1e-9))
        self.module_of = np.array([label.split(".")[0] for label in names] or [""])
        self._ids = {label: i for i, label in enumerate(names)}

    def module_self_s(self) -> dict:
        mods = self.module_of[self.name] if len(self.name) else np.array([], dtype=str)
        return {m: float(self.self_time[mods == m].sum()) for m in LAYERS}

    def self_sum_residual_s(self) -> float:
        """Module self times plus the benchmark's own time, minus the wall time."""
        return float(self.self_time.sum()) + self.bench_self_s - self.wall_s

    def _mask(self, label: str) -> np.ndarray:
        return self.name == self._ids.get(label, -1)

    def total_s(self, label: str) -> float:
        return float(self.dur[self._mask(label)].sum())

    def self_total_s(self, label: str) -> float:
        return float(self.self_time[self._mask(label)].sum())

    def median_us(self, label: str, self_only: bool = False) -> float:
        values = (self.self_time if self_only else self.dur)[self._mask(label)]
        return float(np.median(values)) * 1e6 if len(values) else 0.0

    def count_within(self, outer: str, inner: str) -> int:
        """Spans named ``inner`` nested anywhere below spans named ``outer``.

        Spans are stored in start order and nest on one thread, so the
        descendants of span i are exactly the spans that start inside it.
        """
        hits = np.concatenate([[0], np.cumsum(self._mask(inner))])
        total = 0
        for i in np.flatnonzero(self._mask(outer)):
            j = int(np.searchsorted(self.start, self.end[i], side="left"))
            total += int(hits[j] - hits[i + 1])
        return total

    def counts(self) -> dict:
        calls = np.bincount(self.name, minlength=len(self.names))
        return {label: int(c) for label, c in zip(self.names, calls) if c}


def dump(path: str, names: list[str], spans: dict, job_keys: list[str], t0: float) -> None:
    """Write the spans of one traced phase as a compressed ``.npz`` file."""
    np.savez_compressed(path, names=np.array(names), job_keys=np.array(job_keys),
                        start=spans["start"] - t0, end=spans["end"] - t0,
                        name=spans["name"], parent=spans["parent"], job=spans["job"])
