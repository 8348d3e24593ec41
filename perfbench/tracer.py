"""Spans around the public functions and methods of the program's layers.

The tracer patches module and class attributes, so every call that the
program resolves through them at call time (``ct.z_point_batch`` from
``analysis``, ``dyadic_blocks`` bound by ``continuum``, ``zeval.z_from`` from
the cell-mass table) lands in a wrapper that records a span: name, start,
end, parent span and the phase of the run (set-up, timed round, checks).
Spans stay in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("renewal", "discrete_pinning", "continuum", "closed_sets",
          "analysis")

SETUP, ROUND, CHECK = 0, 1, 2

# replicas handled by one call, for the ms_per_replica rates
WORK = {
    "continuum.z_point_batch": lambda args: args[1].shape[0],
    "discrete_pinning.partition_dp_batch": lambda args: args[2].shape[0],
}


class Tracer:
    """In-memory span store; one span per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase_of = array("b")
        self.work = array("d")
        self.phase = CHECK
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        work = WORK.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.phase_of.append(self.phase)
            self.work.append(work(args) if work else 0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "phase": np.frombuffer(self.phase_of, dtype=np.int8),
                "work": np.frombuffer(self.work)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _targets():
    """(owner, attribute, span name) for every public function and method
    of the layers; a function is listed once per module that binds it."""
    mods = {layer: importlib.import_module(f"pinning_lab.{layer}")
            for layer in LAYERS}
    out = []
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                for other in mods.values():
                    if vars(other).get(attr) is obj:
                        out.append((other, attr, f"{layer}.{attr}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for meth, fn in list(vars(obj).items()):
                    if not inspect.isfunction(fn):
                        continue
                    if meth == "__init__" and not dataclasses.is_dataclass(obj):
                        out.append((obj, meth, f"{layer}.{attr}.build"))
                    elif not meth.startswith("_"):
                        out.append((obj, meth, f"{layer}.{attr}.{meth}"))
    return out


@contextmanager
def installed(tracer: Tracer | None):
    """Route the layers' public callables through tracer's wrappers for the
    duration of the block; a None tracer leaves the program untouched."""
    if tracer is None:
        yield
        return
    saved = []
    wrappers: dict[int, object] = {}
    try:
        for owner, attr, name in _targets():
            fn = vars(owner)[attr]
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap(name, fn)
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def summarize(tracer: Tracer, n_setups: int, n_rounds: int) -> dict:
    """Per span name: calls, busy_s, self_s and work for one set-up plus one
    round (set-up totals over n_setups, round totals over n_rounds), and the
    number of z_from/z_to lookups made inside CdpmFddSampler builds."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    parent = a["parent"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    n = len(tracer.names)
    calls, busy, selfs, work = (np.zeros(n) for _ in range(4))
    for phase, count in ((SETUP, n_setups), (ROUND, n_rounds)):
        sel = a["phase"] == phase
        names = a["name"][sel]
        calls += np.bincount(names, minlength=n) / max(count, 1)
        busy += np.bincount(names, dur[sel], minlength=n) / max(count, 1)
        selfs += np.bincount(names, self_t[sel], minlength=n) / max(count, 1)
        work += np.bincount(names, a["work"][sel], minlength=n) / max(count, 1)
    out = {name: {"calls": calls[i], "busy_s": busy[i], "self_s": selfs[i],
                  "work": work[i]} for i, name in enumerate(tracer.names)}
    build = tracer._ids.get("continuum.CdpmFddSampler.build")
    lookup_ids = [tracer._ids[k] for k in ("continuum.ZEvaluator.z_from",
                                           "continuum.ZEvaluator.z_to")
                  if k in tracer._ids]
    if build is not None and lookup_ids:
        sel = np.flatnonzero(np.isin(a["name"], lookup_ids)
                             & (a["phase"] != CHECK))
        inside = np.zeros(len(sel), dtype=bool)
        anc = parent[sel]
        while np.any(anc >= 0):
            live = anc >= 0
            inside[live] |= a["name"][anc[live]] == build
            anc = np.where(live, parent[np.maximum(anc, 0)], -1)
        per = np.where(a["phase"][sel] == SETUP, 1.0 / max(n_setups, 1),
                       1.0 / max(n_rounds, 1))
        out["continuum.CdpmFddSampler.build"]["lookups"] = float(
            np.sum(per[inside]))
    return out
