"""Span tracing from outside the package.

The traced run wraps the names each impulseflow module exposes, in every
impulseflow module namespace that holds them (``impulseflow.impulsive_system
.dense_eval`` as well as ``impulseflow.flow_core.dense_eval``), so the package
itself is never edited.  Spans are kept in flat arrays in memory, with the
index of their parent span, and written once when the run ends.

A span's self time is its duration minus the durations of its child spans.
The package is single-threaded and every span closes before its parent does,
so children never overlap and their sum is the time they cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


def _rows_of_self(args, kwargs, result):
    return {"rows": args[0].n}


def _rows_of_first_arg(args, kwargs, result):
    return {"rows": len(args[0])}


def _points_of_times(args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    return {"points": int(np.size(t))}


def _orbits_and_hits(args, kwargs, result):
    return {"orbits": len(result), "hits": sum(tr.n_impulses for tr in result)}


# span name, module under impulseflow, attribute ("Class.method" for methods),
# and the work counter recorded at the same boundary
LAYERS = (
    ("cli.main", "cli", "main", None),
    ("cli.run", "cli", "run", None),
    ("cli.write", "cli", "_atomic_write", None),
    ("flow_core.step", "flow_core", "BatchStepper.step", _rows_of_self),
    ("flow_core.dense_eval", "flow_core", "dense_eval", _rows_of_first_arg),
    ("flow_core.flow", "flow_core", "flow", None),
    ("flow_core.eval_vector_field", "flow_core", "eval_vector_field", None),
    ("impulsive_system.trajectory_batch", "impulsive_system",
     "impulsive_trajectory_batch", _orbits_and_hits),
    ("impulsive_system.evaluate", "impulsive_system",
     "ImpulsiveTrajectory.evaluate", _points_of_times),
    ("impulsive_system.first_hitting_time", "impulsive_system",
     "first_hitting_time", None),
    ("systems.candidate_cloud", "systems", "candidate_cloud", None),
    ("systems.sample_impulsive_set", "systems", "sample_impulsive_set", None),
    ("entropy.estimate", "entropy", "entropy_estimate", None),
    ("entropy.gap_set", "entropy", "gap_set", None),
    ("measures.occupation_measure", "measures", "occupation_measure", None),
    ("measures.pushforward_discrepancy", "measures", "pushforward_discrepancy", None),
    ("quotient.equivalence_class", "quotient", "equivalence_class", None),
    ("quotient.quotient_distance", "quotient", "quotient_distance", None),
    ("quotient.metric_axiom_audit", "quotient", "metric_axiom_audit", None),
    ("hypotheses.transversality_margin", "hypotheses", "transversality_margin", None),
    ("hypotheses.separation_report", "hypotheses", "separation_report", None),
    ("hypotheses.hitting_continuity_probe", "hypotheses",
     "hitting_continuity_probe", None),
)


class Tracer:
    """Records nested spans: name id, parent span index, start, end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so that each call records one span."""
        if name not in self.names:
            self.names.append(name)
        sid = self.names.index(name)
        totals = self.counts.setdefault(name, {})
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def arrays(self):
        """(name_ids, parents, durations) as numpy arrays."""
        return (np.frombuffer(self.name_ids, dtype=np.int32).copy(),
                np.frombuffer(self.parents, dtype=np.int32).copy(),
                np.frombuffer(self.ends) - np.frombuffer(self.starts))

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                            parents=np.frombuffer(self.parents, dtype=np.int32),
                            starts=np.frombuffer(self.starts),
                            ends=np.frombuffer(self.ends))


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children
    (``parents[i]`` is the index of span i's parent, -1 for a root)."""
    child = np.zeros(len(durations))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], durations[has_parent])
    return durations - child


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, span_s (summed durations), self_s, and the work
    counts recorded at that boundary."""
    name_ids, parents, durations = tracer.arrays()
    selfs = self_times(parents, durations)
    out = {}
    for sid, name in enumerate(tracer.names):
        mine = name_ids == sid
        out[name] = {"calls": int(mine.sum()),
                     "span_s": float(durations[mine].sum()),
                     "self_s": float(selfs[mine].sum()),
                     **tracer.counts.get(name, {})}
    return out


def install(tracer: Tracer) -> list[str]:
    """Wrap every name in LAYERS wherever an already imported impulseflow
    module binds it.  Returns the span names whose target is missing."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "impulseflow" or k.startswith("impulseflow."))]
    missing = []
    for name, module, attr, count in LAYERS:
        try:
            mod = importlib.import_module(f"impulseflow.{module}")
        except ModuleNotFoundError:
            missing.append(name)
            continue
        owner_name, _, meth = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            if owner is None or meth not in vars(owner):
                missing.append(name)
                continue
            setattr(owner, meth, tracer.wrap(name, vars(owner)[meth], count))
            continue
        original = getattr(mod, attr, None)
        if original is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, original, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return missing
