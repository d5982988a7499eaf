"""In-memory spans around the calls into each rcmperc layer.

The tracer replaces module and class attributes with timing wrappers at
the places where rcmperc looks them up, so nothing inside the package
changes. A name bound with `from ... import` is wrapped in the module
that calls it (`rcmperc.exploration.place_candidates`, not
`rcmperc.sampling.place_candidates`). Each span records its name, start,
end, parent span and the trial it belongs to; spans stay in flat arrays
in memory until `save` writes them out.

A layer's self time is its spans' duration minus the part covered by
their child spans. Calls in one process never overlap, so that part is
the sum of the direct children's durations.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

# (metric prefix, module, attribute): module may name a class as
# "module:Class". A prefix listed twice sums the call sites.
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("sampling.trial_stream", "rcmperc.exploration", "trial_stream"),
    ("sampling.poisson_count", "rcmperc.exploration", "poisson_count"),
    ("sampling.place_candidates", "rcmperc.exploration", "place_candidates"),
    ("sampling.uniform_in_ball", "rcmperc.sampling", "uniform_in_ball"),
    ("geometry.SpatialIndex.init", "rcmperc.geometry:SpatialIndex", "__init__"),
    ("geometry.SpatialIndex.query", "rcmperc.geometry:SpatialIndex", "query"),
    ("geometry.SpatialIndex.insert", "rcmperc.geometry:SpatialIndex", "insert"),
    ("geometry.SpatialIndex.remove", "rcmperc.geometry:SpatialIndex", "remove"),
    ("connection.decide_connection", "rcmperc.exploration", "decide_connection"),
    ("exploration.explore_cluster", "rcmperc.exploration", "explore_cluster"),
    ("exploration.estimate_pair_connectedness", "rcmperc.cli", "estimate_pair_connectedness"),
    ("threshold.percolation_verdict", "rcmperc.threshold", "percolation_verdict"),
    ("threshold.estimate_critical", "rcmperc.threshold", "estimate_critical"),
    ("parallel.run_trials", "rcmperc.threshold", "run_trials"),
    ("parallel.run_trials", "rcmperc.exploration", "run_trials"),
    ("bounds.branching_bound", "rcmperc.threshold", "branching_bound"),
    ("cli.run_cli", "rcmperc.cli", "run_cli"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(prefix for prefix, _, _ in WRAPS))

Hook = Callable[["Tracer", tuple, dict, Any], None]


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class Tracer:
    """Spans and counters for one traced pass; `install` patches, `remove` undoes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.current_trial = -1
        self.trials_begun = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def begin_trial(self) -> None:
        self.current_trial = self.trials_begun
        self.trials_begun += 1

    def wrap(self, owner: Any, attr: str, name: str,
             before: Hook | None = None, after: Hook | None = None) -> None:
        """Replace owner.attr with a wrapper that records one span per call."""
        original = getattr(owner, attr, None)
        if original is None:
            # A later refactor may remove a call site; report it, keep running.
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, start, end, parent, trial = self.name, self.start, self.end, self.parent, self.trial
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs, None)
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            trial.append(tracer.current_trial)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            end.append(t0)
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, only: tuple[str, ...] | None = None) -> "Tracer":
        """Wrap every call site in WRAPS, or those whose prefix is in `only`."""
        for prefix, path, attr in WRAPS:
            if only is not None and prefix not in only:
                continue
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError):
                self.missing.append(f"{path}.{attr}")
                continue
            before, after = HOOKS.get(prefix, (None, None))
            self.wrap(owner, attr, prefix, before, after)
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial, dtype=np.int32).copy(),
        }

    def span_totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name, zero for names never called."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        selft = np.bincount(a["name"], weights=own, minlength=n)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "total_s": float(total[i]),
                         "self_s": float(selft[i])}
        return out

    def durations(self, name: str) -> np.ndarray:
        a = self.arrays()
        if name not in self.names:
            return np.zeros(0)
        pick = a["name"] == self.names.index(name)
        return a["end"][pick] - a["start"][pick]

    def save(self, path: Path, meta: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), meta=np.array(repr(meta)),
                            **self.arrays())


# --- counters taken at the same boundaries as the spans ---------------------


def _count_query(t: Tracer, args, kwargs, result) -> None:
    t.counts["geometry.SpatialIndex.query.returned"] += len(result)


def _count_place(t: Tracer, args, kwargs, result) -> None:
    count = kwargs["count"] if "count" in kwargs else args[5] if len(args) > 5 else 0
    t.counts["sampling.place_candidates.drawn"] += max(int(count), 0)
    t.counts["sampling.place_candidates.kept"] += len(result)


def _count_decide(t: Tracer, args, kwargs, result) -> None:
    t.counts["connection.decide_connection.accepted"] += bool(result)


def _trial_start(t: Tracer, args, kwargs, result) -> None:
    t.begin_trial()


def _explore_start(t: Tracer, args, kwargs, result) -> None:
    if t.current_trial < 0:
        t.begin_trial()


def _explore_end(t: Tracer, args, kwargs, result) -> None:
    t.counts["exploration.explore_cluster.steps"] += getattr(result, "steps", 0)
    t.counts["exploration.explore_cluster.generated"] += getattr(result, "generated_points", 0)
    t.current_trial = -1


def _count_verdict(t: Tracer, args, kwargs, result) -> None:
    t.counts["threshold.trials"] += getattr(result, "runs", 0)


HOOKS: dict[str, tuple[Hook | None, Hook | None]] = {
    "sampling.trial_stream": (_trial_start, None),
    "sampling.place_candidates": (None, _count_place),
    "geometry.SpatialIndex.query": (None, _count_query),
    "connection.decide_connection": (None, _count_decide),
    "exploration.explore_cluster": (_explore_start, _explore_end),
    "threshold.percolation_verdict": (None, _count_verdict),
}
