"""Spans recorded from outside the program, plus the statistics helpers.

The benchmark measures each layer by wrapping the public calls a
workload makes into it (``EntityIdentifier.matching_table``,
``IdentityGraph.clusters``, every ``MatchStore`` method, ``Blocker.block``
and so on); no file under ``src/`` knows it is being measured.  A span
has a name, start, end, parent and the trace id of the job or request it
belongs to.  Spans live in memory and are written out only when asked.
This module imports nothing from the program, so ``compare`` runs
without it.

A layer's *self time* is its span's duration minus the durations of its
child spans.  Calls too short and too many to record one by one (store
writes: tens of thousands per job) are folded into one aggregate child
span per (parent, name), which carries the summed duration and a call
count, so self-time arithmetic stays exact.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence

__all__ = [
    "Recorder",
    "TimedStore",
    "instrument",
    "self_times",
    "percentile",
    "quartiles",
    "maxrss_mb",
    "tail_percentile",
    "write_jsonl",
]


class Recorder:
    """Collects the spans of one trace (one batch job or one request stream)."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._leaves: Dict[Any, Dict[str, Any]] = {}

    def _new(self, name: str, start: float) -> Dict[str, Any]:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "trace": self.trace_id,
            "name": name,
            "start": start,
            "end": start,
            "duration": 0.0,
            "calls": 0,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = self._new(name, perf_counter())
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = perf_counter()
            record["duration"] = record["end"] - record["start"]
            record["calls"] = 1

    def leaf(self, name: str, start: float, end: float) -> None:
        """Fold one short call into the open span's aggregate *name* child."""
        key = (self._stack[-1] if self._stack else None, name)
        record = self._leaves.get(key)
        if record is None:
            record = self._leaves[key] = self._new(name, start)
        record["end"] = end
        record["duration"] += end - start
        record["calls"] += 1

    def export(self) -> List[Dict[str, Any]]:
        """The spans with times relative to the first span's start."""
        if not self.spans:
            return []
        origin = self.spans[0]["start"]
        return [
            dict(span, start=span["start"] - origin, end=span["end"] - origin)
            for span in self.spans
        ]


def self_times(spans: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """Summed self time per span name, for the spans of one trace."""
    spans = list(spans)
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["duration"]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["duration"] - children[span["id"]]
    return dict(totals)


def instrument(obj: Any, methods: Mapping[str, str], recorder: Recorder) -> Any:
    """Wrap each ``obj.<method>`` in a span named ``methods[method]``.

    The wrapper is set on the instance, so the object's own calls to
    ``self.<method>()`` are recorded too.
    """
    for method, span_name in methods.items():
        original = getattr(obj, method)

        def wrapper(*args, _original=original, _name=span_name, **kwargs):
            with recorder.span(_name):
                return _original(*args, **kwargs)

        setattr(obj, method, wrapper)
    return obj


class TimedStore:
    """Delegates to a ``MatchStore``, timing every call as ``store.busy``.

    Reads, writes, and the BEGIN and COMMIT of each transaction count;
    the body of a transaction does not (its store calls are timed one by
    one).  ``calls`` and ``commits`` count what was timed.
    """

    def __init__(self, inner: Any, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self._depth = 0
        self.calls = 0
        self.commits = 0

    def __getattr__(self, name: str) -> Any:
        attribute = getattr(self._inner, name)
        if not callable(attribute):
            return attribute
        recorder = self._recorder

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return attribute(*args, **kwargs)
            finally:
                recorder.leaf("store.busy", start, perf_counter())
                self.calls += 1

        # Cached on the instance: later lookups skip __getattr__.
        self.__dict__[name] = timed
        return timed

    @contextmanager
    def transaction(self) -> Iterator["TimedStore"]:
        start = perf_counter()
        with self._inner.transaction():
            self._recorder.leaf("store.busy", start, perf_counter())
            self._depth += 1
            try:
                yield self
            finally:
                self._depth -= 1
                start = perf_counter()
        self._recorder.leaf("store.busy", start, perf_counter())
        if self._depth == 0:
            self.commits += 1


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the largest value when the sample is small)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(samples: int) -> float:
    """The highest percentile, up to 99, with at least ten samples beyond it.

    Below twenty samples no tail is supported and this is the median.
    """
    if samples <= 20:
        return 50.0
    return min(99.0, 100.0 * (samples - 10) / samples)


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile (``statistics.quantiles``)."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def maxrss_mb(ru_maxrss: int) -> float:
    """``ru_maxrss`` in MiB (the kernel reports KiB on Linux, bytes on macOS)."""
    return ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)


def write_jsonl(path: str, spans: Iterable[Mapping[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
