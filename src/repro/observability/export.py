"""Exporters: JSON-lines traces, span trees, metrics summaries.

Three consumers, three formats:

- **JSON lines** (``write_trace_jsonl`` / ``read_trace_jsonl``): one
  record per line — span records first (creation order, so parents
  precede children), then a single ``{"type": "metrics", ...}`` record.
  This is the ``repro identify --trace FILE`` output and what
  ``repro stats FILE`` reads back.
- **Span tree** (``format_span_tree``): a human-readable, indented
  rendering with durations and attributes, for terminals.
- **Metrics summary** (``format_metrics``): aligned counter/histogram
  tables, for the ``--metrics`` flag and the ``stats`` view.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.observability.tracer import Span, Tracer

__all__ = [
    "span_to_record",
    "trace_to_records",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "format_span_tree",
    "format_profile",
    "format_metrics",
    "format_blocking_summary",
    "format_resilience_summary",
    "format_store_summary",
    "format_trace_summary",
]

Record = Dict[str, Any]


def span_to_record(span: Span) -> Record:
    """One span as a flat, JSON-serialisable record.

    Profiled spans (see :meth:`Tracer.set_profile
    <repro.observability.tracer.Tracer.set_profile>`) additionally carry
    a ``memory`` block and the ``counters`` that moved while the span
    was open.
    """
    record = {
        "type": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "start": span.start,
        "duration": span.duration,
        "attributes": _jsonable(span.attributes),
    }
    memory = getattr(span, "memory", None)
    if memory:
        record["memory"] = dict(memory)
    counter_deltas = getattr(span, "counter_deltas", None)
    if counter_deltas:
        record["counters"] = dict(counter_deltas)
    return record


def trace_to_records(tracer: Tracer) -> List[Record]:
    """The whole trace as records: spans (creation order) then metrics."""
    records: List[Record] = [span_to_record(s) for s in tracer.finished_spans()]
    records.append({"type": "metrics", **tracer.metrics.snapshot()})
    return records


def write_trace_jsonl(tracer: Tracer, path: str) -> int:
    """Dump the trace to *path* as JSON lines; returns the record count."""
    records = trace_to_records(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(records)


def read_trace_jsonl(path: str) -> Tuple[List[Record], Optional[Record]]:
    """Parse a JSON-lines trace file back into (span records, metrics).

    The metrics record is None when the file carries no metrics line
    (e.g. a truncated dump).  Raises ``ValueError`` on malformed lines.
    """
    spans: List[Record] = []
    metrics: Optional[Record] = None
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError(f"{path}:{number}: record lacks a 'type' field")
            if record["type"] == "span":
                spans.append(record)
            elif record["type"] == "metrics":
                metrics = record
            else:
                raise ValueError(
                    f"{path}:{number}: unknown record type {record['type']!r}"
                )
    return spans, metrics


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------
def format_span_tree(source: Union[Tracer, Iterable[Record]]) -> str:
    """Indented tree of spans with durations and attributes.

    Accepts a live :class:`Tracer` or span records from
    :func:`read_trace_jsonl`.
    """
    if isinstance(source, Tracer):
        records = [span_to_record(s) for s in source.finished_spans()]
    else:
        records = list(source)
    if not records:
        return "(no spans recorded)"
    children: Dict[Optional[int], List[Record]] = {}
    for record in records:
        children.setdefault(record.get("parent"), []).append(record)

    lines: List[str] = []

    def render(record: Record, depth: int) -> None:
        duration_ms = record.get("duration", 0.0) * 1e3
        attrs = record.get("attributes") or {}
        attr_text = (
            " " + " ".join(f"{k}={attrs[k]!r}" for k in sorted(attrs))
            if attrs
            else ""
        )
        lines.append(
            f"{'  ' * depth}{record['name']}  {duration_ms:.3f} ms{attr_text}"
        )
        for child in children.get(record.get("id"), ()):
            render(child, depth + 1)

    for root in children.get(None, ()):
        render(root, 0)
    return "\n".join(lines)


def format_profile(source: Union[Tracer, Iterable[Record]]) -> str:
    """The profiler's tree view: time, memory, and counter attribution.

    Like :func:`format_span_tree` but rendering the per-span ``memory``
    block (RSS or tracemalloc delta, per the tracer's profile mode) and
    the counters that moved while each span was open.  Spans recorded
    without profiling render with timings only.
    """
    if isinstance(source, Tracer):
        records = [span_to_record(s) for s in source.finished_spans()]
    else:
        records = list(source)
    if not records:
        return "(no spans recorded)"
    children: Dict[Optional[int], List[Record]] = {}
    for record in records:
        children.setdefault(record.get("parent"), []).append(record)

    lines: List[str] = []

    def render(record: Record, depth: int) -> None:
        duration_ms = record.get("duration", 0.0) * 1e3
        parts = [f"{'  ' * depth}{record['name']}  {duration_ms:.3f} ms"]
        memory = record.get("memory") or {}
        if "delta_kb" in memory:
            parts.append(f"mem {memory['delta_kb']:+.1f} KiB")
        counters = record.get("counters") or {}
        if counters:
            shown = sorted(counters.items(), key=lambda kv: -abs(kv[1]))[:3]
            parts.append(
                "[" + " ".join(f"{name} {delta:+d}" for name, delta in shown) + "]"
            )
        lines.append("  ".join(parts))
        for child in children.get(record.get("id"), ()):
            render(child, depth + 1)

    for root in children.get(None, ()):
        render(root, 0)
    return "\n".join(lines)


def format_metrics(snapshot: Mapping[str, Any]) -> str:
    """Aligned rendering of a :meth:`MetricsRegistry.snapshot` dict."""
    counters: Mapping[str, int] = snapshot.get("counters", {}) or {}
    histograms: Mapping[str, Mapping[str, float]] = (
        snapshot.get("histograms", {}) or {}
    )
    if not counters and not histograms:
        return "(no metrics recorded)"
    lines: List[str] = []
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")
    if histograms:
        if lines:
            lines.append("")
        lines.append("histograms:")
        width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"  {name:<{width}}  count={h['count']} mean={h['mean']:.2f} "
                f"min={h['min']:g} max={h['max']:g}"
            )
    return "\n".join(lines)


def format_trace_summary(
    spans: Iterable[Record], metrics: Optional[Mapping[str, Any]] = None
) -> str:
    """The ``repro stats`` view: per-span-name totals plus metrics.

    Aggregates spans by name (count, total/mean duration) — the quick
    "where did the time go" answer — then appends the metrics tables.
    """
    spans = list(spans)
    lines: List[str] = []
    if spans:
        totals: Dict[str, List[float]] = {}
        for record in spans:
            totals.setdefault(record["name"], []).append(
                record.get("duration", 0.0)
            )
        lines.append("spans (aggregated by name):")
        width = max(len(name) for name in totals)
        for name in sorted(totals, key=lambda n: -sum(totals[n])):
            durations = totals[name]
            total_ms = sum(durations) * 1e3
            lines.append(
                f"  {name:<{width}}  n={len(durations)}  "
                f"total={total_ms:.3f} ms  mean={total_ms / len(durations):.3f} ms"
            )
    else:
        lines.append("(no spans recorded)")
    blocking = format_blocking_summary(metrics) if metrics is not None else ""
    if blocking:
        lines.append("")
        lines.append(blocking)
    store = format_store_summary(metrics) if metrics is not None else ""
    if store:
        lines.append("")
        lines.append(store)
    resilience = format_resilience_summary(metrics) if metrics is not None else ""
    if resilience:
        lines.append("")
        lines.append(resilience)
    if metrics is not None:
        lines.append("")
        lines.append(format_metrics(metrics))
    return "\n".join(lines)


def format_blocking_summary(snapshot: Mapping[str, Any]) -> str:
    """Candidate-generation aggregates, when a run recorded any.

    Renders the ``blocking.*`` / ``executor.*`` counters as one compact
    per-phase block — pairs generated and pruned, the resulting reduction
    ratio, and the pairs the executor classified — or "" when the run
    used no blocker.
    """
    counters: Mapping[str, int] = snapshot.get("counters", {}) or {}
    generated = counters.get("blocking.pairs_generated")
    if generated is None:
        return ""
    pruned = counters.get("blocking.pairs_pruned", 0)
    total = generated + pruned
    ratio = pruned / total if total else 0.0
    lines = [
        "blocking (candidate generation):",
        f"  pairs generated   {generated}",
        f"  pairs pruned      {pruned}",
        f"  reduction ratio   {ratio:.2%}",
    ]
    evaluated = counters.get("executor.pairs_evaluated")
    if evaluated is not None:
        lines.append(f"  pairs evaluated   {evaluated}")
    return "\n".join(lines)


def format_store_summary(snapshot: Mapping[str, Any]) -> str:
    """Persistence aggregates, when a run wrote to a match store.

    Renders the ``store.*`` counters — table writes, journal appends,
    transactions, and any checkpoint/resume accounting — or "" when the
    run persisted nothing.
    """
    counters: Mapping[str, int] = snapshot.get("counters", {}) or {}
    histograms: Mapping[str, Mapping[str, float]] = (
        snapshot.get("histograms", {}) or {}
    )
    writes = counters.get("store.writes")
    journal = counters.get("store.journal_entries")
    if writes is None and journal is None:
        return ""
    lines = [
        "store (persistence):",
        f"  table writes      {writes or 0}",
        f"  journal entries   {journal or 0}",
    ]
    removes = counters.get("store.removes")
    if removes:
        lines.append(f"  removes           {removes}")
    transactions = counters.get("store.transactions")
    if transactions:
        lines.append(f"  transactions      {transactions}")
    checkpoints = counters.get("store.checkpoints")
    if checkpoints:
        lines.append(f"  checkpoints       {checkpoints}")
        size = histograms.get("store.checkpoint_bytes")
        if size:
            lines.append(f"  checkpoint bytes  {size['max']:g}")
    resumes = counters.get("store.resumes")
    if resumes:
        lines.append(f"  resumes           {resumes}")
        load = histograms.get("store.load_ms")
        if load:
            lines.append(f"  load time         {load['mean']:.3f} ms")
    return "\n".join(lines)


def format_resilience_summary(snapshot: Mapping[str, Any]) -> str:
    """Fault-handling aggregates, when a run hit (or injected) failures.

    Renders the ``resilience.*`` counters — injected faults, retries and
    backoff, quarantined pairs, failed commits, degraded sources, and
    salvages — or "" when the run saw no failures at all (the common,
    healthy case stays silent).
    """
    counters: Mapping[str, int] = snapshot.get("counters", {}) or {}
    rows = [
        ("faults injected", "resilience.faults_injected"),
        ("retries", "resilience.retries"),
        ("give-ups", "resilience.giveups"),
        ("backoff ms", "resilience.backoff_ms"),
        ("pairs quarantined", "resilience.pairs_quarantined"),
        ("commit failures", "resilience.commit_failures"),
        ("source failures", "resilience.source_failures"),
        ("degraded refreshes", "resilience.degraded_refreshes"),
        ("stale served", "resilience.stale_served"),
        ("salvages", "resilience.salvages"),
    ]
    present = [
        (label, counters[name]) for label, name in rows if counters.get(name)
    ]
    if not present:
        return ""
    width = max(len(label) for label, _ in present)
    lines = ["resilience (fault handling):"]
    for label, value in present:
        lines.append(f"  {label:<{width}}  {value}")
    return "\n".join(lines)


def _jsonable(attributes: Mapping[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe types (repr as last resort)."""
    out: Dict[str, Any] = {}
    for key, value in attributes.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out
