"""Trace exporters: Chrome ``trace_event`` JSON (Perfetto) and flat summaries.

:func:`to_chrome_trace` converts finished :class:`~repro.obs.trace.SpanRecord`
lists into the Chrome trace-event JSON object format — complete ``"X"``
(duration) events with microsecond timestamps plus per-thread name metadata —
which https://ui.perfetto.dev and ``chrome://tracing`` load directly.  Span
counters travel in each event's ``args``, so clicking a scheduler-dimension
span in Perfetto shows its pivot/node/warm counters.

:func:`summarize` aggregates the same records into a flat per-span-name
table (count, total/self wall, merged integer counters), and
:func:`build_tree` reconstructs the parent/child forest used by the
``python -m repro.obs report`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .trace import SpanRecord, Tracer

__all__ = [
    "build_tree",
    "load_chrome_trace",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
]


def _records_of(source: Tracer | Iterable[SpanRecord]) -> list[SpanRecord]:
    if isinstance(source, Tracer):
        return source.records
    return list(source)


def to_chrome_trace(
    source: Tracer | Iterable[SpanRecord], *, pid: int = 1
) -> dict:
    """The records as a Chrome trace-event JSON object (Perfetto-loadable)."""
    records = _records_of(source)
    events: list[dict] = []
    thread_names: dict[int, str] = {}
    for record in records:
        thread_names.setdefault(record.thread_id, record.thread_name)
        event = {
            "name": record.name,
            "cat": record.category,
            "ph": "X",
            "ts": record.start_ns / 1000.0,
            "dur": record.duration_ns / 1000.0,
            "pid": pid,
            "tid": record.thread_id,
        }
        args = dict(record.counters)
        args["span_id"] = record.span_id
        if record.parent_id is not None:
            args["parent_id"] = record.parent_id
        event["args"] = args
        events.append(event)
    for tid, name in sorted(thread_names.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    source: Tracer | Iterable[SpanRecord], path: str, *, pid: int = 1
) -> None:
    """Write the Chrome-trace JSON for *source* to *path*."""
    payload = to_chrome_trace(source, pid=pid)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))


def load_chrome_trace(path: str) -> list[SpanRecord]:
    """Rebuild :class:`SpanRecord` rows from a Chrome-trace JSON file.

    Only complete (``"X"``) events written by :func:`to_chrome_trace` are
    recovered; thread-name metadata events re-attach the thread names.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    events = payload["traceEvents"] if isinstance(payload, dict) else payload
    thread_names = {
        event.get("tid"): event.get("args", {}).get("name", "")
        for event in events
        if event.get("ph") == "M" and event.get("name") == "thread_name"
    }
    records: list[SpanRecord] = []
    for event in events:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id", len(records))
        parent_id = args.pop("parent_id", None)
        records.append(
            SpanRecord(
                name=event["name"],
                category=event.get("cat", ""),
                start_ns=int(round(event["ts"] * 1000)),
                duration_ns=int(round(event["dur"] * 1000)),
                thread_id=event.get("tid", 0),
                thread_name=thread_names.get(event.get("tid"), ""),
                span_id=span_id,
                parent_id=parent_id,
                counters=args,
            )
        )
    records.sort(key=lambda record: record.span_id)
    return records


# --------------------------------------------------------------------------- #
# Tree reconstruction and summaries
# --------------------------------------------------------------------------- #
@dataclass
class SpanNode:
    """One span with its children, as rebuilt from the flat record list."""

    record: SpanRecord
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def self_ns(self) -> int:
        """Wall time not covered by child spans (floored at 0)."""
        return max(
            0, self.record.duration_ns - sum(c.record.duration_ns for c in self.children)
        )


def build_tree(source: Tracer | Iterable[SpanRecord]) -> list[SpanNode]:
    """The span forest (roots in start order) of *source*'s records."""
    records = sorted(_records_of(source), key=lambda r: (r.start_ns, r.span_id))
    nodes = {record.span_id: SpanNode(record) for record in records}
    roots: list[SpanNode] = []
    for record in records:
        node = nodes[record.span_id]
        parent = nodes.get(record.parent_id) if record.parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


def summarize(source: Tracer | Iterable[SpanRecord]) -> dict[str, dict]:
    """Flat per-span-name aggregate: count, wall, self wall, counters.

    Integer counter attachments are summed exactly; non-numeric attachments
    are dropped (they are labels, not measurements).
    """
    records = _records_of(source)
    nodes = {id(node.record): node for root in build_tree(records) for node in _walk(root)}
    summary: dict[str, dict] = {}
    for record in records:
        entry = summary.setdefault(
            record.name,
            {"count": 0, "wall_ns": 0, "self_ns": 0, "counters": {}},
        )
        entry["count"] += 1
        entry["wall_ns"] += record.duration_ns
        node = nodes.get(id(record))
        entry["self_ns"] += node.self_ns if node is not None else record.duration_ns
        for key, value in record.counters.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    return summary


def _walk(node: SpanNode) -> Iterable[SpanNode]:
    yield node
    for child in node.children:
        yield from _walk(child)


def format_tree(
    roots: Sequence[SpanNode],
    *,
    min_fraction: float = 0.0,
    counters: bool = True,
) -> str:
    """Pretty-print a span forest as an indented hot-span tree."""
    total_ns = sum(root.record.duration_ns for root in roots) or 1
    lines: list[str] = []

    def emit(node: SpanNode, depth: int) -> None:
        record = node.record
        fraction = record.duration_ns / total_ns
        if fraction < min_fraction and depth > 0:
            return
        indent = "  " * depth
        ms = record.duration_ns / 1e6
        line = f"{indent}{record.name:<{max(1, 46 - 2 * depth)}} {ms:>10.3f} ms  {100 * fraction:5.1f}%"
        if counters and record.counters:
            numeric = {
                key: value
                for key, value in record.counters.items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }
            tags = {
                key: value for key, value in record.counters.items() if key not in numeric
            }
            parts = [f"{key}={value}" for key, value in sorted(tags.items())]
            # A span carries every name counted under it; the zeros are noise here.
            parts += [f"{key}={value}" for key, value in sorted(numeric.items()) if value]
            if parts:
                line += "  [" + " ".join(parts) + "]"
        lines.append(line)
        for child in sorted(
            node.children, key=lambda c: c.record.duration_ns, reverse=True
        ):
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)
