"""A unified metrics registry: counters, gauges and histograms.

Counters are **exact integers** — the same philosophy as the solver counters
the golden files pin: a counter either equals the expected value or
something is wrong, there is no float drift to tolerate.  Gauges hold the
last-set value (int or float), histograms bucket float observations (wall
times) with exact-integer bucket counts and an exact count/float sum.

All metric families support Prometheus-style labels::

    registry = MetricsRegistry()
    requests = registry.counter("repro_requests_total", "HTTP requests served")
    requests.labels(route="compile", status="200").inc()

:func:`MetricsRegistry.render_prometheus` emits the text exposition format
served by the compilation server's ``/v1/metrics`` endpoint.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram buckets, in seconds — spread for compile latencies.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0)


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


class _Metric:
    """Shared label-family plumbing of every metric type."""

    kind = "untyped"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._children: dict[LabelKey, "_Metric"] = {}

    def labels(self, **labels: str) -> "_Metric":
        """The child metric for one label combination (created on demand)."""
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def _new_child(self) -> "_Metric":
        raise NotImplementedError

    def _samples(self) -> Iterable[tuple[str, LabelKey, float]]:
        """``(suffix, label_key, value)`` rows for the text exposition."""
        raise NotImplementedError

    def _labeled_samples(self) -> list[tuple[str, LabelKey, float]]:
        with self._lock:
            children = dict(self._children)
        rows = list(self._samples())
        for key, child in sorted(children.items()):
            rows.extend(
                (suffix, key + sub_key, value)
                for suffix, sub_key, value in child._samples()
            )
        return rows


class Counter(_Metric):
    """Monotonically increasing exact-integer counter."""

    kind = "counter"

    def __init__(self, name: str = "", help: str = ""):
        super().__init__(name, help)
        self._value = 0

    def _new_child(self) -> "Counter":
        return Counter()

    def inc(self, amount: int = 1) -> None:
        if amount % 1:
            raise ValueError(f"counters are exact integers, not {amount!r}")
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for ±deltas")
        with self._lock:
            self._value += int(amount)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def _samples(self) -> Iterable[tuple[str, LabelKey, float]]:
        with self._lock:
            value = self._value
        # An unlabelled parent that was never incremented but has labelled
        # children stays silent — Prometheus convention.
        if value or not self._children:
            yield ("", (), value)


class Gauge(_Metric):
    """Last-value gauge (int or float, settable and addable)."""

    kind = "gauge"

    def __init__(self, name: str = "", help: str = ""):
        super().__init__(name, help)
        self._value: float = 0

    def _new_child(self) -> "Gauge":
        return Gauge()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _samples(self) -> Iterable[tuple[str, LabelKey, float]]:
        with self._lock:
            value = self._value
        if value or not self._children:
            yield ("", (), value)


class Histogram(_Metric):
    """Cumulative-bucket histogram with exact counts and a float sum."""

    kind = "histogram"

    def __init__(
        self,
        name: str = "",
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # +Inf tail
        self._count = 0
        self._sum = 0.0

    def _new_child(self) -> "Histogram":
        return Histogram(buckets=self.buckets)

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    return
            self._bucket_counts[-1] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _samples(self) -> Iterable[tuple[str, LabelKey, float]]:
        with self._lock:
            counts = list(self._bucket_counts)
            count, total = self._count, self._sum
        if not count and self._children:
            return
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            yield ("_bucket", (("le", _format_value(bound)),), cumulative)
        cumulative += counts[-1]
        yield ("_bucket", (("le", "+Inf"),), cumulative)
        yield ("_count", (), count)
        yield ("_sum", (), total)


class MetricsRegistry:
    """Named metric families with Prometheus text rendering.

    Registration is idempotent: asking twice for the same name returns the
    same metric object (a name registered as one kind cannot be re-registered
    as another).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, name: str, factory, kind: str) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = self._metrics[name] = factory()
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(
            name, lambda: Histogram(name, help, buckets), "histogram"
        )

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        with self._lock:
            metrics = dict(self._metrics)
        lines: list[str] = []
        for name, metric in sorted(metrics.items()):
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for suffix, key, value in metric._labeled_samples():
                lines.append(
                    f"{name}{suffix}{_render_labels(key)} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"
