"""Metrics registry: counters, gauges and histograms with labels.

The registry is the single sink for every quantitative observation in
the repo -- per-channel throughput and stall fractions, token latency
distributions, buffer occupancy, early-evaluation firing rates,
lane-parallel campaign lane utilization (the ``batchsim_*`` series)
and fault-campaign verdict tallies.  It subsumes the ad-hoc
accumulators that used to live in :mod:`repro.elastic.instrumentation`
(which now delegates here).

Design points:

* **Labeled series** -- ``registry.counter("transfers", channel="a")``
  and ``registry.counter("transfers", channel="b")`` are independent
  series under one metric name; a series is identified by its name plus
  the sorted ``(key, value)`` label pairs.
* **Get-or-create** -- asking twice for the same (name, labels) returns
  the same object, so instruments can be resolved in hot loops without
  bookkeeping at the call site.
* **Snapshot API** -- :meth:`MetricsRegistry.snapshot` returns a plain
  ``dict`` keyed by the rendered series name, JSON-ready and
  deterministic (sorted) for golden tests and campaign reports.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SummaryStats",
    "summarize",
]


def _canon(value):
    """Canonicalise a number for byte-stable snapshot rendering.

    Python floats and ints that compare equal render differently in
    JSON (``3`` vs ``3.0``), so a snapshot's bytes would depend on
    whether a sample arrived as ``int`` or ``float``.  Integral values
    collapse to ``int``; everything else rounds to 6 decimal places
    (which also keeps ``repr`` round-trips stable across platforms).
    """
    try:
        f = float(value)
    except (TypeError, ValueError):
        return value
    if math.isnan(f) or math.isinf(f):
        return value
    r = round(f, 6)
    if r.is_integer():
        return int(r)
    return r


@dataclass(frozen=True)
class SummaryStats:
    """Summary of a numeric sample (count/mean/p50/p95/max)."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} p50={self.p50:.0f} "
            f"p95={self.p95:.0f} max={self.maximum}"
        )


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Mean/median/p95/max of a sample (empty samples give all zeros)."""
    if not samples:
        return SummaryStats(0, 0.0, 0.0, 0.0, 0)
    ordered = sorted(samples)
    n = len(ordered)

    def pct(p: float) -> float:
        idx = min(n - 1, max(0, math.ceil(p * n) - 1))
        return float(ordered[idx])

    return SummaryStats(
        count=n,
        mean=sum(ordered) / n,
        p50=pct(0.50),
        p95=pct(0.95),
        maximum=ordered[-1],
    )


def _render_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _prom_name(name: str) -> str:
    """A valid Prometheus metric/label name ([a-zA-Z_:][a-zA-Z0-9_:]*)."""
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_escape(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{_prom_escape(v)}"' for k, v in labels)
    return f"{{{inner}}}"


def _prom_number(value) -> str:
    canonical = _canon(value)
    return repr(canonical) if isinstance(canonical, float) else str(canonical)


class Metric:
    """Base: one series of one metric (name + sorted label pairs)."""

    kind = "metric"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels

    @property
    def key(self) -> str:
        return _render_key(self.name, self.labels)

    def snapshot(self) -> object:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.key!r}, {self.snapshot()!r})"


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge(Metric):
    """A sampled value; remembers the last sample and running moments."""

    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        super().__init__(name, labels)
        self.last: Optional[float] = None
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def set(self, value: float) -> None:
        self.last = value
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def snapshot(self) -> Dict[str, float]:
        return {
            "last": _canon(self.last if self.last is not None else 0),
            "mean": _canon(self.mean),
            "min": _canon(self.minimum if self.minimum is not None else 0),
            "max": _canon(self.maximum if self.maximum is not None else 0),
            "n": self.count,
        }


class Histogram(Metric):
    """A full sample, summarised as count/mean/p50/p95/max."""

    kind = "histogram"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        super().__init__(name, labels)
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    def stats(self) -> SummaryStats:
        return summarize(self.samples)

    def snapshot(self) -> Dict[str, float]:
        s = self.stats()
        return {
            "count": s.count,
            "mean": _canon(s.mean),
            "p50": _canon(s.p50),
            "p95": _canon(s.p95),
            "max": _canon(s.maximum),
        }


class MetricsRegistry:
    """A namespace of labeled counters, gauges and histograms."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Metric] = {}

    def _get(self, cls, name: str, labels: Dict[str, object]) -> Metric:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"{metric.key} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)

    def series(self, name: str) -> List[Metric]:
        """Every registered series of one metric name, sorted by key."""
        return sorted(
            (m for m in self._metrics.values() if m.name == name),
            key=lambda m: m.key,
        )

    def __iter__(self) -> Iterable[Metric]:
        return iter(sorted(self._metrics.values(), key=lambda m: m.key))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """All series as a flat, deterministically ordered dict."""
        return {m.key: m.snapshot() for m in self}

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4) of every series.

        Counters render as ``counter``, gauges as ``gauge`` (their last
        sample), histograms as ``summary`` with ``quantile="0.5"`` /
        ``quantile="0.95"`` series plus ``_sum`` and ``_count``.  Output
        is deterministic: groups sorted by (name, kind), series sorted
        by label key, numbers canonicalised via the same rule as
        :meth:`snapshot`.
        """
        groups: Dict[Tuple[str, str], List[Metric]] = {}
        for metric in self:
            groups.setdefault((metric.name, metric.kind), []).append(metric)
        lines: List[str] = []
        for (name, kind) in sorted(groups):
            pname = _prom_name(name)
            ptype = {"counter": "counter", "gauge": "gauge", "histogram": "summary"}[kind]
            lines.append(f"# TYPE {pname} {ptype}")
            for metric in groups[(name, kind)]:
                labels = list(metric.labels)
                if kind == "counter":
                    lines.append(f"{pname}{_prom_labels(labels)} {_prom_number(metric.value)}")
                elif kind == "gauge":
                    last = metric.last if metric.last is not None else 0
                    lines.append(f"{pname}{_prom_labels(labels)} {_prom_number(last)}")
                else:
                    s = metric.stats()
                    for q, v in (("0.5", s.p50), ("0.95", s.p95)):
                        qlabels = labels + [("quantile", q)]
                        lines.append(f"{pname}{_prom_labels(qlabels)} {_prom_number(v)}")
                    total = sum(metric.samples)
                    lines.append(f"{pname}_sum{_prom_labels(labels)} {_prom_number(total)}")
                    lines.append(f"{pname}_count{_prom_labels(labels)} {s.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Human-readable sorted dump of every series."""
        lines = []
        for metric in self:
            value = metric.snapshot()
            if isinstance(value, dict):
                inner = " ".join(f"{k}={v}" for k, v in value.items())
                lines.append(f"{metric.key:48s} {inner}")
            else:
                lines.append(f"{metric.key:48s} {value}")
        return "\n".join(lines)
