"""Deterministic metrics: counters, gauges and fixed-edge histograms.

The registry is the write side, held by live components (links, the
gateway, the fault injector, the scenario runner); the snapshot is the
read side — a plain, JSON-safe value object that rides a
:class:`~repro.experiments.runner.ScenarioResult` through the parallel
codec and the on-disk cache.  Determinism rules:

* metric keys are ``name{label=value,...}`` with labels sorted, so two
  registries fed the same events render the same keys;
* histogram bucket edges are fixed at creation (no adaptive resizing),
  so serial and parallel runs bucket identically;
* ``to_dict`` sorts every mapping, so the JSON encoding is canonical and
  snapshot equality is bytes equality.

Integer increments stay integers end to end (JSON renders ``3`` not
``3.0``), which is what makes serial-vs-parallel bit-identity checkable
on the encoded form.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .spans import SpanRecorder

Number = int | float


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical ``name{k=v,...}`` key with labels sorted by name."""
    if not name or any(ch in name for ch in "{}=,"):
        raise ValueError(f"invalid metric name {name!r}")
    if not labels:
        return name
    body = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{body}}}"


class Counter:
    """Monotone counter; increments must be non-negative."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value; last write wins."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Overwrite the gauge."""
        self.value = value

    def add(self, amount: Number) -> None:
        """Shift the gauge by ``amount`` (may be negative)."""
        self.value += amount


class Histogram:
    """Fixed-bucket histogram: ``edges`` are inclusive upper bounds.

    A value lands in the first bucket whose edge is >= the value; values
    above the last edge land in the implicit overflow bucket, so
    ``len(counts) == len(edges) + 1`` always.
    """

    __slots__ = ("edges", "counts", "total", "count")

    def __init__(self, edges: Iterable[float]) -> None:
        self.edges = tuple(float(e) for e in edges)
        if not self.edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError(f"bucket edges must strictly increase: {self.edges}")
        self.counts = [0] * (len(self.edges) + 1)
        self.total: Number = 0
        self.count = 0

    def observe(self, value: Number) -> None:
        """Record one sample."""
        index = len(self.edges)  # overflow bucket unless an edge catches it
        for i, edge in enumerate(self.edges):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def to_dict(self) -> dict:
        """JSON-safe encoding."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Inverse of :meth:`to_dict`."""
        hist = cls(data["edges"])
        counts = list(data["counts"])
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"histogram counts length {len(counts)} != {len(hist.counts)}"
            )
        hist.counts = counts
        hist.total = data["sum"]
        hist.count = int(data["count"])
        return hist


class MetricsSnapshot:
    """The serializable value form of a registry at one instant.

    ``merge`` is associative and commutative over counters and
    histograms (sums); gauges sum as well, which is the useful semantic
    when aggregating per-scenario snapshots into a sweep-level
    accounting table (total bytes at a layer across scenarios).  Spans
    concatenate in order.
    """

    def __init__(
        self,
        counters: Mapping[str, Number] | None = None,
        gauges: Mapping[str, Number] | None = None,
        histograms: Mapping[str, dict] | None = None,
        spans: Iterable[dict] | None = None,
    ) -> None:
        self.counters: dict[str, Number] = dict(counters or {})
        self.gauges: dict[str, Number] = dict(gauges or {})
        self.histograms: dict[str, dict] = {
            k: dict(v) for k, v in (histograms or {}).items()
        }
        self.spans: list[dict] = [dict(s) for s in (spans or ())]

    @property
    def is_empty(self) -> bool:
        """True when nothing has been recorded."""
        return not (self.counters or self.gauges or self.histograms or self.spans)

    def quantile(self, key: str, q: float) -> float:
        """Estimate the ``q``-quantile of histogram ``key`` (q in [0, 1]).

        Linear interpolation within the catching bucket (mass assumed
        uniform; the first bucket spans 0..edge0).  Samples in the
        overflow bucket report the last finite edge — a lower bound.
        Returns 0.0 for an empty histogram.  Deterministic: a function
        of the bucket counts only.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        data = self.histograms[key]
        count = data["count"]
        if count == 0:
            return 0.0
        edges = data["edges"]
        target = q * count
        cumulative = 0
        for i, bucket in enumerate(data["counts"]):
            below = cumulative
            cumulative += bucket
            if bucket and cumulative >= target:
                if i >= len(edges):
                    return float(edges[-1])
                lower = float(edges[i - 1]) if i else 0.0
                return lower + (target - below) / bucket * (
                    float(edges[i]) - lower
                )
        return float(edges[-1])

    def percentiles(
        self, key: str, qs: Iterable[float] = (0.5, 0.95, 0.99)
    ) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for histogram ``key``."""
        return {f"p{round(q * 100):d}": self.quantile(key, q) for q in qs}

    def to_dict(self) -> dict:
        """Canonical JSON-safe encoding (all mappings key-sorted)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: {
                    "edges": list(v["edges"]),
                    "counts": list(v["counts"]),
                    "sum": v["sum"],
                    "count": v["count"],
                }
                for k, v in sorted(self.histograms.items())
            },
            "spans": list(self.spans),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSnapshot":
        """Inverse of :meth:`to_dict` (tolerates missing sections)."""
        return cls(
            counters=data.get("counters"),
            gauges=data.get("gauges"),
            histograms=data.get("histograms"),
            spans=data.get("spans"),
        )

    def merge_in_place(
        self, other: "MetricsSnapshot", include_spans: bool = True
    ) -> "MetricsSnapshot":
        """Fold ``other`` into this snapshot, mutating it; returns self.

        This is the streaming form behind fleet aggregation: a sweep over
        thousands of shards keeps one accumulator snapshot and folds each
        shard's snapshot in as it arrives, so memory stays O(accumulator)
        instead of O(shards).  ``include_spans=False`` drops the other
        side's span list — per-shard span traces grow linearly with the
        population and are only useful per shard, not merged.
        """
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, value in other.gauges.items():
            self.gauges[key] = self.gauges.get(key, 0) + value
        for key, data in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                self.histograms[key] = {
                    "edges": list(data["edges"]),
                    "counts": list(data["counts"]),
                    "sum": data["sum"],
                    "count": data["count"],
                }
                continue
            if tuple(mine["edges"]) != tuple(data["edges"]):
                raise ValueError(
                    f"cannot merge histogram {key!r}: bucket edges differ "
                    f"({mine['edges']} vs {data['edges']})"
                )
            self.histograms[key] = {
                "edges": list(mine["edges"]),
                "counts": [a + b for a, b in zip(mine["counts"], data["counts"])],
                "sum": mine["sum"] + data["sum"],
                "count": mine["count"] + data["count"],
            }
        if include_spans:
            self.spans.extend(dict(s) for s in other.spans)
        return self

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Element-wise combination of two snapshots (see class docs)."""
        merged = MetricsSnapshot(
            counters=self.counters,
            gauges=self.gauges,
            histograms=self.histograms,
            spans=self.spans,
        )
        return merged.merge_in_place(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsSnapshot(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)}, "
            f"spans={len(self.spans)})"
        )


class MetricsRegistry:
    """Get-or-create metric instruments, keyed by name + sorted labels.

    ``clock`` supplies the time base for spans — pass the simulation
    loop's ``now`` so all observability time is virtual time.  A metric
    key is bound to one instrument kind forever; asking for the same key
    as a different kind (or a histogram with different edges) raises,
    which catches instrumentation typos at first use instead of
    producing silently-mixed data.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans = SpanRecorder(self._clock)

    # --------------------------------------------------------- instruments

    def _claim(self, key: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for name, table in owners.items():
            if name != kind and key in table:
                raise ValueError(f"metric {key!r} already registered as a {name}")

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter."""
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            self._claim(key, "counter")
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create a gauge."""
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            self._claim(key, "gauge")
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, edges: Iterable[float], **labels) -> Histogram:
        """Get or create a fixed-edge histogram."""
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            self._claim(key, "histogram")
            instrument = self._histograms[key] = Histogram(edges)
        elif instrument.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {key!r} already registered with edges "
                f"{instrument.edges}, asked for {tuple(edges)}"
            )
        return instrument

    # --------------------------------------------------------------- spans

    def span(self, name: str, **labels):
        """Context manager: a span on the registry's (simulated) clock."""
        return self._spans.span(metric_key(name, labels))

    def span_open(self, name: str, **labels):
        """Open a span manually; close with ``handle.close()``."""
        return self._spans.open(metric_key(name, labels))

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the registry into a value object.

        Spans still open are closed *in the snapshot only* at the
        current clock (the live span keeps running) — a run that ends
        mid-outage still accounts the outage time so far.
        """
        return MetricsSnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: g.value for k, g in self._gauges.items()},
            histograms={k: h.to_dict() for k, h in self._histograms.items()},
            spans=self._spans.to_list(close_open_at=self._clock()),
        )
