"""Labeled metrics registry: counters, gauges, and histograms.

A *metric series* is a name plus a set of label dimensions
(``benchmark=gcc isa=block``). Counters accumulate, gauges hold the
last-written value, histograms record count/sum/min/max plus geometric
bucket counts. Series are created lazily on first publication; the
registry is a plain dictionary keyed by ``(name, sorted-labels)`` so the
write path is one dict lookup.

The registry itself is always live — enable/disable gating belongs to
:class:`repro.obs.telemetry.Telemetry`, whose no-op path never reaches
this module.
"""

from __future__ import annotations

from repro.errors import TelemetryError

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default geometric histogram bucket upper bounds (plus a +inf overflow).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0, 16384.0, 65536.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Series:
    """One metric series: a name, a label set, and its accumulated state."""

    __slots__ = (
        "name", "kind", "labels", "value",
        "count", "total", "vmin", "vmax", "bounds", "buckets",
    )

    def __init__(self, name: str, kind: str, labels: dict[str, str],
                 bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.kind = kind
        self.labels = labels
        self.value = 0.0
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1) if kind == HISTOGRAM else []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_histogram(self, entry: dict) -> None:
        """Fold a snapshotted histogram (``as_dict`` shape) into this
        series — used when merging worker-process registries."""
        count = entry.get("count", 0)
        if not count:
            return
        buckets = entry.get("buckets", [])
        if len(buckets) != len(self.buckets):
            raise TelemetryError(
                f"histogram {self.name!r}: bucket layout mismatch "
                f"({len(buckets)} vs {len(self.buckets)})"
            )
        self.count += count
        self.total += entry.get("sum", 0.0)
        self.vmin = min(self.vmin, entry.get("min", float("inf")))
        self.vmax = max(self.vmax, entry.get("max", float("-inf")))
        for i, bucket in enumerate(buckets):
            self.buckets[i] += bucket["count"]

    def as_dict(self) -> dict:
        d: dict = {"name": self.name, "kind": self.kind, "labels": dict(self.labels)}
        if self.kind == HISTOGRAM:
            d.update(
                count=self.count,
                sum=self.total,
                min=self.vmin if self.count else 0.0,
                max=self.vmax if self.count else 0.0,
                mean=self.mean,
                buckets=[
                    {"le": bound, "count": n}
                    for bound, n in zip(
                        list(self.bounds) + ["+inf"], self.buckets
                    )
                ],
            )
        else:
            d["value"] = self.value
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tags = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"<Series {self.name}{{{tags}}} {self.kind}>"


class MetricsRegistry:
    """Process- or run-scoped store of labeled metric series."""

    def __init__(self, histogram_bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        self._series: dict[tuple[str, LabelKey], Series] = {}
        self._bounds = histogram_bounds

    # -- write path ----------------------------------------------------

    def _get(self, name: str, kind: str, labels: dict) -> Series:
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = Series(
                name, kind, {str(k): str(v) for k, v in labels.items()},
                self._bounds,
            )
            self._series[key] = series
        elif series.kind != kind:
            raise TelemetryError(
                f"metric {name!r} already registered as {series.kind}, "
                f"cannot publish as {kind}"
            )
        return series

    def inc(self, name: str, amount: float = 1, **labels) -> None:
        """Add *amount* to the counter series ``name{labels}``."""
        self._get(name, COUNTER, labels).value += amount

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge series ``name{labels}`` to *value*."""
        self._get(name, GAUGE, labels).value = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record *value* into the histogram series ``name{labels}``."""
        self._get(name, HISTOGRAM, labels).observe(value)

    def merge(self, snapshot) -> None:
        """Fold a :meth:`snapshot` from another registry (typically a
        worker process) into this one.

        Counters accumulate, and histograms combine their counts,
        buckets, min and max exactly; a histogram's float sum may
        differ in the last place from one accumulated in another order
        (float addition is not associative). Gauges take the
        snapshotted value (last write wins), so merging is
        order-sensitive only for gauge series published by more than
        one source — per-run gauges carry unique label sets and are
        unaffected. Kind conflicts raise :class:`TelemetryError`, like
        any other mismatched publication.
        """
        for entry in snapshot:
            series = self._get(
                entry["name"], entry["kind"], entry.get("labels", {})
            )
            if series.kind == HISTOGRAM:
                series.merge_histogram(entry)
            elif series.kind == COUNTER:
                series.value += entry["value"]
            else:
                series.value = entry["value"]

    # -- read path -----------------------------------------------------

    def get(self, name: str, **labels) -> float | None:
        """The value of one exact counter/gauge series, or None."""
        series = self._series.get((name, _label_key(labels)))
        return series.value if series is not None else None

    def series(self, name: str | None = None) -> list[Series]:
        """All series (optionally restricted to one metric name)."""
        out = [
            s for s in self._series.values()
            if name is None or s.name == name
        ]
        out.sort(key=lambda s: (s.name, _label_key(s.labels)))
        return out

    def total(self, name: str, **label_filter) -> float:
        """Sum a counter/gauge across every series whose labels contain
        *label_filter* — label-dimension aggregation (e.g. total icache
        misses across all benchmarks for ``isa=block``)."""
        want = {str(k): str(v) for k, v in label_filter.items()}
        acc = 0.0
        for series in self._series.values():
            if series.name != name or series.kind == HISTOGRAM:
                continue
            if all(series.labels.get(k) == v for k, v in want.items()):
                acc += series.value
        return acc

    def snapshot(self) -> list[dict]:
        """JSON-ready list of every series, sorted by name then labels."""
        return [s.as_dict() for s in self.series()]

    def clear(self) -> None:
        self._series.clear()

    def __len__(self) -> int:
        return len(self._series)
