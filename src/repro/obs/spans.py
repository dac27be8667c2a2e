"""Timing spans: a context-manager API around toolchain/sim phases.

A span records wall-clock duration (``time.perf_counter``) plus a name,
optional labels, and its nesting depth. The recorder is bounded: past
``capacity`` records the oldest are dropped (FIFO) and counted, so a
pathological compile cannot grow memory without bound. Per-name totals
are kept as spans are recorded, so they stay exact when records drop.

The disabled fast path lives in :mod:`repro.obs.telemetry`, which hands
out a shared no-op context manager without touching the clock.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

DEFAULT_SPAN_CAPACITY = 8192


class SpanRecord:
    """One completed span."""

    __slots__ = ("name", "labels", "start_s", "duration_s", "depth")

    def __init__(self, name: str, labels: dict[str, str],
                 start_s: float, duration_s: float, depth: int):
        self.name = name
        self.labels = labels
        self.start_s = start_s
        self.duration_s = duration_s
        self.depth = depth

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name} {self.duration_s * 1e3:.3f}ms>"


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NOOP_SPAN = _NoopSpan()


class Span:
    """An open span; closes (and records itself) on ``__exit__``."""

    __slots__ = ("_recorder", "name", "labels", "_start")

    def __init__(self, recorder: SpanRecorder, name: str, labels: dict):
        self._recorder = recorder
        self.name = name
        self.labels = labels
        self._start = 0.0

    def __enter__(self) -> Span:
        self._recorder._depth += 1
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = perf_counter()
        rec = self._recorder
        rec._depth -= 1
        rec._record(
            SpanRecord(
                self.name,
                self.labels,
                self._start - rec.epoch,
                end - self._start,
                rec._depth,
            )
        )
        return False


class SpanRecorder:
    """Bounded store of completed spans for one telemetry session."""

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY):
        self.capacity = capacity
        self.epoch = perf_counter()
        self.records: deque[SpanRecord] = deque(maxlen=capacity)
        self.recorded = 0
        self._totals: dict[str, dict] = {}
        self._depth = 0

    def span(self, name: str, labels: dict | None = None) -> Span:
        return Span(self, name, labels or {})

    def _record(self, record: SpanRecord) -> None:
        self.recorded += 1
        self.records.append(record)
        agg = self._totals.setdefault(
            record.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        agg["count"] += 1
        agg["total_s"] += record.duration_s
        agg["max_s"] = max(agg["max_s"], record.duration_s)

    @property
    def dropped(self) -> int:
        return self.recorded - len(self.records)

    def merge(self, records) -> None:
        """Append snapshotted spans (``as_dict`` shape) from another
        recorder. Merged ``start_s`` values stay relative to the
        *source* recorder's epoch — durations and totals are exact,
        cross-process start times are not comparable."""
        for r in records:
            self._record(
                SpanRecord(
                    r["name"],
                    dict(r.get("labels", {})),
                    float(r.get("start_s", 0.0)),
                    float(r.get("duration_s", 0.0)),
                    int(r.get("depth", 0)),
                )
            )

    def totals(self) -> dict[str, dict]:
        """Aggregate by span name over every span recorded, dropped
        ones included: invocation count, summed and longest seconds."""
        return {name: dict(agg) for name, agg in self._totals.items()}

    def snapshot(self) -> list[dict]:
        return [r.as_dict() for r in self.records]

    def clear(self) -> None:
        self.records.clear()
        self.recorded = 0
        self._totals.clear()
        self._depth = 0
        self.epoch = perf_counter()

    def __len__(self) -> int:
        return len(self.records)
