"""The telemetry session object and the process-wide current session.

:class:`Telemetry` bundles the three observability surfaces — metrics
registry, span recorder, event trace — behind one ``enabled`` flag.
Components take an optional ``telemetry=`` argument; ``None`` means
"use the process-wide current session", which defaults to a *disabled*
singleton whose only costs are an attribute check (``tel.enabled``) and,
for spans, a shared no-op context manager. Hot loops hoist the check
once (``events = tel.trace if tel.enabled else None``) so the disabled
path adds no per-event work.

Typical use::

    tel = Telemetry()                      # enabled, empty
    result = ExperimentEngine(telemetry=tel).compare("gcc")
    tel.write_json("out.json", meta={"benchmark": "gcc"})

or process-wide::

    with use_telemetry(Telemetry()) as tel:
        Toolchain().compile(src, "gcc")    # picks up tel implicitly
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from repro.obs.events import DEFAULT_TRACE_CAPACITY, EventTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import DEFAULT_SPAN_CAPACITY, NOOP_SPAN, SpanRecorder

SCHEMA_ID = "repro.telemetry/v1"


class Telemetry:
    """One observability session: metrics + spans + event trace."""

    __slots__ = ("enabled", "metrics", "spans", "trace")

    def __init__(
        self,
        enabled: bool = True,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
    ):
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(capacity=span_capacity)
        self.trace = EventTrace(capacity=trace_capacity)

    # -- span / metric façade (guarded by `enabled`) -------------------

    def span(self, name: str, **labels):
        """A timing context manager; no-op (no clock read) if disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return self.spans.span(name, labels)

    def count(self, name: str, amount: float = 1, **labels) -> None:
        if self.enabled:
            self.metrics.inc(name, amount, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        if self.enabled:
            self.metrics.gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        if self.enabled:
            self.metrics.observe(name, value, **labels)

    # -- cross-process merge -------------------------------------------

    def worker_snapshot(self) -> dict:
        """A picklable snapshot of this session for cross-process merge
        (each pool worker returns one per program to the parent)."""
        return {
            "metrics": self.metrics.snapshot(),
            "spans": self.spans.snapshot(),
            "trace_events": self.trace.events(),
            "trace_emitted": self.trace.emitted,
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`worker_snapshot` into this session.

        Counters and histogram counts, buckets, min and max combine
        exactly, a float histogram sum up to its last place; gauges
        take the snapshot value (worker label sets are unique per run,
        so no gauge collides); spans keep worker-relative start times;
        trace events are renumbered into this session's stream. See
        docs/observability.md ("Merged telemetry").
        """
        if not self.enabled:
            return
        self.metrics.merge(snapshot.get("metrics", ()))
        self.spans.merge(snapshot.get("spans", ()))
        self.trace.merge(
            snapshot.get("trace_events", ()),
            emitted=snapshot.get("trace_emitted"),
        )

    # -- lifecycle / export --------------------------------------------

    def reset(self) -> None:
        self.metrics.clear()
        self.spans.clear()
        self.trace.clear()

    def to_document(self, meta: dict | None = None) -> dict:
        """The unified machine-readable artifact (see obs/schema.py)."""
        return {
            "schema": SCHEMA_ID,
            "meta": dict(meta or {}),
            "spans": self.spans.snapshot(),
            "span_totals": self.spans.totals(),
            "spans_dropped": self.spans.dropped,
            "metrics": self.metrics.snapshot(),
            "trace": {
                "capacity": self.trace.capacity,
                "emitted": self.trace.emitted,
                "dropped": self.trace.dropped,
                "events": self.trace.events(),
            },
        }

    def write_json(self, path: str, meta: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_document(meta), fh, indent=2, sort_keys=True)
            fh.write("\n")


#: The disabled session: the process-wide default, and the one to pass
#: where a caller's own work must publish nothing. Shared, never written
#: to, costs one attribute check at call sites.
DISABLED = Telemetry(enabled=False, trace_capacity=1, span_capacity=1)
_current: Telemetry = DISABLED


def get_telemetry() -> Telemetry:
    """The process-wide current telemetry session (disabled by default)."""
    return _current


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install *telemetry* (None restores the disabled default); returns
    the previous session so callers can restore it."""
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else DISABLED
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry | None = None):
    """Scoped installation of a telemetry session::

        with use_telemetry() as tel:   # fresh enabled session
            ...
    """
    tel = telemetry if telemetry is not None else Telemetry()
    previous = set_telemetry(tel)
    try:
        yield tel
    finally:
        set_telemetry(previous)
