"""Unified telemetry layer: metrics registry, timing spans, event trace.

Three surfaces behind one injectable :class:`Telemetry` session object
(docs/observability.md):

* :class:`MetricsRegistry` — labeled counters / gauges / histograms the
  compiler passes, cache models, predictors and timing engine publish
  into;
* :class:`SpanRecorder` — wall-clock spans around every toolchain phase
  (lex → parse → lower → opt passes → regalloc → enlarge → encode) and
  every simulation;
* :class:`EventTrace` — a bounded ring buffer of simulator pipeline
  events (fetch / icache_miss / redirect / fault_squash / retire) with
  JSONL export.

Everything defaults to a *disabled* process-wide session with near-zero
overhead; enable explicitly (``telemetry=Telemetry()`` or
``with use_telemetry(): ...``) or via the CLI's ``--metrics-json``.
"""

from repro.obs.events import (
    ALL_EVENT_KINDS,
    DEFAULT_TRACE_CAPACITY,
    EV_FAULT_SQUASH,
    EV_FETCH,
    EV_ICACHE_MISS,
    EV_REDIRECT,
    EV_RETIRE,
    EventTrace,
)
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    MetricsRegistry,
    Series,
)
from repro.obs.schema import document_errors, validate_document
from repro.obs.spans import NOOP_SPAN, Span, SpanRecord, SpanRecorder
from repro.obs.telemetry import (
    DISABLED,
    SCHEMA_ID,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)

__all__ = [
    "ALL_EVENT_KINDS",
    "COUNTER",
    "DEFAULT_TRACE_CAPACITY",
    "DISABLED",
    "EV_FAULT_SQUASH",
    "EV_FETCH",
    "EV_ICACHE_MISS",
    "EV_REDIRECT",
    "EV_RETIRE",
    "EventTrace",
    "GAUGE",
    "HISTOGRAM",
    "MetricsRegistry",
    "NOOP_SPAN",
    "SCHEMA_ID",
    "Series",
    "Span",
    "SpanRecord",
    "SpanRecorder",
    "Telemetry",
    "document_errors",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "validate_document",
]
