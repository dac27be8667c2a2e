"""Fetch-rate analytics and cycle accounting (docs/observability.md).

The insight layer answers *why* a run took its cycles: a CPI-stack
attributing every simulated cycle to exactly one cause bucket, and
fetch-rate / block-utilization distributions — the paper's fetch-rate
argument as a full explanation, not just end-of-run aggregates.

* :mod:`repro.insight.collector` — the per-unit aggregator both replay
  kernels (the scalar ``run_packed`` and :mod:`repro.sim.vector`) feed
  identically;
* :mod:`repro.insight.report` — the :class:`InsightReport` record, the
  ``repro.insight/v1`` artifact, ASCII rendering;
* :mod:`repro.insight.timeline` — per-cycle occupancy reconstruction
  from the bounded event trace (``bsisa timeline``).
"""

from repro.insight.collector import InsightCollector
from repro.insight.report import (
    InsightReport,
    build_document,
    render_report,
    render_reports,
    write_document,
)
from repro.insight.timeline import CycleRow, build_timeline, render_timeline

__all__ = [
    "CycleRow",
    "InsightCollector",
    "InsightReport",
    "build_document",
    "build_timeline",
    "render_report",
    "render_reports",
    "render_timeline",
    "write_document",
]
