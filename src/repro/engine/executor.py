"""Trace-grouped replay: the one replay loop.

:func:`replay_group` replays one :class:`~repro.sim.run.CapturedRun`
under every :class:`~repro.engine.spec.RunSpec` of a group: one
:func:`~repro.sim.run.prepare_sweep` pass amortizes the trace
precompute and the multi-geometry cache vectors across the group, then
each spec replays inside its ``plan.run`` span. Every result is
bit-identical (``dataclasses.asdict`` equality, insight reports
included) to a one-at-a-time replay of the same config. The engine's
per-program unit of work (in-process or in a pool worker), a single
:meth:`ExperimentEngine.run <repro.engine.core.ExperimentEngine.run>`,
scenario sweep cells and ``bsisa perf``'s sweep leg all replay through
it.
"""

from __future__ import annotations

from repro.engine.spec import RunSpec
from repro.insight import InsightCollector, InsightReport
from repro.obs.telemetry import Telemetry
from repro.sim.run import (
    CapturedRun,
    SimResult,
    prepare_sweep,
    replay_captured,
)


def replay_group(
    captured: CapturedRun,
    specs: list[RunSpec],
    telemetry: Telemetry,
    collect_insight: bool = False,
    kernel: str = "auto",
) -> list[tuple[SimResult, InsightReport | None]]:
    """Replay *captured* under every spec's machine config.

    Returns one ``(result, report)`` pair per spec, in *specs* order;
    *report* is ``None`` unless *collect_insight* is set, in which case
    each replay feeds an :class:`~repro.insight.InsightCollector` and
    its report is published to *telemetry* when that is enabled.
    """
    prepare_sweep(
        captured,
        [spec.config for spec in specs],
        kernel=kernel,
        telemetry=telemetry,
    )
    payloads = []
    for spec in specs:
        collector = InsightCollector() if collect_insight else None
        with telemetry.span("plan.run", **spec.labels()):
            result = replay_captured(
                captured, spec.config, telemetry,
                insight=collector, kernel=kernel,
            )
        report = None
        if collector is not None:
            report = collector.report(spec.benchmark, spec.isa, spec.config)
            if telemetry.enabled:
                report.publish(telemetry.metrics)
        payloads.append((result, report))
    return payloads

