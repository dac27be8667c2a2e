"""Trace-grouped replay: the one replay loop, and the pool that spreads it.

:func:`replay_group` replays one :class:`~repro.sim.run.CapturedRun`
under every :class:`~repro.engine.spec.RunSpec` of a group: one
:func:`~repro.sim.run.prepare_sweep` pass amortizes the trace
precompute and the multi-geometry cache vectors across the group, then
each spec replays inside its ``plan.run`` span. Every result is
bit-identical (``dataclasses.asdict`` equality, insight reports
included) to a one-at-a-time replay of the same config. The engine's
serial path, its pool workers, a single :meth:`ExperimentEngine.run
<repro.engine.core.ExperimentEngine.run>`, scenario sweep cells and
``bsisa perf``'s sweep leg all replay through it.

Runs are independent and deterministic, so the engine may spread its
trace groups across a :class:`concurrent.futures.ProcessPoolExecutor`
(:func:`execute_parallel_groups`). The parent does the *capture* — one
functional execution per ``(benchmark, isa, predictor-config)`` group,
memoized and disk-cached — and submits ONE work item per group: the
picklable trace (it travels in its compact serialized form) plus every
spec replaying it. A 12-point icache sweep therefore pickles its trace
once, not twelve times. Workers only *replay*; the functional
executors never run in a worker.

Each worker replays under a **fresh** telemetry session, enabled when
the parent's is, and returns the group's ``(result, report)`` payloads
with that session's snapshot. The parent merges worker snapshots in
plan order (:meth:`repro.obs.Telemetry.merge_snapshot`), which makes
the merged counters bit-identical to a serial run — counters add
commutatively and every per-run gauge carries a unique
``benchmark``/``isa`` label set. Insight reports ride home in the
payloads, and the ``insight.*`` series they publish into the worker
session merge back the same way.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.engine.spec import RunSpec
from repro.insight import InsightCollector, InsightReport
from repro.obs.telemetry import Telemetry
from repro.sim.run import (
    CapturedRun,
    SimResult,
    prepare_sweep,
    replay_captured,
)

#: Worker trace buffers stay small: the parent merges one buffer per
#: run and its own ring already bounds total retention.
WORKER_TRACE_CAPACITY = 1024


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


def execute_group(
    captured: CapturedRun,
    specs: list[RunSpec],
    capture_telemetry: bool,
    collect_insight: bool = False,
    kernel: str = "auto",
) -> tuple[list[tuple[SimResult, InsightReport | None]], dict]:
    """Pool worker entry point for one ``(trace, config-group)`` work
    item (module-level so the pool can pickle it): :func:`replay_group`
    under a fresh session, enabled iff *capture_telemetry*; returns the
    payloads and that session's snapshot."""
    tel = Telemetry(
        enabled=capture_telemetry, trace_capacity=WORKER_TRACE_CAPACITY
    )
    payloads = replay_group(captured, specs, tel, collect_insight, kernel)
    return payloads, tel.worker_snapshot()


def execute_parallel_groups(
    groups: list[tuple[CapturedRun, list[RunSpec]]],
    jobs: int,
    capture_telemetry: bool,
    collect_insight: bool = False,
    kernel: str = "auto",
) -> list[tuple[list[tuple[SimResult, InsightReport | None]], dict]]:
    """:func:`execute_group` for every group across a process pool of
    at most *jobs* workers: one work item — one pickled trace — per
    group; results in *groups* order."""
    with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
        futures = [
            pool.submit(
                execute_group, captured, specs,
                capture_telemetry, collect_insight, kernel,
            )
            for captured, specs in groups
        ]
        return [future.result() for future in futures]
