"""Process-parallel plan execution with ship-once trace distribution.

Runs are independent and deterministic, so a deduplicated plan can be
spread across a :class:`concurrent.futures.ProcessPoolExecutor`. Since
the packed-trace subsystem the parent does the *capture* — one
functional execution per ``(benchmark, isa, predictor-config)`` group,
memoized and disk-cached — and since the sweep-batched subsystem
(docs/experiment-engine.md) it submits ONE work item per
``(trace, config-group)``: a picklable
:class:`~repro.sim.run.CapturedRun` (the packed trace travels in its
compact serialized form) plus every :class:`~repro.engine.spec.RunSpec`
replaying it. A 12-point icache sweep therefore pickles its trace once,
not twelve times, and the worker amortizes the shared precompute
(:func:`repro.sim.run.prepare_sweep`) across the whole group. Workers
only *replay* — the expensive dict/heap interpretation of the
functional executors never runs in a worker.

Each worker simulates under a **fresh** telemetry session, returning
per-spec :class:`~repro.sim.run.SimResult`\\ s together with one
telemetry snapshot per group. The parent merges worker snapshots in
plan order (:meth:`repro.obs.Telemetry.merge_snapshot`), which makes
the merged counters bit-identical to a serial run — counters add
commutatively and every per-run gauge carries a unique
``benchmark``/``isa`` label set. When *collect_insight* is set, the
worker additionally rides an
:class:`~repro.insight.InsightCollector` on each replay and ships the
frozen :class:`~repro.insight.InsightReport` home the same way — the
``insight.*`` metric series it publishes into the worker session merge
back identically to a serial run.

``--jobs 1`` never touches multiprocessing, and neither does any call
whose *effective* worker count is 1 (e.g. ``--jobs 2`` with a single
work item): both run the same worker entry in-process.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.engine.spec import RunSpec
from repro.insight import InsightCollector, InsightReport
from repro.isa.program import BlockProgram, ConventionalProgram
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.sim.run import (
    CapturedRun,
    SimResult,
    capture_run,
    prepare_sweep,
    replay_captured,
    replay_sweep,
)

#: Worker trace buffers stay small: the parent merges one buffer per
#: run and its own ring already bounds total retention.
WORKER_TRACE_CAPACITY = 1024


def simulate_spec(
    program: ConventionalProgram | BlockProgram,
    spec: RunSpec,
    telemetry: Telemetry,
) -> SimResult:
    """Capture + replay one spec (in-process convenience path)."""
    captured = capture_run(program, spec.isa, spec.config, telemetry)
    return replay_captured(captured, spec.config, telemetry)


def execute_group(
    captured: CapturedRun,
    specs: list[RunSpec],
    capture_telemetry: bool,
    collect_insight: bool = False,
    kernel: str = "auto",
) -> tuple[list[tuple[SimResult, InsightReport | None]], dict | None]:
    """Top-level worker entry point for one ``(trace, config-group)``
    work item (must stay module-level so the process pool can pickle
    it). Runs the shared sweep precompute once, then replays the
    shipped packed trace under every spec's machine config; returns the
    per-spec ``(result, report)`` payloads in *specs* order plus one
    telemetry snapshot when *capture_telemetry* is set."""
    collectors = [
        InsightCollector() if collect_insight else None for _ in specs
    ]
    configs = [spec.config for spec in specs]
    if not capture_telemetry:
        results = replay_sweep(
            captured, configs, get_telemetry(),
            insights=collectors, kernel=kernel,
        )
        payloads = []
        for spec, result, collector in zip(specs, results, collectors):
            report = (
                collector.report(spec.benchmark, spec.isa, spec.config)
                if collector is not None
                else None
            )
            payloads.append((result, report))
        return payloads, None
    tel = Telemetry(trace_capacity=WORKER_TRACE_CAPACITY)
    prepare_sweep(captured, configs, kernel=kernel, telemetry=tel)
    payloads = []
    for spec, collector in zip(specs, collectors):
        with tel.span("plan.run", **spec.labels()):
            result = replay_captured(
                captured, spec.config, tel,
                insight=collector, kernel=kernel,
            )
        report = None
        if collector is not None:
            report = collector.report(spec.benchmark, spec.isa, spec.config)
            # Mirror the serial path: insight metrics land in the worker
            # session and merge home bit-identically.
            report.publish(tel.metrics)
        payloads.append((result, report))
    return payloads, tel.worker_snapshot()


def execute_parallel_groups(
    groups: list[tuple[CapturedRun, list[RunSpec]]],
    jobs: int,
    capture_telemetry: bool,
    collect_insight: bool = False,
    kernel: str = "auto",
) -> list[
    tuple[
        list[RunSpec],
        list[tuple[SimResult, InsightReport | None]],
        dict | None,
    ]
]:
    """Execute trace-grouped *groups* across a process pool.

    One work item — one pickled trace — per group; results in *groups*
    order, payloads in each group's spec order. An effective worker
    count of 1 (``jobs`` 1, or a single group) runs in-process.
    """
    workers = max(1, min(jobs, len(groups)))
    if workers == 1:
        return [
            (
                specs,
                *execute_group(
                    captured, specs, capture_telemetry, collect_insight, kernel
                ),
            )
            for captured, specs in groups
        ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            (
                specs,
                pool.submit(
                    execute_group, captured, specs,
                    capture_telemetry, collect_insight, kernel,
                ),
            )
            for captured, specs in groups
        ]
        return [
            (specs, *future.result()) for specs, future in futures
        ]
