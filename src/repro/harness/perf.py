"""``bsisa perf`` — the repo's performance-trajectory artifact.

Times the phases of the packed-trace pipeline per benchmark × ISA
(docs/performance.md):

* **capture**  — functional execution, which writes the
  :class:`~repro.sim.packed.PackedTrace` columns as it runs;
* **replay**   — :meth:`~repro.sim.engine.TimingEngine.run_packed` over
  the flat arrays (the scalar Python replayer, the reference);
* **vector**   — the vectorized column kernel
  (:mod:`repro.sim.vector`), timed *cold*: one replay of a trace copy
  rebuilt from its serialized form, as the artifact cache loads it,
  with no per-trace prep and no memoized spine. Skipped
  (no ``vector_s`` column) when numpy is absent or ``kernel='python'``
  is forced;
* **sweep**    — the batched fig6/fig7-style icache sweep
  (:func:`~repro.engine.executor.replay_group` over perfect +
  :data:`~repro.fidelity.paper.ICACHE_SWEEP_KB`): ``sweep_per_config_s``
  replays one cold trace copy per config point (one-at-a-time
  replay), ``sweep_s`` one cold copy batched over the whole sweep;
  ``totals.speedup_sweep`` is their ratio.
  Emitted for every kernel — without numpy both legs run the grouped
  scalar fallback and the ratio hovers near 1.

The vectorized replay is asserted bit-identical to the scalar one
(``vector_match``, ``dataclasses.asdict`` equality) and the batched
sweep to the per-config one (``sweep_match``), so the artifact doubles
as an end-to-end correctness check: ``totals.stats_match`` is their
conjunction and sets the exit code, and CI's perf-smoke job fails on
any ``false``. A replay the kernel declines runs the scalar loop and
so matches by definition; ``vector_fallbacks`` counts those replays
over the vector and sweep legs, and perf-smoke fails unless it is 0.
The document is schema-versioned
(:data:`~repro.obs.schema.BENCH_SCHEMA_ID`) and validated by
``python -m repro.obs.schema BENCH_sim.json``.

Timed regions run under the process-wide *disabled* telemetry session,
so they measure the zero-cost telemetry-off paths; pass an enabled
session to also record ``perf.capture``/``perf.replay``/
``perf.vector``/``perf.sweep*`` spans around each phase.
"""

from __future__ import annotations

import dataclasses
import json
from time import perf_counter

from repro.engine.core import ExperimentEngine
from repro.engine.executor import replay_group
from repro.engine.spec import RunSpec
from repro.fidelity.paper import ICACHE_SWEEP_KB
from repro.obs.schema import BENCH_SCHEMA_ID
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.sim import vector
from repro.sim.config import MachineConfig
from repro.sim.packed import PackedTrace
from repro.sim.run import replay_captured

ISAS = ("conventional", "block")


def _timed(tel: Telemetry, name: str, fn, **labels):
    """Run *fn* under a perf span; returns (result, seconds)."""
    with tel.span(name, **labels):
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start
    return result, elapsed


def benchmark_one(
    benchmark: str,
    scale: float,
    config: MachineConfig | None = None,
    telemetry: Telemetry | None = None,
    kernel: str = "auto",
) -> list[dict]:
    """Capture/replay/vector/sweep timings for one benchmark, both ISAs;
    a fresh engine compiles (source text included) and captures cold."""
    config = config or MachineConfig()
    tel = telemetry if telemetry is not None else get_telemetry()
    time_vector = kernel != "python" and vector.HAVE_NUMPY
    engine = ExperimentEngine(scale=scale)
    start = perf_counter()
    engine.compiled(benchmark)
    compile_s = perf_counter() - start
    entries = []
    for isa in ISAS:
        labels = {"benchmark": benchmark, "isa": isa}
        captured, capture_s = _timed(
            tel, "perf.capture",
            lambda: engine.captured_run(RunSpec(benchmark, isa, config)),
            **labels
        )
        replayed, replay_s = _timed(
            tel, "perf.replay",
            lambda: replay_captured(captured, config, kernel="python"),
            **labels
        )
        entry = {
            "benchmark": benchmark,
            "isa": isa,
            "compile_s": compile_s,
            "capture_s": capture_s,
            "replay_s": replay_s,
            "units": captured.trace.num_units,
            "ops": captured.trace.num_ops,
            "trace_bytes": captured.trace.nbytes,
            "cycles": replayed.cycles,
        }
        fallbacks = vector.FALLBACKS
        if time_vector:
            # A cold copy, as the sweep legs replay: a replay of
            # *captured* itself could be served by prep or a spine memo
            # that an earlier replay left on the trace.
            cold = _cold_copy(captured, captured.trace.to_bytes())
            vectored, vector_s = _timed(
                tel, "perf.vector",
                lambda: replay_captured(cold, config, kernel="numpy"),
                **labels
            )
            entry["vector_s"] = vector_s
            entry["vector_match"] = dataclasses.asdict(
                vectored
            ) == dataclasses.asdict(replayed)
        entry.update(
            _sweep_columns(
                tel, captured, config,
                "numpy" if time_vector else "python", labels,
            )
        )
        entry["vector_fallbacks"] = vector.FALLBACKS - fallbacks
        entries.append(entry)
    return entries


def _cold_copy(captured, blob):
    """*captured* with its trace rebuilt from the serialized *blob*, as
    the artifact cache loads it: no line spans, prep or spine memo."""
    return dataclasses.replace(captured, trace=PackedTrace.from_bytes(blob))


def _sweep_columns(tel, captured, config, kernel, labels) -> dict:
    """Time the fig6/fig7-style icache sweep both ways.

    Both legs replay *cold* trace copies — what the artifact cache
    loads. The per-config leg rebuilds the copy per sweep point
    (one-at-a-time replay); the sweep leg rebuilds it once and hands
    the whole config list to
    :func:`~repro.engine.executor.replay_group`, which amortizes the
    shared precompute. ``sweep_match`` asserts the two result lists are
    bit-identical (``dataclasses.asdict`` equality, no tolerance).
    """
    configs = [config.with_icache_kb(None)] + [
        config.with_icache_kb(kb) for kb in ICACHE_SWEEP_KB
    ]
    blob = captured.trace.to_bytes()
    per_results, sweep_per_config_s = _timed(
        tel, "perf.sweep_per_config",
        lambda: [
            replay_captured(_cold_copy(captured, blob), c, kernel=kernel)
            for c in configs
        ],
        **labels,
    )
    specs = [RunSpec(captured.name, captured.isa, c) for c in configs]
    sweep_results, sweep_s = _timed(
        tel, "perf.sweep",
        lambda: [
            result for result, _ in replay_group(
                _cold_copy(captured, blob), specs, get_telemetry(),
                kernel=kernel,
            )
        ],
        **labels,
    )
    return {
        "sweep_points": len(configs),
        "sweep_per_config_s": sweep_per_config_s,
        "sweep_s": sweep_s,
        "sweep_match": [dataclasses.asdict(r) for r in per_results]
        == [dataclasses.asdict(r) for r in sweep_results],
    }


def _totals(entries: list[dict]) -> dict:
    replay_s = sum(e["replay_s"] for e in entries)
    totals = {
        "capture_s": sum(e["capture_s"] for e in entries),
        "replay_s": replay_s,
        "stats_match": all(e.get("vector_match", True) for e in entries)
        and all(e.get("sweep_match", True) for e in entries),
    }
    if entries and all("sweep_s" in e for e in entries):
        sweep_s = sum(e["sweep_s"] for e in entries)
        sweep_per_config_s = sum(e["sweep_per_config_s"] for e in entries)
        totals["sweep_s"] = sweep_s
        totals["sweep_per_config_s"] = sweep_per_config_s
        #: per-config -> batched sweep: ISSUE 9's >=3x target
        totals["speedup_sweep"] = (
            sweep_per_config_s / sweep_s if sweep_s else 0.0
        )
    if entries and all("vector_s" in e for e in entries):
        vector_s = sum(e["vector_s"] for e in entries)
        totals["vector_s"] = vector_s
        #: scalar replay -> cold vector replay of the same trace
        totals["replay_vs_vector"] = (
            replay_s / vector_s if vector_s else 0.0
        )
    return totals


def benchmark_suite(
    benchmarks: list[str],
    scale: float,
    config: MachineConfig | None = None,
    telemetry: Telemetry | None = None,
    kernel: str = "auto",
) -> dict:
    """The full ``BENCH_sim.json`` document for *benchmarks*."""
    entries: list[dict] = []
    for benchmark in benchmarks:
        entries.extend(
            benchmark_one(benchmark, scale, config, telemetry, kernel)
        )
    return {
        "schema": BENCH_SCHEMA_ID,
        "meta": {
            "command": "perf",
            "benchmarks": list(benchmarks),
            "scale": scale,
            "kernel": kernel,
        },
        "benchmarks": entries,
        "totals": _totals(entries),
    }


#: ``bsisa perf --compare`` flags a regression when a gated phase gets
#: more than this much slower than the committed baseline.
REGRESSION_THRESHOLD = 0.20

#: The phases ``--compare`` reports and gates on. Capture gates too: it
#: runs once per trace, yet it is most of a cold run's simulation time
#: (docs/performance.md). vector_s/sweep_s only gate when both
#: documents carry them (numpy present on both sides, sweep columns
#: present on both sides).
_GATED_FIELDS = ("capture_s", "replay_s", "vector_s", "sweep_s")


def compare_documents(
    new: dict, old: dict, threshold: float = REGRESSION_THRESHOLD
) -> tuple[str, list[str]]:
    """Per-benchmark×ISA speed deltas of *new* against the baseline
    *old* (an earlier ``BENCH_sim.json``).

    Returns ``(rendered table, regressions)`` — a regression is a gated
    phase (:data:`_GATED_FIELDS`) more than *threshold* slower than the
    baseline. Entries are matched on ``(benchmark, isa)``; entries
    missing from the baseline are reported but never gate.
    """
    baseline = {
        (e["benchmark"], e["isa"]): e for e in old.get("benchmarks", [])
    }
    lines = [
        f"{'benchmark':12s} {'isa':13s} {'capture':>9s} {'replay':>9s} "
        f"{'vector':>9s} {'sweep':>9s}  vs baseline"
    ]
    regressions: list[str] = []
    for entry in new["benchmarks"]:
        key = (entry["benchmark"], entry["isa"])
        base = baseline.get(key)
        if base is None:
            lines.append(
                f"{entry['benchmark']:12s} {entry['isa']:13s} "
                f"{'—':>9s} {'—':>9s} {'—':>9s} {'—':>9s}  "
                f"(no baseline entry)"
            )
            continue
        deltas = []
        for field in _GATED_FIELDS:
            if field in entry and base.get(field, 0) > 0:
                deltas.append(
                    f"{100.0 * (entry[field] - base[field]) / base[field]:+8.1f}%"
                )
            else:
                deltas.append(f"{'n/a':>9s}")
        lines.append(
            f"{entry['benchmark']:12s} {entry['isa']:13s} "
            + " ".join(deltas)
        )
        for field in _GATED_FIELDS:
            if field not in entry or field not in base:
                continue
            if base[field] > 0 and entry[field] > base[field] * (
                1.0 + threshold
            ):
                pct = 100.0 * (entry[field] - base[field]) / base[field]
                regressions.append(
                    f"{entry['benchmark']}/{entry['isa']} {field}: "
                    f"{base[field]:.3f}s -> {entry[field]:.3f}s "
                    f"({pct:+.1f}%, threshold +{100.0 * threshold:.0f}%)"
                )
    return "\n".join(lines), regressions


def write_document(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render(doc: dict) -> str:
    """Human-readable table of one perf document."""
    lines = [
        f"{'benchmark':12s} {'isa':13s} {'capture':>9s} {'replay':>9s} "
        f"{'vector':>9s} {'sweep':>9s} {'vec x':>7s} {'swp x':>7s} "
        f"{'ops':>10s} match"
    ]
    for e in doc["benchmarks"]:
        if "vector_s" in e:
            vec_col = f"{e['vector_s']:8.3f}s"
            vec_x = (
                f"{e['replay_s'] / e['vector_s']:6.2f}x"
                if e["vector_s"]
                else f"{'—':>7s}"
            )
        else:
            vec_col = f"{'—':>9s}"
            vec_x = f"{'—':>7s}"
        if "sweep_s" in e:
            sweep_col = f"{e['sweep_s']:8.3f}s"
            sweep_x = (
                f"{e['sweep_per_config_s'] / e['sweep_s']:6.2f}x"
                if e["sweep_s"]
                else f"{'—':>7s}"
            )
        else:
            sweep_col = f"{'—':>9s}"
            sweep_x = f"{'—':>7s}"
        match = (
            "ok"
            if e.get("vector_match", True) and e.get("sweep_match", True)
            else "MISMATCH"
        )
        if e.get("vector_fallbacks"):
            match += f" ({e['vector_fallbacks']} scalar)"
        lines.append(
            f"{e['benchmark']:12s} {e['isa']:13s} {e['capture_s']:8.3f}s "
            f"{e['replay_s']:8.3f}s {vec_col} {sweep_col} {vec_x} "
            f"{sweep_x} {e['ops']:10,d} {match}"
        )
    t = doc["totals"]
    extras = []
    if "vector_s" in t:
        extras.append(f"vector {t['replay_vs_vector']:.2f}x vs python replay")
    if "sweep_s" in t:
        extras.append(
            f"sweep {t['speedup_sweep']:.2f}x vs per-config"
        )
    vec_tot = f"{t['vector_s']:8.3f}s" if "vector_s" in t else f"{'—':>9s}"
    sweep_tot = f"{t['sweep_s']:8.3f}s" if "sweep_s" in t else f"{'—':>9s}"
    lines.append(
        f"{'total':12s} {'':13s} {t['capture_s']:8.3f}s "
        f"{t['replay_s']:8.3f}s {vec_tot} {sweep_tot}"
        + (f" ({', '.join(extras)})" if extras else "")
    )
    return "\n".join(lines)
