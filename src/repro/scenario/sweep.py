"""Axis-grid sweeps: map where the BS-ISA wins, loses, and crosses over.

For every ``(bb_size, bias, hot_bytes)`` grid cell the sweep
synthesizes one family on the cell's own
:class:`~repro.engine.core.ExperimentEngine`, then executes one plan on
it: one compile, one functional run per ISA, each replayed across every
icache size through :func:`repro.engine.executor.replay_group` — so
the machine-axis dimension rides the sweep-batched replay path
(docs/performance.md) instead of re-simulating. At scale 1.0 the cell's
program is the synthesis attempt it chose, so its compile and
conventional capture are memo hits.

The result is a schema-versioned ``repro.scenario/v1`` document
(validated by ``python -m repro.obs.schema``): per-point
conventional-vs-block speedups plus a crossover summary, rendered as an
ASCII heatmap by :func:`render_heatmap`. Winners come from the measured
cycle ratio with a small tie band; a *crossover* is an adjacent pair of
grid points along one axis whose winners are on opposite sides.
"""

from __future__ import annotations

from repro.engine.core import ExperimentEngine
from repro.engine.plan import build_plan
from repro.engine.spec import ISAS, RunSpec
from repro.harness.render import ascii_table
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.scenario.spec import ScenarioSpec
from repro.scenario.synth import DEFAULT_BUDGET, generate_source, search
from repro.sim.config import MachineConfig

SCENARIO_SCHEMA_ID = "repro.scenario/v1"

#: relative cycle margin below which a point counts as a tie.
TIE_BAND = 0.005

#: default grid: 3 (block size) x 3 (bias) x 2 (footprint) cells, each
#: replayed under every icache size — small enough for CI smoke, wide
#: enough that both win regions and at least one crossover appear.
DEFAULT_BB = (3, 8, 16)
DEFAULT_BIAS = (0.6, 0.8, 0.95)
DEFAULT_HOT_KB = (4, 16)
DEFAULT_ICACHE_KB = (4, 16, 64)


def _winner(speedup: float) -> str:
    if speedup > 1.0 + TIE_BAND:
        return "block"
    if speedup < 1.0 - TIE_BAND:
        return "conventional"
    return "tie"


def sweep_cell(
    spec: ScenarioSpec,
    icache_kb,
    scale: float = 1.0,
    budget: int = DEFAULT_BUDGET,
    kernel: str = "auto",
    telemetry: Telemetry | None = None,
) -> dict:
    """One grid cell: synthesize, capture both ISAs once, replay the
    icache axis batched — all on one engine, so the cell's program
    reuses the chosen attempt's compile and capture when it is that
    attempt (at scale 1.0)."""
    tel = telemetry if telemetry is not None else get_telemetry()
    engine = ExperimentEngine(scale=scale, telemetry=tel, kernel=kernel)
    name = spec.family_name
    configs = [MachineConfig().with_icache_kb(kb) for kb in icache_kb]
    with tel.span("scenario.cell", family=name):
        synth = search(spec, budget, engine)
        source = generate_source(spec, synth.params, scale)
        specs = [
            RunSpec(name, isa, c, source) for isa in ISAS for c in configs
        ]
        results = engine.execute(build_plan([(name, specs)]))
    tel.count("scenario.cells")
    points = []
    for kb, config in zip(icache_kb, configs):
        conv = results[RunSpec(name, "conventional", config, source)]
        block = results[RunSpec(name, "block", config, source)]
        speedup = round(conv.cycles / block.cycles, 4)
        points.append({
            "icache_kb": kb,
            "conventional_cycles": conv.cycles,
            "block_cycles": block.cycles,
            "speedup": speedup,
            "winner": _winner(speedup),
        })
    return {
        "family": spec.family_name,
        "target": {
            "bb_size": spec.bb_size,
            "bias": spec.bias,
            "hot_bytes": spec.hot_bytes,
            "seed": spec.seed,
        },
        "realized": synth.realized.as_dict(),
        "attempts": synth.attempts,
        "results": points,
    }


def _crossovers(cells: list[dict]) -> tuple[dict, int]:
    """Adjacent opposite-winner pairs along each axis of the grid."""
    winners = {}
    for cell in cells:
        t = cell["target"]
        for point in cell["results"]:
            key = (t["bb_size"], t["bias"], t["hot_bytes"],
                   point["icache_kb"])
            winners[key] = point["winner"]
    axes = ("bb_size", "bias", "hot_bytes", "icache_kb")
    per_axis = {axis: 0 for axis in axes}
    points = sorted(winners)
    for i, key in enumerate(points):
        for other in points[i + 1:]:
            diff = [d for d in range(4) if key[d] != other[d]]
            if len(diff) != 1:
                continue
            a, b = winners[key], winners[other]
            if "tie" not in (a, b) and a != b:
                per_axis[axes[diff[0]]] += 1
    return per_axis, sum(per_axis.values())


def run_sweep(
    bb_sizes=DEFAULT_BB,
    biases=DEFAULT_BIAS,
    hot_kb=DEFAULT_HOT_KB,
    icache_kb=DEFAULT_ICACHE_KB,
    seed: int = 0,
    scale: float = 1.0,
    budget: int = DEFAULT_BUDGET,
    kernel: str = "auto",
    telemetry: Telemetry | None = None,
    progress=None,
) -> dict:
    """The full grid sweep, returned as a ``repro.scenario/v1`` dict.

    *progress*, when given, is called with a one-line string per
    completed cell (the CLI prints these as the sweep runs).
    """
    tel = telemetry if telemetry is not None else get_telemetry()
    cells = []
    icache_kb = list(icache_kb)
    with tel.span("scenario.sweep"):
        for bb in bb_sizes:
            for bias in biases:
                for kb in hot_kb:
                    spec = ScenarioSpec(
                        bb_size=bb, bias=bias,
                        hot_bytes=kb * 1024, seed=seed,
                    )
                    cell = sweep_cell(
                        spec, icache_kb, scale=scale, budget=budget,
                        kernel=kernel, telemetry=tel,
                    )
                    cells.append(cell)
                    if progress is not None:
                        speeds = ", ".join(
                            f"{p['icache_kb']}KB:{p['speedup']:.2f}"
                            for p in cell["results"]
                        )
                        progress(f"{cell['family']}: {speeds}")
    per_axis, total = _crossovers(cells)
    all_points = [p for c in cells for p in c["results"]]
    return {
        "schema": SCENARIO_SCHEMA_ID,
        "meta": {
            "seed": seed,
            "scale": scale,
            "budget": budget,
            "kernel": kernel,
            "grid": {
                "bb_size": list(bb_sizes),
                "bias": list(biases),
                "hot_kb": list(hot_kb),
                "icache_kb": icache_kb,
            },
        },
        "cells": cells,
        "summary": {
            "cells": len(cells),
            "points": len(all_points),
            "block_wins": sum(
                1 for p in all_points if p["winner"] == "block"
            ),
            "conventional_wins": sum(
                1 for p in all_points if p["winner"] == "conventional"
            ),
            "ties": sum(1 for p in all_points if p["winner"] == "tie"),
            "crossover_points": total,
            "crossover_axes": sorted(
                axis for axis, n in per_axis.items() if n
            ),
        },
    }


def render_heatmap(doc: dict) -> str:
    """ASCII crossover heatmap: one pane per (hot footprint, icache).

    Rows are block-size targets, columns bias targets; each entry is
    the measured speedup (conventional cycles / block cycles) tagged
    ``+`` where the BS-ISA wins, ``-`` where conventional wins, ``=``
    in the tie band.
    """
    grid = doc["meta"]["grid"]
    by_key = {}
    for cell in doc["cells"]:
        t = cell["target"]
        for point in cell["results"]:
            by_key[(t["bb_size"], t["bias"], t["hot_bytes"],
                    point["icache_kb"])] = point
    mark = {"block": "+", "conventional": "-", "tie": "="}
    panes = []
    for hot in grid["hot_kb"]:
        for ic in grid["icache_kb"]:
            rows = []
            for bb in grid["bb_size"]:
                row = [f"bb{bb}"]
                for bias in grid["bias"]:
                    point = by_key.get((bb, bias, hot * 1024, ic))
                    if point is None:
                        row.append("·")
                    else:
                        row.append(
                            f"{point['speedup']:.2f}"
                            f"{mark[point['winner']]}"
                        )
                rows.append(row)
            panes.append(ascii_table(
                ["bb\\bias"] + [f"{b:.2f}" for b in grid["bias"]],
                rows,
                title=f"hot {hot}KB, icache {ic}KB",
            ))
    summary = doc["summary"]
    header = (
        "scenario crossover heatmap — speedup = conventional cycles / "
        "block cycles (+ block wins, - conventional wins, = tie)\n"
        f"points: {summary['points']}  block wins: "
        f"{summary['block_wins']}  conventional wins: "
        f"{summary['conventional_wins']}  ties: {summary['ties']}  "
        f"crossover axes: "
        f"{', '.join(summary['crossover_axes']) or 'none'}"
    )
    return "\n\n".join([header] + panes)
