"""Experiment definitions: one function per paper table/figure.

All experiments run the full eight-benchmark suite through the shared
:class:`SuiteRunner`, a thin facade over the plan/execute
:class:`~repro.engine.ExperimentEngine`. Each experiment *declares* the
runs it needs as :class:`~repro.engine.RunSpec` values
(:data:`EXPERIMENT_RUNS`); the planner deduplicates the declarations of
every requested experiment into one :class:`~repro.engine.RunPlan`
(fig3/fig5 share all default-config runs, fig6/fig7 share the
perfect-icache baselines), which the engine executes serially or across
a process pool and memoizes, so each unique (benchmark, isa, config)
simulation happens exactly once per session. The paper's numbers are
embedded for side-by-side reporting where the paper states them
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.toolchain import CompiledPair
from repro.engine import (
    ArtifactCache,
    ExperimentEngine,
    RunPlan,
    RunSpec,
    build_plan,
)
from repro.fidelity import paper
from repro.harness.render import ascii_table, grouped_bars
from repro.isa.latencies import CLASS_DESCRIPTION, LATENCY, InstrClass
from repro.obs.telemetry import Telemetry
from repro.sim.config import MachineConfig
from repro.sim.run import SimResult
from repro.workloads import SUITE, default_scale

__all__ = [
    "ALL_EXPERIMENTS",
    "EXPERIMENT_RUNS",
    "ExperimentResult",
    "SuiteRunner",
    "default_scale",
]

#: Icache sizes swept by Figures 6 and 7 (KB); the paper's values and
#: every other paper constant live in :mod:`repro.fidelity.paper` — the
#: single source of truth the claim registry checks against.
ICACHE_SWEEP_KB = paper.ICACHE_SWEEP_KB


@dataclass
class ExperimentResult:
    """Uniform result record: id, headers+rows, and rendered text."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list]
    text: str = ""
    summary: dict = field(default_factory=dict)

    def render(self) -> str:
        table = ascii_table(self.headers, self.rows, title=self.title)
        if self.text:
            return f"{table}\n\n{self.text}"
        return table


class SuiteRunner:
    """Thin facade over :class:`~repro.engine.ExperimentEngine`.

    ``pair`` and ``run`` read its memoized compiles and runs (keyed by
    the **full** :class:`MachineConfig`), and ``plan``/``execute``
    expose the declarative plan path used by the CLI and the benchmark
    harness. The figures compare both ISAs through ``engine.compare``.
    """

    def __init__(
        self,
        scale: float | None = None,
        benchmarks: list[str] | None = None,
        telemetry: Telemetry | None = None,
        jobs: int = 1,
        cache: ArtifactCache | None = None,
        insight: bool = False,
        kernel: str = "auto",
    ):
        self.engine = ExperimentEngine(
            scale=scale,
            benchmarks=benchmarks,
            telemetry=telemetry,
            cache=cache,
            jobs=jobs,
            insight=insight,
            kernel=kernel,
        )

    @property
    def insights(self):
        """spec -> InsightReport collected this session (insight mode)."""
        return self.engine.insights

    @property
    def scale(self) -> float:
        return self.engine.scale

    @property
    def benchmarks(self) -> list[str]:
        return self.engine.benchmarks

    @property
    def telemetry(self) -> Telemetry | None:
        return self.engine.telemetry

    def pair(self, name: str) -> CompiledPair:
        return self.engine.compiled(name)

    def run(self, name: str, isa: str, config: MachineConfig) -> SimResult:
        return self.engine.run(RunSpec(name, isa, config))

    def plan(self, experiments: list[str]) -> RunPlan:
        """One deduplicated plan covering *experiments*' declared runs."""
        return build_plan(
            [
                (name, EXPERIMENT_RUNS[name](self.benchmarks))
                for name in experiments
            ],
            scale=self.scale,
        )

    def execute(self, experiments: list[str]) -> RunPlan:
        """Plan and execute every run *experiments* need (the shared
        per-session entry point of the CLI and benchmark conftest)."""
        plan = self.plan(experiments)
        self.engine.execute(plan)
        return plan


# ---------------------------------------------------------------------------
# Declared runs — the planning layer's input, one entry per experiment
# ---------------------------------------------------------------------------


def _performance_runs(
    benchmarks: list[str], perfect_bp: bool = False
) -> list[RunSpec]:
    config = MachineConfig(perfect_bp=perfect_bp)
    return [
        RunSpec(name, isa, config)
        for name in benchmarks
        for isa in ("conventional", "block")
    ]


def _icache_runs(benchmarks: list[str], isa: str) -> list[RunSpec]:
    sweep = [MachineConfig().with_icache_kb(None)] + [
        MachineConfig().with_icache_kb(kb) for kb in ICACHE_SWEEP_KB
    ]
    return [
        RunSpec(name, isa, config)
        for name in benchmarks
        for config in sweep
    ]


#: experiment name -> benchmarks -> the RunSpecs that experiment needs.
#: This is the declarative contract the planner consumes; a tier-1 test
#: asserts each builder below performs exactly its declared runs.
EXPERIMENT_RUNS = {
    "table1": lambda benchmarks: [],
    "table2": lambda benchmarks: [
        RunSpec(name, "conventional", MachineConfig()) for name in benchmarks
    ],
    "fig3": _performance_runs,
    "fig4": lambda benchmarks: _performance_runs(benchmarks, perfect_bp=True),
    "fig5": _performance_runs,
    "fig6": lambda benchmarks: _icache_runs(benchmarks, "conventional"),
    "fig7": lambda benchmarks: _icache_runs(benchmarks, "block"),
}


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def table1_latencies(runner: SuiteRunner | None = None) -> ExperimentResult:
    """Table 1: instruction classes and latencies (configuration check)."""
    rows = [
        [cls.value, LATENCY[cls], CLASS_DESCRIPTION[cls]]
        for cls in InstrClass
    ]
    return ExperimentResult(
        experiment="table1",
        title="Table 1: Instruction classes and latencies",
        headers=["Instruction Class", "Exec. Lat.", "Description"],
        rows=rows,
        summary={cls.value: LATENCY[cls] for cls in InstrClass},
    )


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------


def table2_benchmarks(runner: SuiteRunner | None = None) -> ExperimentResult:
    """Table 2: benchmarks, inputs, dynamic conventional instruction counts."""
    runner = runner or SuiteRunner()
    rows = []
    counts = {}
    for name in runner.benchmarks:
        result = runner.run(name, "conventional", MachineConfig())
        workload = SUITE[name]
        rows.append([name, workload.paper_input, result.committed_ops])
        counts[name] = result.committed_ops
    return ExperimentResult(
        experiment="table2",
        title="Table 2: Benchmarks and dynamic instruction counts "
        "(conventional ISA; stand-in inputs, see DESIGN.md)",
        headers=["Benchmark", "Paper input", "# of Instructions"],
        rows=rows,
        summary=counts,
    )


# ---------------------------------------------------------------------------
# Figures 3 and 4 — total cycles, conventional vs block-structured
# ---------------------------------------------------------------------------


def _performance_figure(
    runner: SuiteRunner, perfect_bp: bool
) -> tuple[list[list], dict]:
    config = MachineConfig(perfect_bp=perfect_bp)
    rows = []
    total_conv = 0
    total_block = 0
    reductions = {}
    mispredicts = 0
    squashed = 0
    for name in runner.benchmarks:
        cmp = runner.engine.compare(name, config)
        conv, block = cmp.conventional, cmp.block
        reductions[name] = cmp.reduction_pct
        total_conv += conv.cycles
        total_block += block.cycles
        mispredicts += conv.mispredicts + block.mispredicts
        squashed += block.squashed_blocks
        rows.append(
            [name, conv.cycles, block.cycles, f"{cmp.reduction_pct:+.1f}%"]
        )
    aggregate = 100.0 * (total_conv - total_block) / total_conv
    summary = {
        "reductions": reductions,
        "aggregate_reduction_pct": aggregate,
        "mean_reduction_pct": sum(reductions.values()) / len(reductions),
        # suite-wide prediction counters (the fig4 registry claims check
        # that perfect prediction really ran misprediction-free)
        "total_mispredicts": mispredicts,
        "total_squashed_blocks": squashed,
    }
    return rows, summary


def fig3_performance(runner: SuiteRunner | None = None) -> ExperimentResult:
    """Figure 3: cycles, conventional vs BS-ISA, 64 KB icache, real BP."""
    runner = runner or SuiteRunner()
    rows, summary = _performance_figure(runner, perfect_bp=False)
    bars = grouped_bars(
        [
            (row[0], [("conventional", row[1]), ("block", row[2])])
            for row in rows
        ],
        title="Total cycles (64 KB 4-way icache, real prediction)",
    )
    stated = ", ".join(
        f"{name} {value:+g}%"
        for name, value in paper.FIG3_REDUCTION_PCT.items()
    )
    text = (
        f"{bars}\n\nmean reduction {summary['mean_reduction_pct']:+.1f}% "
        f"(paper: +{paper.FIG3_AVERAGE_REDUCTION_PCT}%; paper "
        f"per-benchmark: {stated})"
    )
    return ExperimentResult(
        "fig3",
        "Figure 3: Performance, conventional vs block-structured ISA",
        ["Benchmark", "Conv cycles", "BS cycles", "Reduction"],
        rows,
        text=text,
        summary=summary,
    )


def fig4_perfect_bp(runner: SuiteRunner | None = None) -> ExperimentResult:
    """Figure 4: the same comparison with perfect branch prediction."""
    runner = runner or SuiteRunner()
    rows, summary = _performance_figure(runner, perfect_bp=True)
    text = (
        f"mean reduction {summary['mean_reduction_pct']:+.1f}% "
        f"(paper: +{paper.FIG4_AVERAGE_REDUCTION_PCT}%)"
    )
    return ExperimentResult(
        "fig4",
        "Figure 4: Performance with perfect branch prediction",
        ["Benchmark", "Conv cycles", "BS cycles", "Reduction"],
        rows,
        text=text,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# Figure 5 — average retired block sizes
# ---------------------------------------------------------------------------


def fig5_block_sizes(runner: SuiteRunner | None = None) -> ExperimentResult:
    """Figure 5: average retired block sizes for both ISAs."""
    runner = runner or SuiteRunner()
    config = MachineConfig()
    rows = []
    conv_sizes = {}
    block_sizes = {}
    for name in runner.benchmarks:
        cmp = runner.engine.compare(name, config)
        conv, block = cmp.conventional, cmp.block
        conv_sizes[name] = conv.avg_block_size
        block_sizes[name] = block.avg_block_size
        growth = (block.avg_block_size / conv.avg_block_size - 1.0) * 100.0
        rows.append(
            [
                name,
                round(conv.avg_block_size, 2),
                round(block.avg_block_size, 2),
                f"{growth:+.0f}%",
            ]
        )
    mean_conv = sum(conv_sizes.values()) / len(conv_sizes)
    mean_block = sum(block_sizes.values()) / len(block_sizes)
    text = (
        f"suite means: conventional {mean_conv:.1f}, block-structured "
        f"{mean_block:.1f} ops/block (paper: "
        f"{paper.FIG5_AVG_BLOCK_CONVENTIONAL} -> "
        f"{paper.FIG5_AVG_BLOCK_STRUCTURED}, a "
        f"{paper.FIG5_GROWTH_PCT:g}% increase)"
    )
    return ExperimentResult(
        "fig5",
        "Figure 5: Average retired block sizes",
        ["Benchmark", "Conventional", "Block-structured", "Growth"],
        rows,
        text=text,
        summary={
            "conventional": conv_sizes,
            "block": block_sizes,
            "mean_conventional": mean_conv,
            "mean_block": mean_block,
        },
    )


# ---------------------------------------------------------------------------
# Figures 6 and 7 — icache sensitivity
# ---------------------------------------------------------------------------


def _icache_figure(runner: SuiteRunner, isa: str) -> tuple[list[list], dict]:
    perfect = {
        name: runner.run(name, isa, MachineConfig().with_icache_kb(None)).cycles
        for name in runner.benchmarks
    }
    rows = []
    increases: dict[str, dict[int, float]] = {}
    for name in runner.benchmarks:
        row = [name]
        increases[name] = {}
        for kb in ICACHE_SWEEP_KB:
            cycles = runner.run(
                name, isa, MachineConfig().with_icache_kb(kb)
            ).cycles
            rel = (cycles - perfect[name]) / perfect[name]
            increases[name][kb] = rel
            row.append(round(rel, 3))
        rows.append(row)
    return rows, {"relative_increase": increases}


def fig6_icache_conventional(
    runner: SuiteRunner | None = None,
) -> ExperimentResult:
    """Figure 6: conventional-ISA slowdown vs a perfect icache."""
    runner = runner or SuiteRunner()
    rows, summary = _icache_figure(runner, "conventional")
    return ExperimentResult(
        "fig6",
        "Figure 6: Relative execution-time increase over a perfect icache "
        "(conventional ISA)",
        ["Benchmark"] + [f"{kb}KB" for kb in ICACHE_SWEEP_KB],
        rows,
        summary=summary,
    )


def fig7_icache_block(runner: SuiteRunner | None = None) -> ExperimentResult:
    """Figure 7: BS-ISA slowdown vs a perfect icache (block duplication)."""
    runner = runner or SuiteRunner()
    rows, summary = _icache_figure(runner, "block")
    return ExperimentResult(
        "fig7",
        "Figure 7: Relative execution-time increase over a perfect icache "
        "(block-structured ISA)",
        ["Benchmark"] + [f"{kb}KB" for kb in ICACHE_SWEEP_KB],
        rows,
        summary=summary,
    )


#: Registry used by the CLI and the benchmark harness.
ALL_EXPERIMENTS = {
    "table1": table1_latencies,
    "table2": table2_benchmarks,
    "fig3": fig3_performance,
    "fig4": fig4_perfect_bp,
    "fig5": fig5_block_sizes,
    "fig6": fig6_icache_conventional,
    "fig7": fig7_icache_block,
}
