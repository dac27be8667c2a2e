"""Run planning: collect declared specs, deduplicate, build one plan.

Experiments overlap heavily — Figure 3 and Figure 5 share every
default-config run, Figures 6 and 7 share the perfect-icache baselines
with each other and the 64 KB points with Figure 3. The planner makes
that sharing explicit: it gathers each experiment's declared
:class:`~repro.engine.spec.RunSpec` list, deduplicates by spec identity
(the full machine config and toolchain), and produces a
:class:`RunPlan` whose ``runs_total``/``runs_deduped`` pair quantifies
the saved work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.spec import RunSpec


@dataclass(frozen=True)
class RunPlan:
    """A deduplicated, ordered set of runs for one engine execution."""

    experiments: tuple[str, ...]
    runs: tuple[RunSpec, ...]
    #: declared (pre-dedup) run count across all experiments
    runs_total: int
    scale: float = 1.0

    @property
    def runs_deduped(self) -> int:
        return len(self.runs)

    @property
    def runs_saved(self) -> int:
        return self.runs_total - len(self.runs)

    def benchmarks(self) -> tuple[str, ...]:
        """Benchmarks referenced by the plan, first-seen order."""
        seen: dict[str, None] = {}
        for spec in self.runs:
            seen.setdefault(spec.benchmark, None)
        return tuple(seen)


def build_plan(
    declarations: Iterable[tuple[str, Sequence[RunSpec]]],
    scale: float = 1.0,
) -> RunPlan:
    """Fold per-experiment ``(name, specs)`` declarations into one plan.

    Dedup preserves first-declaration order, so plan execution (and the
    telemetry merged from it) is deterministic for a given experiment
    selection.
    """
    names: list[str] = []
    deduped: dict[RunSpec, None] = {}
    total = 0
    for name, specs in declarations:
        names.append(name)
        for spec in specs:
            total += 1
            deduped.setdefault(spec, None)
    return RunPlan(
        experiments=tuple(names),
        runs=tuple(deduped),
        runs_total=total,
        scale=scale,
    )
