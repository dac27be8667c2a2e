"""Measure-and-retry synthesis of scenario programs.

The generator can only *steer* MiniC source toward the axis targets —
the compiler then schedules, enlarges nothing (conventional image), and
encodes, so the realized basic-block sizes and footprint are emergent.
:func:`synthesize` closes the loop: generate, compile, measure
(:func:`measure_axes`), and adjust the generator params within a
bounded attempt budget, keeping the best-scoring attempt. Everything is
a pure function of ``(spec, budget)`` — generator randomness is seeded
from the spec/params key strings, measurement runs at a fixed internal
scale — so regeneration is byte-identical and the realized report is
deterministic.

Program shape (see docs/scenarios.md for the axis mapping):

* ``copies`` hot segment functions, each ``n_branches`` biased
  conditionals guarding ``run_len``-statement straight-line runs —
  ``run_len`` drives the basic-block axis, ``copies`` (at roughly
  constant per-segment size) drives the footprint axis;
* a main loop calling every segment each trip on fresh pseudo-random
  operands — every segment stays hot, and the biased conditions see
  independent bits, so the measured mispredict rate tracks the bias
  axis.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import lru_cache

from repro.check.genprog import GenConfig, ProgramBuilder
from repro.engine.core import ExperimentEngine
from repro.engine.spec import RunSpec
from repro.isa.opcodes import OPCODE_INFO
from repro.isa.program import LINE_BYTES, OP_BYTES, ConventionalProgram
from repro.obs.telemetry import DISABLED
from repro.scenario.spec import (
    RealizedAxes,
    ScenarioSpec,
    SynthParams,
    SynthesisResult,
)
from repro.workloads.base import RNG_FILL, iterations

#: fraction of dynamic fetch mass the hot-region measurement covers —
#: the realized footprint is the smallest set of icache lines holding
#: this share of fetched units.
HOT_COVERAGE = 0.95

#: approximate dynamic machine ops per measurement run (attempt cost).
DYN_BUDGET = 40_000

#: default synthesis attempt budget.
DEFAULT_BUDGET = 6

#: relative tolerance bands that count as "axis hit".
BB_TOL = (0.75, 1.30)
HOT_TOL = (0.70, 1.40)

#: size of the pseudo-random operand pool in ``main``.
DATA_N = 256


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _segment(builder: ProgramBuilder, index: int, params: SynthParams
             ) -> list[str]:
    """One hot segment function: biased conditionals over straight runs.

    Small ``run_len`` switches to the builder's light statement shapes
    and a one-op operand rotation, so the small-block end of the axis
    is reachable (the heavy LCG rotation alone would put a ~7-op floor
    under the mean).
    """
    light = params.run_len <= 2
    rotate = (
        "r = r >> 3;"
        if light
        else "r = ((r * 1103515245) + 12345) & 2147483647;"
    )
    lines = [f"int seg{index}(int x, int r) {{"]
    for _ in range(params.n_branches):
        cond = builder.biased_condition("r")
        lines.append(f"if ({cond}) {{")
        lines.extend(builder.straight_run("x", "r", params.run_len, light))
        if builder.source.booleans():
            lines.append("} else {")
            lines.extend(
                builder.straight_run("x", "r", params.run_len, light)
            )
        lines.append("}")
        # rotate the operand so later conditionals key on fresh bits
        lines.append(rotate)
    lines += ["return x;", "}"]
    return lines


def estimated_segment_ops(params: SynthParams) -> int:
    """Ballpark dynamic machine ops per segment call (trip budgeting)."""
    per_branch = params.run_len * ProgramBuilder.OPS_PER_LINE + 8
    return params.n_branches * per_branch + 8


def generate_source(
    spec: ScenarioSpec, params: SynthParams, scale: float = 1.0
) -> str:
    """Deterministic MiniC source for *spec* at generator *params*.

    Byte-identical for equal ``(spec, params, scale)``: the only
    randomness is a :class:`random.Random` seeded from the spec and
    params key strings. *scale* only changes the main-loop trip count,
    so the static shape (and both axis measurements that depend on it)
    is scale-invariant.
    """
    rng = random.Random(f"repro.scenario|{spec.key()}|{params.key()}")
    builder = ProgramBuilder.from_random(
        rng, GenConfig(branch_bias=spec.bias)
    )
    lines = [
        f"// scenario {spec.family_name} seed={spec.seed}",
        f"// params {params.key()}",
        f"int data_[{DATA_N}];",
        RNG_FILL.strip(),
    ]
    for i in range(params.copies):
        lines.extend(_segment(builder, i, params))
    per_trip = estimated_segment_ops(params) * params.copies
    base_trips = max(12, min(2000, DYN_BUDGET // max(1, per_trip)))
    trips = iterations(base_trips, scale, minimum=4)
    lines += [
        "void main() {",
        f"rng_fill(data_, {DATA_N}, {17 + spec.seed * 2});",
        "int x = 1;",
        "int r = 0;",
        "int i;",
        f"for (i = 0; i < {trips}; i = i + 1) {{",
        f"r = data_[i & {DATA_N - 1}];",
    ]
    for i in range(params.copies):
        lines.append(f"x = seg{i}(x, r);")
        lines.append("r = ((r * 48271) + 11) & 2147483647;")
    lines += ["}", "print_int(x);", "}"]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def static_block_histogram(prog: ConventionalProgram) -> Counter:
    """Static basic-block size histogram (ops per block) of the
    conventional image: blocks start at label addresses and after any
    control-transfer op."""
    leaders = set(prog.label_addrs.values())
    sizes: Counter = Counter()
    count = 0
    for op in prog.ops:
        if op.addr in leaders and count:
            sizes[count] += 1
            count = 0
        count += 1
        if OPCODE_INFO[op.opcode].is_control:
            sizes[count] += 1
            count = 0
    if count:
        sizes[count] += 1
    return sizes


def hot_footprint_bytes(trace, coverage: float = HOT_COVERAGE) -> int:
    """Dynamic hot-region size: bytes in the smallest set of
    ``LINE_BYTES`` icache lines covering *coverage* of fetch-unit mass."""
    line_mass: Counter = Counter()
    unit_addr, unit_size = trace.unit_addr, trace.unit_size
    for i in range(len(unit_addr)):
        addr = unit_addr[i]
        last = addr + max(unit_size[i], 1) - 1
        for line in range(addr // LINE_BYTES, last // LINE_BYTES + 1):
            line_mass[line] += 1
    total = sum(line_mass.values())
    if total == 0:
        return 0
    need = coverage * total
    covered = 0
    hot_lines = 0
    for _, mass in line_mass.most_common():
        covered += mass
        hot_lines += 1
        if covered >= need:
            break
    return hot_lines * LINE_BYTES


def _silent_engine() -> ExperimentEngine:
    # every program it runs comes as source text: scale is never read
    return ExperimentEngine(scale=1.0, telemetry=DISABLED)


def measure_axes(
    source: str,
    name: str = "scenario",
    engine: ExperimentEngine | None = None,
) -> RealizedAxes:
    """Compile *source* and measure all three realized axis values.

    Compiles and captures (default gshare machine config) through
    *engine*, by default a fresh one on a silent session that never
    touches the caller's metrics. The report depends only on the
    source bytes.
    """
    engine = engine if engine is not None else _silent_engine()
    pair = engine.compiled(name, source)
    hist = static_block_histogram(pair.conventional)
    blocks = sum(hist.values())
    total_ops = sum(size * count for size, count in hist.items())
    captured = engine.captured_run(
        RunSpec(name, "conventional", source=source)
    )
    branches = captured.stats.branches
    rate = captured.stats.mispredicts / branches if branches else 0.0
    return RealizedAxes(
        mean_bb_ops=round(total_ops / blocks, 4) if blocks else 0.0,
        bb_hist=tuple(sorted(hist.items())),
        mispredict_rate=round(rate, 4),
        branch_events=branches,
        hot_bytes=hot_footprint_bytes(captured.trace),
        static_code_bytes=pair.conventional.code_bytes,
        block_code_bytes=pair.block.code_bytes,
    )


# ---------------------------------------------------------------------------
# Synthesis loop
# ---------------------------------------------------------------------------


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def _initial_params(spec: ScenarioSpec) -> SynthParams:
    # a straight run of n statements lands in a block of roughly
    # n * OPS_PER_LINE ops, diluted ~2x by compare/join/call glue blocks
    run_len = _clamp(round(spec.bb_size / 2), 1, 16)
    seg_bytes = estimated_segment_ops(
        SynthParams(run_len=run_len, n_branches=4, copies=1)
    ) * OP_BYTES
    copies = _clamp(round(spec.hot_bytes / max(seg_bytes, 1)), 1, 64)
    return SynthParams(run_len=run_len, n_branches=4, copies=copies)


def _score(axes: RealizedAxes, spec: ScenarioSpec) -> float:
    bb_err = axes.mean_bb_ops / spec.bb_size if axes.mean_bb_ops else 9.0
    hot_err = axes.hot_bytes / spec.hot_bytes if axes.hot_bytes else 9.0
    return abs(math.log(bb_err)) + abs(math.log(hot_err))


def _within(axes: RealizedAxes, spec: ScenarioSpec) -> bool:
    bb_err = axes.mean_bb_ops / spec.bb_size if axes.mean_bb_ops else 0.0
    hot_err = axes.hot_bytes / spec.hot_bytes if axes.hot_bytes else 0.0
    return (
        BB_TOL[0] <= bb_err <= BB_TOL[1]
        and HOT_TOL[0] <= hot_err <= HOT_TOL[1]
    )


def _adjust(
    params: SynthParams, axes: RealizedAxes, spec: ScenarioSpec
) -> SynthParams:
    """One deterministic multiplicative correction toward the targets."""
    bb_err = axes.mean_bb_ops / spec.bb_size if axes.mean_bb_ops else 0.5
    hot_err = axes.hot_bytes / spec.hot_bytes if axes.hot_bytes else 0.5
    run_len = _clamp(round(params.run_len / bb_err), 1, 16)
    if run_len == params.run_len and not BB_TOL[0] <= bb_err <= BB_TOL[1]:
        run_len = _clamp(run_len + (1 if bb_err < 1 else -1), 1, 16)
    copies = _clamp(round(params.copies / hot_err), 1, 64)
    if copies == params.copies and not HOT_TOL[0] <= hot_err <= HOT_TOL[1]:
        copies = _clamp(copies + (1 if hot_err < 1 else -1), 1, 64)
    n_branches = params.n_branches
    if copies == 1 and hot_err > HOT_TOL[1]:
        # smallest possible program still too big: shrink the segment
        n_branches = _clamp(round(n_branches / hot_err), 1, 8)
    return SynthParams(run_len=run_len, n_branches=n_branches, copies=copies)


@lru_cache(maxsize=64)
def synthesize(
    spec: ScenarioSpec, budget: int = DEFAULT_BUDGET
) -> SynthesisResult:
    """Converge generator params for *spec* within *budget* attempts.

    Deterministic per ``(spec, budget)``; returns the best-scoring
    attempt (by symmetric log error over the static axes) even when no
    attempt lands inside both tolerance bands, so every family always
    ships with honest realized values. Memoized: workload regeneration
    pays the search once per process, run on a fresh silent engine.
    """
    return search(spec, budget, _silent_engine())


def search(
    spec: ScenarioSpec, budget: int, engine: ExperimentEngine
) -> SynthesisResult:
    """The measure-and-retry loop behind :func:`synthesize`, measuring
    every attempt through *engine* (:func:`measure_axes`)."""
    params = _initial_params(spec)
    best: SynthesisResult | None = None
    history: list[str] = []
    seen = {params}
    attempt = 0
    for attempt in range(1, max(1, budget) + 1):
        source = generate_source(spec, params)
        axes = measure_axes(source, spec.family_name, engine)
        history.append(
            f"attempt {attempt}: {params.key()} -> "
            f"bb={axes.mean_bb_ops} hot={axes.hot_bytes}"
        )
        candidate = SynthesisResult(
            spec=spec, params=params, realized=axes, attempts=attempt
        )
        if best is None or _score(axes, spec) < _score(best.realized, spec):
            best = candidate
        if _within(axes, spec):
            break
        params = _adjust(params, axes, spec)
        if params in seen:
            break
        seen.add(params)
    assert best is not None
    return SynthesisResult(
        spec=best.spec,
        params=best.params,
        realized=best.realized,
        attempts=attempt,
        history=tuple(history),
    )


def family_source(spec: ScenarioSpec, scale: float = 1.0) -> str:
    """The registered-family source: converged params, caller's scale."""
    return generate_source(spec, synthesize(spec).params, scale)
