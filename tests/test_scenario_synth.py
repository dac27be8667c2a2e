"""Unit tests for the scenario synthesis layer (docs/scenarios.md).

Covers the spec validation surface, the axis measurement primitives
(static block histogram, dynamic hot footprint), the measure-and-retry
loop's determinism and honesty, and the :class:`GenConfig` range
validation that replaced the silent ``switch_arms`` cap.
"""

from __future__ import annotations

import random

import pytest

from repro.check.genprog import GenConfig, ProgramBuilder, generate_program
from repro.errors import ConfigError
from repro.isa.program import LINE_BYTES
from repro.obs import Telemetry, use_telemetry
from repro.scenario.spec import ScenarioSpec, SynthParams
from repro.scenario.sweep import sweep_cell
from repro.scenario.synth import (
    generate_source,
    hot_footprint_bytes,
    measure_axes,
    static_block_histogram,
    synthesize,
)
from tests.conftest import compile_cached

SMALL_SPEC = ScenarioSpec(bb_size=4, bias=0.6, hot_bytes=1024)


# -- ScenarioSpec ------------------------------------------------------


def test_spec_is_frozen_and_hashable():
    spec = ScenarioSpec(bb_size=8, bias=0.9, hot_bytes=16384)
    assert spec == ScenarioSpec(bb_size=8, bias=0.9, hot_bytes=16384)
    assert hash(spec) == hash(ScenarioSpec(bb_size=8, bias=0.9,
                                           hot_bytes=16384))
    with pytest.raises(Exception):
        spec.bb_size = 9  # type: ignore[misc]


def test_spec_family_name_encodes_axes():
    spec = ScenarioSpec(bb_size=8, bias=0.90, hot_bytes=16384)
    assert spec.family_name == "synthetic/bb8_bias90_fit16k"
    sub_kib = ScenarioSpec(bb_size=3, bias=0.55, hot_bytes=1500)
    assert sub_kib.family_name == "synthetic/bb3_bias55_fit1500b"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(bb_size=1, bias=0.6, hot_bytes=2048),
        dict(bb_size=25, bias=0.6, hot_bytes=2048),
        dict(bb_size=8, bias=0.3, hot_bytes=2048),
        dict(bb_size=8, bias=1.5, hot_bytes=2048),
        dict(bb_size=8, bias=0.6, hot_bytes=100),
        dict(bb_size=8, bias=0.6, hot_bytes=2048, seed=-1),
    ],
)
def test_spec_rejects_out_of_range_axes(kwargs):
    with pytest.raises(ConfigError) as excinfo:
        ScenarioSpec(**kwargs)
    assert "ScenarioSpec" in str(excinfo.value)


# -- measurement primitives -------------------------------------------


def test_static_block_histogram_counts_every_op():
    pair = compile_cached(
        "void main() { int x = 3;\n"
        "if (x > 1) { x = x + 1; } else { x = x - 1; }\n"
        "print_int(x); }",
        "hist",
    )
    hist = static_block_histogram(pair.conventional)
    assert sum(size * count for size, count in hist.items()) == len(
        pair.conventional.ops
    )
    assert all(size > 0 for size in hist)


def test_hot_footprint_covers_the_hot_lines():
    class FakeTrace:
        # 90% of fetches hit line 0; line 1000 is a cold tail.
        unit_addr = [0] * 90 + [1000 * LINE_BYTES] * 10
        unit_size = [4] * 100

    assert hot_footprint_bytes(FakeTrace(), coverage=0.9) == LINE_BYTES
    assert hot_footprint_bytes(FakeTrace(), coverage=1.0) == 2 * LINE_BYTES


def test_measure_axes_reports_all_fields():
    params = SynthParams(run_len=2, n_branches=2, copies=2)
    axes = measure_axes(generate_source(SMALL_SPEC, params))
    assert axes.mean_bb_ops > 0
    assert axes.branch_events > 0
    assert 0.0 <= axes.mispredict_rate <= 1.0
    assert axes.hot_bytes > 0
    assert axes.static_code_bytes > 0
    assert axes.block_code_bytes >= axes.static_code_bytes
    assert dict(axes.bb_hist)


# -- synthesis ---------------------------------------------------------


def test_synthesize_is_deterministic_and_honest():
    first = synthesize.__wrapped__(SMALL_SPEC, 3)
    second = synthesize.__wrapped__(SMALL_SPEC, 3)
    assert first.realized == second.realized
    assert first.params == second.params
    # the report is re-measurable: regenerating the source from the
    # shipped params measures the exact same axes
    again = measure_axes(generate_source(SMALL_SPEC, first.params))
    assert again == first.realized


def test_synthesize_scale_changes_trips_not_shape():
    result = synthesize(SMALL_SPEC, 2)
    small = generate_source(SMALL_SPEC, result.params, 0.05)
    large = generate_source(SMALL_SPEC, result.params, 1.0)
    assert small != large  # trip count differs...
    # ...but only the trip count: same line structure otherwise
    diff = [
        (a, b)
        for a, b in zip(small.splitlines(), large.splitlines())
        if a != b
    ]
    assert len(diff) == 1 and "for (i = 0" in diff[0][0]


@pytest.mark.parametrize(
    "scale, extra_captures, extra_compiles", [(1.0, 1, 0), (0.5, 2, 1)]
)
def test_sweep_cell_reuses_its_chosen_attempt(
    scale, extra_captures, extra_compiles
):
    """Synthesis and the cell share one engine. At scale 1.0 the cell
    runs the attempt it chose: only the BS-ISA capture is new. At any
    other scale the cell's program is new: one more compile, and a
    capture per ISA."""
    tel = Telemetry()
    cell = sweep_cell(SMALL_SPEC, [4, 64], scale=scale, budget=2,
                      telemetry=tel)
    attempts = cell["attempts"]
    assert tel.metrics.get("plan.trace_captures") == attempts + extra_captures
    compiles = tel.spans.totals()["suite.compile"]["count"]
    assert compiles == attempts + extra_compiles


def test_synthesize_records_nothing_on_the_callers_session():
    with use_telemetry() as tel:
        synthesize.__wrapped__(SMALL_SPEC, 2)
    assert tel.spans.totals() == {} and not tel.metrics.series()


def test_synthesize_converges_near_targets():
    spec = ScenarioSpec(bb_size=8, bias=0.75, hot_bytes=4096)
    result = synthesize(spec)
    axes = result.realized
    assert 0.5 <= axes.mean_bb_ops / spec.bb_size <= 2.0
    assert 0.5 <= axes.hot_bytes / spec.hot_bytes <= 2.0


# -- GenConfig validation (the silent switch_arms cap is gone) ---------


def test_genconfig_rejects_switch_arms_over_8():
    with pytest.raises(ConfigError) as excinfo:
        GenConfig(switch_arms=9)
    message = str(excinfo.value)
    assert "switch_arms" in message and "0..8" in message


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(array_ops=-1),
        dict(array_ops=65),
        dict(struct_depth=-2),
        dict(struct_depth=9),
        dict(switch_arms=-1),
        dict(hot_loop_ops=-5),
        dict(hot_loop_ops=70000),
        dict(branch_bias=-0.1),
        dict(branch_bias=1.01),
        dict(branch_bias="high"),
    ],
)
def test_genconfig_rejects_out_of_range_knobs(kwargs):
    with pytest.raises(ConfigError):
        GenConfig(**kwargs)


def test_genconfig_switch_arms_8_is_honored_not_clamped():
    # arms == 8 is the documented maximum and must generate fine
    cfg = GenConfig(switch_arms=8)
    source = generate_program(random.Random(3), cfg)
    assert compile_cached(source, "arms8").conventional.ops


def test_genconfig_default_draw_sequence_unchanged():
    """New knobs must not disturb default-config program generation:
    fuzz seeds keep reproducing the same corpus (docs/testing.md)."""
    base = generate_program(random.Random(123))
    explicit = generate_program(
        random.Random(123),
        GenConfig(array_ops=2, struct_depth=2, switch_arms=4),
    )
    assert base == explicit
    assert "hx" not in base  # hot loop absent unless the knob is set


def test_hot_loop_knob_scales_footprint():
    small = generate_program(
        random.Random(5), GenConfig(hot_loop_ops=100)
    )
    large = generate_program(
        random.Random(5), GenConfig(hot_loop_ops=2000)
    )
    n_small = len(compile_cached(small, "hot100").conventional.ops)
    n_large = len(compile_cached(large, "hot2000").conventional.ops)
    assert n_large > n_small + 1000


def test_branch_bias_knob_biases_generated_ifs():
    source = generate_program(
        random.Random(5), GenConfig(branch_bias=0.9, hot_loop_ops=300)
    )
    # the biased comparison shape with the 0.9 threshold (921/1024)
    assert "& 1023) < 922" in source or "& 1023) < 921" in source


def test_builder_straight_run_is_one_line_per_statement():
    builder = ProgramBuilder.from_random(random.Random(1))
    run = builder.straight_run("x", "r", 5)
    assert len(run) == 5
    assert all(line.startswith("x = ") for line in run)
    light = builder.straight_run("x", "r", 3, light=True)
    assert len(light) == 3
