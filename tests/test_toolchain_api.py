"""Public API tests: repro.core compiles, ExperimentEngine.compare runs."""

import dataclasses

import pytest

from repro.core import (
    Toolchain,
    compile_block_structured,
    compile_conventional,
    compile_pair,
)
from repro.backend.enlarge import EnlargeConfig
from repro.engine import ExperimentEngine
from repro.errors import ReproError, TypeCheckError
from repro.obs import Telemetry
from repro.sim.config import MachineConfig
from repro.sim.run import capture_run, replay_captured
from tests.conftest import FEATURE_PROGRAM

SMALL = """
int g;
void main() {
    int i;
    for (i = 0; i < 40; i = i + 1) {
        if (i % 3 == 0) { g = g + i; } else { g = g + 1; }
    }
    print_int(g);
}
"""


def test_compile_pair_produces_both_isas():
    pair = compile_pair(SMALL, "small")
    assert pair.conventional.code_bytes > 0
    assert pair.block.code_bytes > 0
    assert pair.name == "small"


def test_one_shot_helpers():
    conv = compile_conventional(SMALL)
    block = compile_block_structured(SMALL)
    assert conv.entry_label == "_start"
    assert block.entry_label == "_start"


def test_compare_runs_and_matches():
    cmp = ExperimentEngine().compare("small", MachineConfig(), SMALL)
    assert cmp.outputs_match
    assert cmp.conventional.cycles > 0
    assert cmp.block.cycles > 0
    assert cmp.speedup == pytest.approx(
        cmp.conventional.cycles / cmp.block.cycles
    )
    assert cmp.reduction_pct == pytest.approx(
        100 * (1 - cmp.block.cycles / cmp.conventional.cycles)
    )


def test_compare_perfect_vs_real_prediction():
    engine = ExperimentEngine()
    real = engine.compare("program", MachineConfig(), SMALL)
    perfect = engine.compare("program", MachineConfig(perfect_bp=True), SMALL)
    assert perfect.conventional.cycles <= real.conventional.cycles
    assert perfect.block.mispredicts == 0
    assert real.conventional.bp_accuracy <= 1.0


def test_compare_derives_perfect_prediction():
    """A perfect-prediction comparison executes each image once, under
    real prediction, and derives both perfect runs from those captures;
    the results equal a direct perfect capture replayed on the scalar
    kernel."""
    tel = Telemetry()
    engine = ExperimentEngine(telemetry=tel)
    config = MachineConfig(perfect_bp=True)
    cmp = engine.compare("feature", config, FEATURE_PROGRAM)
    assert tel.metrics.get("plan.trace_captures") == 2
    assert sum(r.name == "sim.derive" for r in tel.spans.records) == 2
    pair = engine.compiled("feature", FEATURE_PROGRAM)
    # Comparison's two fields are named after the ISAs
    for isa, result in dataclasses.asdict(cmp).items():
        direct = replay_captured(
            capture_run(getattr(pair, isa), isa, config), config,
            kernel="python",
        )
        assert result == dataclasses.asdict(direct), isa


def test_toolchain_opt_levels_same_outputs():
    results = {}
    engine = ExperimentEngine()
    for level in (0, 1, 2):
        cmp = engine.compare(
            "small", source=SMALL, toolchain=Toolchain(opt_level=level)
        )
        results[level] = (
            cmp.conventional.outputs,
            cmp.conventional.committed_ops,
        )
    outs = {tuple(v[0]) for v in results.values()}
    assert len(outs) == 1
    # optimization removes work: fewer dynamic architectural ops
    assert results[2][1] <= results[0][1]


def test_enlarge_config_threads_through():
    toolchain = Toolchain(enlarge=EnlargeConfig(enabled=False))
    pair = toolchain.compile(SMALL, "plain")
    assert all(len(b.path) == 1 for b in pair.block.blocks)


def test_compile_errors_are_repro_errors():
    with pytest.raises(TypeCheckError):
        compile_pair("void main() { undefined_var = 1; }")
    with pytest.raises(ReproError):
        compile_pair("not a program at all")


def test_code_expansion_reported(feature_pair):
    assert 1.0 < feature_pair.code_expansion < 4.0


def test_sim_result_fields(feature_pair):
    cmp = ExperimentEngine().compare("feature", source=FEATURE_PROGRAM)
    r = cmp.block
    assert r.isa == "block"
    assert r.committed_units > 0
    assert r.avg_block_size > 0
    assert 0.0 <= r.bp_accuracy <= 1.0
    assert r.ipc == pytest.approx(r.committed_ops / r.cycles)
    assert r.static_code_bytes == feature_pair.block.code_bytes
