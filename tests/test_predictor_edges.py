"""Predictor edge cases.

Two corners the regular benchmarks never isolate: a program with zero
dynamic branch events (every rate/accuracy must degrade to 0.0, not
divide by zero), and a loop whose enlarged block holds an always-false
interior branch — the cold weakly-taken PHT predicts the taken variant,
so the first visit faults and squashes.
"""

from __future__ import annotations

import pytest

from repro.check import CosimChecker, check_invariants
from repro.engine import ExperimentEngine, RunSpec
from repro.exec import interpret_module
from repro.sim.config import MachineConfig

#: Straight-line code: no BR op is ever executed on either ISA.
ZERO_BRANCH_PROGRAM = """
int g = 5;
void main() {
int a = 3;
g = g + a;
print_int(g);
print_int(g * a);
}
"""

#: The interior `if` is false on every iteration, but the cold
#: predictor's weakly-taken counters predict the taken variant of the
#: enlarged loop block, so its first visit fault-squashes.
COLD_FAULT_PROGRAM = """
int g = 0;
void main() {
for (int L0 = 0; L0 < 6; L0 = L0 + 1) {
if (L0 > 50) {
g = g + 100;
}
g = g + 1;
}
print_int(g);
}
"""


class Program:
    """One of the programs above, compiled and run by one engine."""

    def __init__(self, source: str, name: str):
        self.engine = ExperimentEngine()
        self.source, self.name = source, name

    @property
    def module(self):
        return self.engine.compiled(self.name, self.source).module

    def run(self, isa: str, config: MachineConfig | None = None):
        return self.engine.run(
            RunSpec(self.name, isa, config or MachineConfig(), self.source)
        )


@pytest.fixture(scope="module")
def zero_branch():
    return Program(ZERO_BRANCH_PROGRAM, "zerobranch")


@pytest.fixture(scope="module")
def cold_fault():
    return Program(COLD_FAULT_PROGRAM, "coldfault")


class TestZeroBranchProgram:
    def test_conventional_rates_degrade_to_zero(self, zero_branch):
        result = zero_branch.run("conventional")
        assert result.branch_events == 0
        assert result.mispredicts == 0
        assert result.bp_accuracy == 0.0  # zero predictions, not a crash
        assert result.mispredict_rate == 0.0
        assert result.outputs == interpret_module(zero_branch.module)

    def test_block_rates_degrade_to_zero(self, zero_branch):
        result = zero_branch.run("block")
        assert result.branch_events == 0
        assert result.mispredicts == 0
        assert result.mispredict_rate == 0.0
        assert result.squashed_blocks == 0

    def test_invariants_hold_with_zero_branches(self, zero_branch):
        config = MachineConfig()
        cmp = zero_branch.engine.compare(
            zero_branch.name, config, zero_branch.source
        )
        for result in (cmp.conventional, cmp.block):
            assert check_invariants(result, config) == []

    def test_cosim_matrix_passes(self):
        report = CosimChecker().check_source(
            ZERO_BRANCH_PROGRAM, "zerobranch"
        )
        assert report.ok, report.summary()


class TestColdSuccessorFaults:
    def test_first_visit_faults_and_squashes(self, cold_fault):
        result = cold_fault.run("block")
        assert result.fault_mispredicts > 0
        assert result.squashed_blocks == result.fault_mispredicts
        assert result.timing.squashed_ops > 0

    def test_outputs_survive_squashes(self, cold_fault):
        result = cold_fault.run("block")
        assert result.outputs == interpret_module(cold_fault.module)
        assert check_invariants(result, MachineConfig()) == []

    def test_perfect_prediction_never_faults(self, cold_fault):
        config = MachineConfig(perfect_bp=True)
        result = cold_fault.run("block", config)
        assert result.fault_mispredicts == 0
        assert result.squashed_blocks == 0
        assert result.timing.squashed_ops == 0
        assert check_invariants(result, config) == []

    def test_cosim_matrix_passes(self):
        report = CosimChecker().check_source(COLD_FAULT_PROGRAM, "coldfault")
        assert report.ok, report.summary()
