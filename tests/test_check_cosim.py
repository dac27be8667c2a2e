"""Cosimulation oracle: clean programs pass the full matrix, broken
layers are localized, and telemetry is wired."""

from __future__ import annotations

import pytest

from repro.backend.enlarge import EnlargeConfig
from repro.check import CosimChecker, Fuzzer, cosim
from repro.obs import Telemetry
from repro.sim.config import MachineConfig
from repro.sim.engine import TimingEngine
from repro.sim.packed import F_SQUASHED

from tests.conftest import FEATURE_PROGRAM

SMALL_PROGRAM = """
int g = 7;
int arr[8];
void main() {
for (int L0 = 0; L0 < 5; L0 = L0 + 1) {
if (L0 > 2) {
g = g + L0;
arr[3] = g;
}
}
print_int(g + arr[3]);
}
"""


class TestCleanPrograms:
    def test_small_program_passes(self):
        report = CosimChecker().check_source(SMALL_PROGRAM, "small")
        assert report.ok, report.summary()
        # 3 enlargement variants x 2 machine configs
        assert report.configurations == 6

    def test_feature_program_passes(self):
        report = CosimChecker().check_source(FEATURE_PROGRAM, "feature")
        assert report.ok, report.summary()

    def test_custom_matrix(self):
        checker = CosimChecker(
            enlarge_variants=(EnlargeConfig(),),
            machine_configs=(MachineConfig(perfect_bp=True),),
        )
        report = checker.check_source(SMALL_PROGRAM, "small")
        assert report.ok
        assert report.configurations == 1

    def test_summary_mentions_ok(self):
        report = CosimChecker().check_source(SMALL_PROGRAM, "small")
        assert "ok" in report.summary()


class TestBrokenPrograms:
    def test_invalid_source_is_reported_not_raised(self):
        report = CosimChecker().check_source("int int int", "garbage")
        assert not report.ok
        assert {v.invariant for v in report.violations} == {
            "cosim.invalid_program"
        }

    def test_injected_accounting_bug_is_caught(self, monkeypatch):
        """Dropping squashed_ops on the engine path (the ISSUE's demo
        bug) must trip ops_conservation, nothing architectural."""
        orig = TimingEngine.run_packed

        def buggy(self, trace):
            stats = orig(self, trace)
            stats.squashed_ops = 0
            return stats

        monkeypatch.setattr(TimingEngine, "run_packed", buggy)
        report = CosimChecker().check_source(SMALL_PROGRAM, "buggy")
        assert not report.ok
        names = {v.invariant for v in report.violations}
        assert "ops_conservation" in names
        assert "cosim.timed_outputs" not in names

    def test_injected_trace_corruption_is_caught(self, monkeypatch):
        """A trace capture that mislabels a squashed unit as clean
        must be caught by the retired-stream / conservation checks."""
        orig = cosim.capture_run
        tampered = []

        def tamper(*args, **kwargs):
            captured = orig(*args, **kwargs)
            flags = captured.trace.unit_flags
            for u, bits in enumerate(flags):
                if bits & F_SQUASHED:
                    flags[u] = bits & ~F_SQUASHED
                    tampered.append(u)
            return captured

        monkeypatch.setattr(cosim, "capture_run", tamper)
        report = CosimChecker().check_source(SMALL_PROGRAM, "tampered")
        assert tampered, "the capture had no squashed unit to mislabel"
        assert not report.ok

    def test_crash_becomes_violation(self, monkeypatch):
        def boom(self, trace):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(TimingEngine, "run_packed", boom)
        report = CosimChecker().check_source(SMALL_PROGRAM, "crash")
        assert not report.ok
        assert report.violations[0].invariant == "cosim.crash"
        assert "engine exploded" in report.violations[0].message


class TestPerfectDerivation:
    def test_every_enlargement_variant_is_derived(self, monkeypatch):
        """The oracle derives the perfect run from the real-prediction
        block capture of each enlargement variant and finds it equal to
        the direct capture."""
        derived = []

        def counting(*args, **kwargs):
            derived.append(args[0].name)
            return orig(*args, **kwargs)

        orig = cosim.derive_perfect_bp
        monkeypatch.setattr(cosim, "derive_perfect_bp", counting)
        report = CosimChecker().check_source(SMALL_PROGRAM, "small")
        assert report.ok, report.summary()
        assert len(derived) == 3

    def test_shifted_uid_is_caught_and_shrinks(self, monkeypatch, tmp_path):
        """Shift one uid of every derived run and the fuzzer must (a)
        flag it as cosim.perfect_derivation and (b) delta-debug the
        reproducer to <= 15 lines."""
        orig = cosim.derive_perfect_bp

        def shifted(*args, **kwargs):
            run = orig(*args, **kwargs)
            run.trace.op_uid[-1] += 1
            return run

        monkeypatch.setattr(cosim, "derive_perfect_bp", shifted)
        fuzzer = Fuzzer(
            checker=CosimChecker(), corpus_dir=str(tmp_path), shrink=True
        )
        result = fuzzer.run(3, seed=3)
        assert not result.ok, "a shifted uid escaped the oracle"
        for failure in result.failures:
            invariants = {v.invariant for v in failure.violations}
            assert invariants == {"cosim.perfect_derivation"}, invariants
            assert failure.reproducer_lines <= 15, failure.reproducer


class TestTelemetry:
    def test_programs_and_spans(self):
        tel = Telemetry()
        checker = CosimChecker(telemetry=tel)
        checker.check_source(SMALL_PROGRAM, "a")
        checker.check_source(SMALL_PROGRAM, "b")
        assert tel.metrics.get("check.programs") == 2
        spans = [s for s in tel.spans.records if s.name == "check.cosim"]
        assert len(spans) == 2
        assert spans[0].labels == {"program": "a"}

    def test_violations_counted_by_invariant(self, monkeypatch):
        orig = TimingEngine.run_packed

        def buggy(self, trace):
            stats = orig(self, trace)
            stats.squashed_ops = 0
            return stats

        monkeypatch.setattr(TimingEngine, "run_packed", buggy)
        tel = Telemetry()
        report = CosimChecker(telemetry=tel).check_source(SMALL_PROGRAM, "x")
        count = tel.metrics.get(
            "check.violations", invariant="ops_conservation"
        )
        expected = sum(
            1 for v in report.violations if v.invariant == "ops_conservation"
        )
        assert count == expected > 0
        assert tel.metrics.get("check.failed_programs") == 1

    def test_oracle_does_not_publish_sim_series(self):
        # Per-program sim.* labels would grow a fuzz session's registry
        # without bound; the oracle must keep its simulations silent.
        tel = Telemetry()
        CosimChecker(telemetry=tel).check_source(SMALL_PROGRAM, "quiet")
        names = {e["name"] for e in tel.metrics.snapshot()}
        assert not any(n.startswith("sim.") for n in names)
