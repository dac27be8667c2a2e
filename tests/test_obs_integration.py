"""Integration tests: telemetry wired through toolchain, sim, and CLI."""

import json

import pytest

from repro.engine import ExperimentEngine, RunSpec
from repro.errors import ConfigError
from repro.harness.cli import main as cli_main
from repro.harness.experiments import SuiteRunner, default_scale
from repro.obs import Telemetry, document_errors
from repro.sim.config import MachineConfig
from repro.sim.engine import TimingStats
from repro.sim.run import SimResult

SCALE = 0.05


@pytest.fixture(scope="module")
def telemetry_run():
    """One small compile+simulate with an injected telemetry session."""
    tel = Telemetry()
    cmp = ExperimentEngine(scale=SCALE, telemetry=tel).compare("compress")
    return tel, cmp.conventional, cmp.block


class TestSimTelemetry:
    def test_compile_phase_spans_present(self, telemetry_run):
        tel, _, _ = telemetry_run
        names = {r.name for r in tel.spans.records}
        for expected in (
            "frontend.lex", "frontend.parse", "frontend.semantic",
            "frontend.lower", "opt.pipeline", "opt.dce", "opt.cse",
            "backend.regalloc", "backend.enlarge", "backend.encode",
            "compile", "sim.simulate",
        ):
            assert expected in names, f"missing span {expected}"

    def test_sim_counters_match_timing_stats(self, telemetry_run):
        tel, conv, block = telemetry_run
        for result in (conv, block):
            labels = {"benchmark": "compress", "isa": result.isa}
            assert tel.metrics.get("sim.cycles", **labels) == result.cycles
            assert (
                tel.metrics.get("sim.icache_misses", **labels)
                == result.timing.icache_misses
            )
            assert (
                tel.metrics.get("sim.redirects", **labels)
                == result.timing.redirects
            )

    def test_block_squash_counters_published(self, telemetry_run):
        tel, _, block = telemetry_run
        labels = {"benchmark": "compress", "isa": "block"}
        assert (
            tel.metrics.get("sim.squashed_blocks", **labels)
            == block.squashed_blocks
        )
        assert (
            tel.metrics.get("sim.squashed_ops", **labels)
            == block.timing.squashed_ops
        )

    def test_opt_pass_metrics_published(self, telemetry_run):
        tel, _, _ = telemetry_run
        # The compress workload always has dead code / redundancy to clean.
        assert tel.metrics.total("opt.ops_removed") > 0
        assert tel.metrics.total("opt.pass_changed") > 0

    def test_trace_has_fetch_and_retire_events(self, telemetry_run):
        tel, _, _ = telemetry_run
        counts = tel.trace.counts()
        assert counts.get("fetch", 0) > 0
        assert counts.get("retire", 0) > 0
        assert len(tel.trace) >= 1

    def test_document_validates(self, telemetry_run):
        tel, _, _ = telemetry_run
        doc = tel.to_document(meta={"command": "pytest"})
        assert document_errors(doc) == []

    def test_disabled_session_stays_empty(self):
        tel = Telemetry(enabled=False)
        ExperimentEngine(scale=SCALE, telemetry=tel).run(
            RunSpec("compress", "conventional", MachineConfig())
        )
        assert len(tel.metrics) == 0
        assert len(tel.spans) == 0
        assert len(tel.trace) == 0

    def test_suite_runner_injection(self):
        tel = Telemetry()
        runner = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], telemetry=tel
        )
        runner.run("compress", "block", MachineConfig())
        assert tel.metrics.get(
            "sim.cycles", benchmark="compress", isa="block"
        ) > 0
        assert any(r.name == "suite.compile" for r in tel.spans.records)


class TestRatioGuards:
    def test_timing_stats_zero_access_rates(self):
        stats = TimingStats()
        assert stats.icache_miss_rate == 0.0
        assert stats.dcache_miss_rate == 0.0
        assert stats.squash_rate == 0.0
        assert stats.ipc == 0.0

    def test_sim_result_zero_access_rates(self):
        result = SimResult(
            name="empty", isa="block", cycles=0, committed_ops=0,
            committed_units=0, avg_block_size=0.0, mispredicts=0,
            branch_events=0, bp_accuracy=0.0, timing=TimingStats(),
        )
        assert result.icache_miss_rate == 0.0
        assert result.dcache_miss_rate == 0.0
        assert result.mispredict_rate == 0.0
        assert result.ipc == 0.0


class TestDefaultScaleValidation:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert default_scale() == 1.0

    def test_valid_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert default_scale() == 0.25

    @pytest.mark.parametrize("bad", ["abc", "", "0", "-1", "nan", "inf"])
    def test_invalid_values_raise_repro_error(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SCALE", bad)
        with pytest.raises(ConfigError):
            default_scale()


class TestCli:
    def test_simulate_metrics_json(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = cli_main(
            ["simulate", "compress", "--scale", str(SCALE),
             "--metrics-json", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert document_errors(doc) == []
        assert doc["meta"]["workload"] == "compress"
        # per-phase compile spans
        span_names = {s["name"] for s in doc["spans"]}
        assert "frontend.parse" in span_names
        assert "backend.enlarge" in span_names
        # labeled sim counters
        names = {
            (m["name"], m["labels"].get("isa")) for m in doc["metrics"]
        }
        assert ("sim.cycles", "block") in names
        assert ("sim.redirects", "conventional") in names
        # at least one ring-buffer sample
        assert len(doc["trace"]["events"]) >= 1

    def test_metrics_subcommand(self, capsys):
        rc = cli_main(["metrics", "compress", "--scale", str(SCALE)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sim.cycles{benchmark=compress,isa=block}" in out
        assert "bp.accuracy" in out

    def test_trace_subcommand_stdout(self, capsys):
        rc = cli_main(
            ["trace", "compress", "--scale", str(SCALE), "--limit", "7"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7
        for line in lines:
            event = json.loads(line)
            assert event["event"] in {
                "fetch", "icache_miss", "redirect", "fault_squash", "retire"
            }

    def test_trace_subcommand_file(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        rc = cli_main(
            ["trace", "compress", "--scale", str(SCALE),
             "--capacity", "64", "--jsonl", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 64
        json.loads(lines[-1])

    def test_run_metrics_json(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        rc = cli_main(
            ["run", "table1", "--scale", str(SCALE),
             "--metrics-json", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert document_errors(doc) == []
        assert doc["meta"]["experiments"] == ["table1"]
