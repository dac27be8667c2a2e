"""Fetch-rate analytics & cycle accounting (repro.insight).

The contract under test, in order of importance:

1. **Cycle accounting tiles exactly** — ``sum(buckets) == cycles`` for
   every EXPERIMENT_RUNS spec, both ISAs, both replay kernels.
2. **Path-independence** — the scalar replayer and the vector kernel
   produce *bit-identical* ``InsightReport``\\ s.
3. **Worker-merge determinism** — ``--jobs 2`` collects the same
   reports and the same merged ``insight.*`` metric series as a serial
   run.
4. **Artifact stability** — ``repro.insight/v1`` documents round-trip
   through the schema validator and serialize byte-stably.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.engine import ArtifactCache, build_plan
from repro.harness import EXPERIMENT_RUNS, SuiteRunner
from repro.harness.render import ascii_hist, ascii_stack
from repro.insight import (
    InsightCollector,
    InsightReport,
    build_document,
    build_timeline,
    render_report,
    render_reports,
    render_timeline,
    write_document,
)
from repro.obs import Telemetry
from repro.obs.schema import insight_document_errors
from repro.sim.config import MachineConfig
from repro.sim.run import capture_run, predictor_key, replay_captured

from tests.test_packed_trace import BENCHES, SCALE, _matrix_specs, _pair


def _replay(prog, isa, config, **kwargs):
    """Capture *prog* and replay it on the scalar reference kernel."""
    return replay_captured(
        capture_run(prog, isa, config), config, kernel="python", **kwargs
    )


# ---------------------------------------------------------------------------
# Cycle accounting + path-independence over the full experiment matrix
# ---------------------------------------------------------------------------


class TestCycleAccounting:
    def test_accounting_balances_and_paths_agree_for_every_spec(self):
        """The acceptance criterion: for every spec any experiment
        declares, sum(buckets) == cycles on both replay kernels and the
        two kernels' reports are dataclasses-asdict identical (``auto``
        is the vector kernel when numpy is installed)."""
        captures = {}
        for spec in _matrix_specs():
            prog = getattr(_pair(spec.benchmark), spec.isa)
            memo = (spec.benchmark, spec.isa, predictor_key(spec.config))
            if memo not in captures:
                captures[memo] = capture_run(prog, spec.isa, spec.config)

            vector_ins = InsightCollector()
            replayed = replay_captured(
                captures[memo], spec.config, insight=vector_ins
            )
            vectored = vector_ins.report(
                spec.benchmark, spec.isa, spec.config
            )

            scalar_ins = InsightCollector()
            replay_captured(
                captures[memo], spec.config, insight=scalar_ins,
                kernel="python",
            )
            scalar = scalar_ins.report(spec.benchmark, spec.isa, spec.config)

            assert scalar.accounted_cycles == scalar.cycles, spec
            assert vectored.accounted_cycles == vectored.cycles, spec
            assert vectored.cycles == replayed.cycles, spec
            assert dataclasses.asdict(vectored) == dataclasses.asdict(
                scalar
            ), spec

    def test_report_reconciles_with_timing_stats(self):
        """The stack is not a parallel bookkeeping universe: its buckets
        reconstruct the TimingStats stall counters exactly."""
        for isa in ("conventional", "block"):
            prog = getattr(_pair("compress"), isa)
            config = MachineConfig()
            collector = InsightCollector()
            result = _replay(prog, isa, config, insight=collector)
            report = collector.report("compress", isa, config)
            t = result.timing
            assert (
                report.redirect_stall
                + report.squash_recovery
                + report.window_stall
                == t.redirect_stall_cycles
            )
            assert (
                report.icache_stall
                + report.busy_fetch
                - report.fetched_units
                == t.fetch_stall_cycles
            )
            assert report.fetched_ops == t.fetched_ops
            assert report.retired_ops == result.committed_ops

    def test_histogram_mass_identities(self):
        config = MachineConfig()
        collector = InsightCollector()
        _replay(_pair("compress").block, "block", config, insight=collector)
        report = collector.report("compress", "block", config)
        assert sum(report.fetch_hist.values()) == report.busy_fetch
        assert (
            sum(b * c for b, c in report.fetch_hist.items())
            == report.fetched_ops
        )
        assert sum(report.unit_fetched.values()) == report.fetched_units
        assert (
            sum(report.unit_retired.values())
            == report.fetched_units - report.squashed_units
        )

    def test_utilization_is_one_for_conventional(self):
        """Single-op conventional units never partially retire: the
        enlarged-block utilization story only bites on the block ISA."""
        config = MachineConfig()
        collector = InsightCollector()
        _replay(
            _pair("compress").conventional,
            "conventional",
            config,
            insight=collector,
        )
        report = collector.report("compress", "conventional", config)
        assert report.utilization == 1.0
        assert report.squashed_ops == 0


# ---------------------------------------------------------------------------
# Engine integration: jobs, cache, run --insight parity
# ---------------------------------------------------------------------------


def _insight_series(tel: Telemetry) -> list[dict]:
    return [
        e for e in tel.metrics.snapshot() if e["name"].startswith("insight.")
    ]


class TestEngineIntegration:
    def test_parallel_insight_matches_serial(self):
        """--jobs 2 returns the same reports and merges the same
        insight.* metric series as a serial run."""
        serial_tel = Telemetry()
        serial = SuiteRunner(
            scale=SCALE,
            benchmarks=BENCHES,
            telemetry=serial_tel,
            insight=True,
        )
        serial.execute(["fig3", "fig6"])

        par_tel = Telemetry()
        par = SuiteRunner(
            scale=SCALE,
            benchmarks=BENCHES,
            telemetry=par_tel,
            jobs=2,
            insight=True,
        )
        par.execute(["fig3", "fig6"])

        assert set(serial.insights) == set(par.insights)
        for spec, report in serial.insights.items():
            assert dataclasses.asdict(report) == dataclasses.asdict(
                par.insights[spec]
            ), spec
        assert _insight_series(par_tel) == _insight_series(serial_tel)

    def test_insight_cache_round_trip(self, tmp_path):
        """Second session loads every report from disk; a cached result
        with a missing report triggers a cheap re-replay."""
        cache = ArtifactCache(tmp_path / "cache")
        # Session 1: insight OFF — results cached, no reports.
        first = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], cache=cache, insight=False
        )
        first.execute(["fig3"])
        assert first.insights == {}

        # Session 2: insight ON — results hit, reports missing → replay.
        tel2 = Telemetry()
        second = SuiteRunner(
            scale=SCALE,
            benchmarks=["compress"],
            cache=cache,
            telemetry=tel2,
            insight=True,
        )
        second.execute(["fig3"])
        assert len(second.insights) == 2  # 2 ISAs, real BP
        assert tel2.metrics.get("plan.cache_hits", kind="insight") is None
        assert tel2.metrics.get("plan.cache_misses", kind="insight") >= 2

        # Session 3: both artifacts hit, nothing replays.
        tel3 = Telemetry()
        third = SuiteRunner(
            scale=SCALE,
            benchmarks=["compress"],
            cache=cache,
            telemetry=tel3,
            insight=True,
        )
        third.execute(["fig3"])
        assert tel3.metrics.get("plan.cache_hits", kind="insight") == 2
        assert tel3.metrics.get("plan.trace_replays") is None
        for spec, report in second.insights.items():
            assert dataclasses.asdict(report) == dataclasses.asdict(
                third.insights[spec]
            )


# ---------------------------------------------------------------------------
# Schema + artifact stability
# ---------------------------------------------------------------------------


def _one_report(isa: str = "block") -> InsightReport:
    config = MachineConfig()
    collector = InsightCollector()
    _replay(getattr(_pair("compress"), isa), isa, config, insight=collector)
    return collector.report("compress", isa, config)


class TestArtifact:
    def test_report_dict_round_trip(self):
        report = _one_report()
        thawed = InsightReport.from_dict(report.to_dict())
        assert dataclasses.asdict(thawed) == dataclasses.asdict(report)

    def test_document_validates_and_is_byte_stable(self, tmp_path):
        reports = [_one_report("conventional"), _one_report("block")]
        meta = {"command": "test", "scale": SCALE}
        doc = build_document(reports, meta=meta)
        assert insight_document_errors(doc) == []
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_document(doc, a)
        # Reversed input order: the document sorts reports canonically.
        write_document(build_document(reports[::-1], meta=meta), b)
        assert a.read_bytes() == b.read_bytes()
        assert insight_document_errors(json.loads(a.read_text())) == []

    def test_validator_rejects_broken_documents(self):
        report = _one_report()
        good = build_document([report], meta={})

        def broken(**overrides):
            doc = json.loads(json.dumps(good))
            doc["reports"][0].update(overrides)
            return doc

        assert insight_document_errors({"schema": "nope"})
        # Unbalanced stack: sum(buckets) != cycles.
        assert any(
            "cycle accounting" in e
            for e in insight_document_errors(broken(drain=report.drain + 1))
        )
        # Histogram mass detached from busy_fetch.
        assert insight_document_errors(
            broken(fetch_hist={"1": report.busy_fetch + 5})
        )
        # Negative counter.
        assert insight_document_errors(broken(retired_ops=-1))


# ---------------------------------------------------------------------------
# Rendering edge cases
# ---------------------------------------------------------------------------


class TestRendering:
    def test_empty_histogram_and_zero_total_stack(self):
        assert ascii_hist([], title="t") == "t\n(empty)"
        text = ascii_stack([("a", 0.0), ("b", 0.0)], title="t")
        assert "a" in text and "(  0.0%)" in text

    def test_zero_unit_report_renders(self):
        report = InsightReport(
            benchmark="empty",
            isa="block",
            cycles=1,
            busy_fetch=0,
            icache_stall=0,
            redirect_stall=0,
            window_stall=0,
            squash_recovery=0,
            drain=1,
            fetched_units=0,
            squashed_units=0,
            fetched_ops=0,
            retired_ops=0,
            squashed_ops=0,
            fetch_hist={},
            unit_fetched={},
            unit_retired={},
            config=None,
        )
        assert report.accounted_cycles == report.cycles
        assert report.fetch_rate == 0.0
        assert report.utilization == 1.0
        text = render_report(report)
        assert "(empty)" in text
        assert "drain" in text

    def test_render_reports_concatenates(self):
        reports = [_one_report("conventional"), _one_report("block")]
        text = render_reports(reports)
        assert text.count("cycle accounting") == 2

    def test_timeline_handles_empty_window(self):
        assert render_timeline(build_timeline([])) == (
            "(no events in the trace window)"
        )

    def test_timeline_folds_trace_events(self):
        tel = Telemetry(trace_capacity=8192)
        _replay(
            _pair("compress").block, "block", MachineConfig(), telemetry=tel
        )
        rows = build_timeline(tel.trace.events())
        assert rows
        assert all(r.inflight >= 0 for r in rows)
        assert sum(r.fetched_units for r in rows) > 0
        limited = render_timeline(rows, limit=5)
        assert len(limited.splitlines()) == 6  # header + 5 rows


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_analyze_writes_valid_artifact(self, tmp_path, capsys):
        from repro.harness.cli import main

        out = tmp_path / "insight.json"
        rc = main(
            [
                "analyze",
                "--benchmark",
                "compress",
                "--scale",
                str(SCALE),
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert insight_document_errors(doc) == []
        assert len(doc["reports"]) == 2  # both ISAs
        assert "cycle accounting" in capsys.readouterr().out

    def test_analyze_unknown_benchmark_exits_2(self, capsys):
        from repro.harness.cli import main

        assert main(["analyze", "--benchmark", "nonesuch"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_trace_kind_typo_exits_2_with_allowed_list(self, capsys):
        from repro.harness.cli import main
        from repro.obs.events import ALL_EVENT_KINDS

        rc = main(
            ["trace", "compress", "--scale", str(SCALE), "--kind", "bogus"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        for kind in ALL_EVENT_KINDS:
            assert kind in err

    def test_trace_kind_filters_stdout(self, capsys):
        from repro.harness.cli import main

        rc = main(
            [
                "trace",
                "compress",
                "--scale",
                str(SCALE),
                "--kind",
                "retire",
                "--limit",
                "5",
            ]
        )
        assert rc == 0
        lines = [
            l for l in capsys.readouterr().out.splitlines() if l.strip()
        ]
        assert lines
        assert all(json.loads(l)["event"] == "retire" for l in lines)

    def test_timeline_runs(self, capsys):
        from repro.harness.cli import main

        rc = main(
            ["timeline", "compress", "--scale", str(SCALE), "--limit", "8"]
        )
        assert rc == 0
        assert "occupancy" in capsys.readouterr().out

    def test_perf_compare_flags_regression(self, tmp_path, capsys):
        from repro.harness import cli
        from repro.harness.perf import compare_documents

        base = {
            "benchmarks": [
                {
                    "benchmark": "compress",
                    "isa": "block",
                    "capture_s": 1.0,
                    "replay_s": 1.0,
                    "vector_s": 1.0,
                    "sweep_s": 1.0,
                }
            ]
        }
        fast = json.loads(json.dumps(base))
        _, regressions = compare_documents(fast, base)
        assert regressions == []
        # Each phase gates on its own, capture included.
        for phase in ("replay_s", "vector_s", "sweep_s", "capture_s"):
            slow = json.loads(json.dumps(base))
            slow["benchmarks"][0][phase] = 1.5
            _, regressions = compare_documents(slow, base)
            assert len(regressions) == 1
            assert phase in regressions[0]
        # Missing baseline file is a usage error.
        assert (
            cli.main(
                [
                    "perf",
                    "--benchmarks",
                    "compress",
                    "--scale",
                    str(SCALE),
                    "--compare",
                    str(tmp_path / "missing.json"),
                ]
            )
            == cli.EXIT_USAGE
        )

    def test_run_insight_artifact(self, tmp_path, capsys):
        from repro.harness.cli import main

        out = tmp_path / "insight.json"
        rc = main(
            [
                "run",
                "fig3",
                "--scale",
                str(SCALE),
                "--no-cache",
                "--insight",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert insight_document_errors(doc) == []
        assert doc["meta"]["experiments"] == ["fig3"]
