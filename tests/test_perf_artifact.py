"""``bsisa perf``: the BENCH_sim.json artifact is schema-valid, its
vector and batched-sweep timings come with a bit-identity guarantee
against the scalar replay, and the tracecache metric series reach the
registry."""

from __future__ import annotations

import json

import pytest

from repro.engine import ExperimentEngine, RunSpec
from repro.harness.cli import main
from repro.harness.perf import benchmark_suite, render, write_document
from repro.obs import Telemetry
from repro.obs.schema import (
    BENCH_SCHEMA_ID,
    bench_document_errors,
)
from repro.sim import vector
from repro.sim.config import MachineConfig
from repro.sim.tracecache import replay_with_trace_cache

SCALE = 0.05


def test_document_is_schema_valid_and_stats_match(tmp_path):
    doc = benchmark_suite(["compress"], SCALE)
    assert doc["schema"] == BENCH_SCHEMA_ID
    assert bench_document_errors(doc) == []
    assert doc["totals"]["stats_match"] is True
    assert {e["isa"] for e in doc["benchmarks"]} == {
        "conventional",
        "block",
    }
    path = tmp_path / "BENCH_sim.json"
    write_document(doc, str(path))
    assert bench_document_errors(json.loads(path.read_text())) == []
    table = render(doc)
    assert "compress" in table and "ok" in table


def test_bench_schema_rejects_malformed():
    doc = benchmark_suite(["compress"], SCALE)
    doc["benchmarks"][0]["capture_s"] = -1
    doc["benchmarks"][1]["sweep_match"] = "yes"
    doc["totals"].pop("replay_s")
    errors = bench_document_errors(doc)
    assert len(errors) == 3
    assert bench_document_errors([]) == ["document must be a JSON object"]


@pytest.mark.skipif(not vector.HAVE_NUMPY, reason="numpy not installed")
def test_vector_fallbacks_count_declined_replays():
    """A replay the kernel declines runs on the scalar loop, so its
    vector_match reads true; vector_fallbacks counts it. compress has
    conventional units longer than an 8-op window, which the
    conventional kernel declines and the BS-ISA kernel replays."""
    doc = benchmark_suite(
        ["compress"], SCALE, MachineConfig(window_ops=8), kernel="numpy"
    )
    assert bench_document_errors(doc) == []
    assert doc["totals"]["stats_match"] is True
    conv, block = doc["benchmarks"]
    # the vector leg, then every sweep point per config and batched
    assert conv["vector_fallbacks"] == 1 + 2 * conv["sweep_points"]
    assert block["vector_fallbacks"] == 0
    assert f"ok ({conv['vector_fallbacks']} scalar)" in render(doc)
    for bad in (-1, 1.0, True, "0"):
        conv["vector_fallbacks"] = bad
        assert bench_document_errors(doc) == [
            "benchmarks[0]: vector_fallbacks must be a non-negative int"
        ]


def test_perf_spans_recorded_with_enabled_telemetry():
    tel = Telemetry()
    benchmark_suite(["compress"], SCALE, telemetry=tel)
    names = [s.name for s in tel.spans.records]
    for phase in (
        "perf.capture", "perf.replay", "perf.sweep_per_config", "perf.sweep"
    ):
        assert names.count(phase) == 2  # one per ISA


def test_cli_perf_compare_rejects_v1_baseline(tmp_path, capsys):
    """A baseline of the previous schema is a usage error naming both
    schema ids, before any benchmark runs."""
    baseline = tmp_path / "BENCH_v1.json"
    baseline.write_text(
        json.dumps(
            {
                "schema": "repro.bench/v1",
                "meta": {"command": "perf"},
                "benchmarks": [
                    {
                        "benchmark": "compress",
                        "isa": "block",
                        "capture_s": 1.0,
                        "replay_s": 1.0,
                        "streaming_s": 1.0,
                        "stats_match": True,
                    }
                ],
                "totals": {"stats_match": True, "speedup_warm": 1.0},
            }
        )
    )
    rc = main(["perf", "--benchmarks", "compress", "--compare", str(baseline)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "repro.bench/v1" in err and BENCH_SCHEMA_ID in err


def test_cli_perf_writes_artifact(tmp_path, capsys):
    out = tmp_path / "BENCH_sim.json"
    rc = main(
        [
            "perf",
            "--benchmarks",
            "compress",
            "--scale",
            str(SCALE),
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    assert bench_document_errors(json.loads(out.read_text())) == []
    assert "compress" in capsys.readouterr().out


def test_cli_perf_rejects_unknown_benchmark():
    assert main(["perf", "--benchmarks", "nosuch"]) == 2


def test_tracecache_publish_reaches_registry():
    captured = ExperimentEngine(scale=SCALE).captured_run(
        RunSpec("compress", "conventional")
    )
    tel = Telemetry()
    _, fetch = replay_with_trace_cache(captured, telemetry=tel)
    # the replay behind the trace cache publishes nothing of its own
    assert {s.name for s in tel.metrics.series()} == {
        "tracecache.lookups", "tracecache.hits", "tracecache.fills",
        "tracecache.merged_units", "tracecache.hit_rate",
    }
    assert tel.metrics.get(
        "tracecache.lookups", benchmark="compress"
    ) == fetch.lookups
    assert tel.metrics.get(
        "tracecache.hits", benchmark="compress"
    ) == fetch.hits
    assert tel.metrics.get(
        "tracecache.fills", benchmark="compress"
    ) == fetch.fills
    assert tel.metrics.get(
        "tracecache.merged_units", benchmark="compress"
    ) == fetch.merged_units
    assert tel.metrics.get(
        "tracecache.hit_rate", benchmark="compress"
    ) == fetch.hit_rate
