"""The ``bsisa`` exit-code contract (cli.py's module docstring).

0 = success, 1 = operational failure, 2 = usage error, 3 = paper-claim
failure from ``verify-paper``. CI and scripts branch on these, so each
code is pinned here; the expensive verify-paper paths run on a single
tiny benchmark with the claim registry stubbed out.
"""

from __future__ import annotations

import json

import pytest

from repro import fidelity
from repro.errors import ConfigError
from repro.harness import cli
from repro.harness.cli import main
from repro.obs import use_telemetry
from repro.obs.schema import fidelity_document_errors

FAST_VERIFY = ["--scale", "0.02", "--benchmarks", "compress", "--no-cache"]


def _stub_registry(holds: bool):
    return (
        fidelity.ShapeClaim(
            id="stub.claim",
            figure="fig3",
            statement="stubbed for exit-code tests",
            check=lambda results: (holds, None, ""),
        ),
    )


def test_exit_codes_are_distinct():
    codes = {cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_USAGE, cli.EXIT_CLAIMS}
    assert codes == {0, 1, 2, 3}


def test_run_success_exits_0(capsys):
    assert main(["run", "table1", "--scale", "0.05", "--no-cache"]) == 0


def test_run_unknown_experiment_exits_2(capsys):
    assert main(["run", "fig99", "--scale", "0.05"]) == cli.EXIT_USAGE
    assert "unknown experiment" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == cli.EXIT_USAGE


def _usage_error(argv, capsys) -> str:
    """Parse *argv*; it must exit 2 before any work, and the message
    is the last line of stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.strip().splitlines()[-1]


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "abc"])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "fig3"],
        ["verify-paper"],
        ["simulate", "compress"],
        ["perf"],
        ["scenarios", "sweep"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_bad_scale_exits_2(argv, bad, capsys):
    line = _usage_error([*argv, "--scale", bad], capsys)
    assert "argument --scale: scale must be" in line


@pytest.mark.parametrize("bad", ["0", "-4", "x", "1.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "compress"],
        ["metrics", "compress"],
        ["analyze"],
        ["timeline", "compress"],
        ["trace", "compress"],
        ["scenarios", "sweep"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_bad_icache_kb_exits_2_before_any_compile(argv, bad, capsys):
    with use_telemetry() as tel:
        line = _usage_error([*argv, "--icache-kb", bad], capsys)
    assert "argument --icache-kb: icache-kb must be an integer >= 1" in line
    assert len(tel.spans) == 0


@pytest.mark.parametrize("bad", ["-1", "x"])
@pytest.mark.parametrize("command", ["timeline", "trace"])
def test_bad_capacity_exits_2(command, bad, capsys):
    line = _usage_error([command, "compress", "--capacity", bad], capsys)
    assert "argument --capacity: capacity must be an integer >= 0" in line


@pytest.mark.parametrize("bad", ["0", "-2", "x", "1.5"])
@pytest.mark.parametrize("command", ["run", "verify-paper"])
def test_bad_jobs_exits_2(command, bad, capsys):
    argv = [command, "fig3"] if command == "run" else [command]
    line = _usage_error([*argv, "--jobs", bad], capsys)
    assert "argument --jobs" in line and ">= 1" in line


@pytest.mark.parametrize("bad", ["abc", "0", "inf"])
def test_verify_paper_bad_bench_scale_env_exits_2(monkeypatch, bad, capsys):
    monkeypatch.setenv("REPRO_BENCH_SCALE", bad)
    assert main(["verify-paper"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [err.strip()]
    assert "REPRO_BENCH_SCALE" in err


@pytest.mark.parametrize("bad", ["abc", "nan", "0", "inf"])
def test_bench_scale_env_is_validated(monkeypatch, bad):
    from benchmarks.conftest import bench_scale

    monkeypatch.setenv("REPRO_BENCH_SCALE", bad)
    with pytest.raises(ConfigError, match="REPRO_BENCH_SCALE"):
        bench_scale()


@pytest.mark.parametrize("bad", ["x", "1.5", "0", "-1"])
def test_bench_jobs_env_is_validated(monkeypatch, bad):
    from benchmarks.conftest import bench_jobs

    monkeypatch.setenv("REPRO_BENCH_JOBS", bad)
    with pytest.raises(ConfigError, match="REPRO_BENCH_JOBS"):
        bench_jobs()


def test_bench_env_defaults(monkeypatch):
    from benchmarks.conftest import bench_jobs, bench_scale

    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
    assert bench_scale() == 0.35
    assert bench_jobs() == 1
    monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
    assert bench_jobs() == 3


def test_verify_paper_unknown_benchmark_exits_2(capsys):
    rc = main(["verify-paper", "--benchmarks", "nonesuch"])
    assert rc == cli.EXIT_USAGE
    assert "unknown benchmark" in capsys.readouterr().err


def test_verify_paper_pass_exits_0_and_writes_artifact(
    monkeypatch, tmp_path, capsys
):
    import repro.fidelity.compare as compare

    monkeypatch.setattr(compare, "REGISTRY", _stub_registry(True))
    out = tmp_path / "BENCH_paper.json"
    rc = main(["verify-paper", *FAST_VERIFY, "-o", str(out)])
    assert rc == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert fidelity_document_errors(doc) == []
    assert doc["summary"]["ok"] is True


def test_verify_paper_claim_failure_exits_3(monkeypatch, tmp_path, capsys):
    import repro.fidelity.compare as compare

    monkeypatch.setattr(compare, "REGISTRY", _stub_registry(False))
    out = tmp_path / "BENCH_paper.json"
    rc = main(["verify-paper", *FAST_VERIFY, "-o", str(out)])
    assert rc == cli.EXIT_CLAIMS
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    # the artifact is still written — failures must be inspectable
    assert json.loads(out.read_text())["summary"]["ok"] is False


def test_verify_paper_unwritable_output_exits_1(monkeypatch, tmp_path, capsys):
    import repro.fidelity.compare as compare

    monkeypatch.setattr(compare, "REGISTRY", _stub_registry(True))
    # -o pointing at a directory raises OSError -> operational failure
    rc = main(["verify-paper", *FAST_VERIFY, "-o", str(tmp_path)])
    assert rc == cli.EXIT_FAILURE
    assert "cannot write" in capsys.readouterr().err


def test_fuzz_replay_missing_file_exits_2(tmp_path, capsys):
    rc = main(["fuzz", "--replay", str(tmp_path / "absent.minic")])
    assert rc == cli.EXIT_USAGE


def test_fuzz_clean_budget_exits_0(tmp_path, capsys):
    rc = main(
        ["fuzz", "--budget", "2", "--seed", "7", "--corpus", str(tmp_path)]
    )
    assert rc == cli.EXIT_OK
    assert "fuzz ok" in capsys.readouterr().out


def test_explore_renders_pipeline_and_exits_0(tmp_path, capsys):
    src = tmp_path / "tiny.minic"
    src.write_text(
        "int g;\nvoid main() { int i;\n"
        "for (i = 0; i < 4; i = i + 1) { g = g + i; }\nprint_int(g); }\n"
    )
    rc = main(["explore", str(src)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "SOURCE (tiny.minic)" in out
    assert "OPTIMIZED IR" in out
    assert "CONVENTIONAL ISA" in out
    assert "BLOCK-STRUCTURED ISA" in out
    assert "family rooted at" in out


def test_explore_missing_file_exits_2(tmp_path, capsys):
    rc = main(["explore", str(tmp_path / "absent.minic")])
    assert rc == cli.EXIT_USAGE


def test_explore_unknown_function_exits_2(tmp_path, capsys):
    src = tmp_path / "tiny.minic"
    src.write_text("void main() { print_int(1); }\n")
    rc = main(["explore", str(src), "--function", "nonesuch"])
    assert rc == cli.EXIT_USAGE
    assert "no function" in capsys.readouterr().err


def test_explore_malformed_source_exits_1_with_diagnostic(tmp_path, capsys):
    src = tmp_path / "broken.minic"
    src.write_text("void main() {\n    x = 1 }\n")
    rc = main(["explore", str(src)])
    assert rc == cli.EXIT_FAILURE
    captured = capsys.readouterr()
    combined = captured.out + captured.err
    assert "expected ';'" in combined
    assert "^" in combined  # the caret excerpt travels through the CLI
