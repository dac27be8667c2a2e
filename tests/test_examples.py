"""The example scripts run end to end on the experiment engine.

Each script runs through :mod:`runpy` as ``__main__`` at a small scale
under an enabled telemetry session, so its ``plan.trace_captures``
counts the functional executions it asked the engine for: one per
program, ISA and predictor geometry, with perfect prediction derived.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from repro.obs import use_telemetry

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: script -> (a line it must print, its plan.trace_captures or None)
EXPECTED = {
    "quickstart": ("=== static code ===", None),
    # 3 benchmarks x 2 ISAs, each capture replayed at 4 icache sizes
    "icache_study": (
        "Code duplication vs icache capacity "
        "(paper Figures 6 and 7; go loses 1.5% overall at 64 KB)",
        6,
    ),
    # 2 benchmarks x 2 ISAs x 3 history lengths; perfect is derived
    "branch_prediction_study": (
        "How prediction quality moves the block-structured advantage",
        12,
    ),
    # one engine for every compile option: go plain (2) and guided
    # block (1), vortex and ijpeg under two toolchains each (8), three
    # trace-cache benchmarks (6) and scientific (2)
    "future_work": (
        "--- 5. scientific code (the paper's closing prediction) ---",
        19,
    ),
}

#: the scripts that take an optional scale argument
SCALED = ("icache_study", "branch_prediction_study", "future_work")


def _run(script: str, args: list[str], monkeypatch) -> None:
    path = str(EXAMPLES / f"{script}.py")
    monkeypatch.setattr(sys, "argv", [path, *args])
    runpy.run_path(path, run_name="__main__")


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_example_runs(script, monkeypatch, capsys):
    line, captures = EXPECTED[script]
    with use_telemetry() as tel:
        _run(script, ["0.02"] if script in SCALED else [], monkeypatch)
    assert line in capsys.readouterr().out.splitlines()
    if captures is not None:
        assert tel.metrics.get("plan.trace_captures") == captures


@pytest.mark.parametrize("script", SCALED)
@pytest.mark.parametrize("bad", ["abc", "0", "-1", "nan"])
def test_bad_scale_exits_before_any_compile(script, bad, monkeypatch):
    with use_telemetry() as tel:
        with pytest.raises(SystemExit) as exc:
            _run(script, [bad], monkeypatch)
    assert "scale must be" in str(exc.value.code)
    assert len(tel.spans) == 0
