"""Golden pin of two scenario sweeps, end to end.

Pins two complete ``repro.scenario/v1`` documents from
:func:`~repro.scenario.sweep.run_sweep` against a checked-in JSON file:

* ``reuse`` — a two-cell grid at scale 1.0, where every cell's program
  is the synthesis attempt it chose, so the cell can reuse that
  attempt's compile and conventional capture;
* ``tiny`` — the CLI tests' ``TINY_SWEEP`` at scale 0.2, where no cell
  runs a program the search measured.

Any drift in synthesis, the toolchain, capture or replay fails tier-1
with the differing paths named. After an intentional change,
regenerate with

    pytest tests/test_scenario_sweep_golden.py --update-goldens

and review the golden diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenario.sweep import run_sweep
from tests.test_goldens import diff_paths
from tests.test_scenario_cli import TINY_SWEEP

GOLDEN_PATH = Path(__file__).parent / "goldens" / "scenario_sweep.json"

SWEEPS = {
    "reuse": dict(
        bb_sizes=(3, 12),
        biases=(0.6,),
        hot_kb=(2,),
        icache_kb=(4, 64),
        scale=1.0,
        budget=2,
    ),
    "tiny": TINY_SWEEP,
}


def measure() -> dict:
    doc = {name: run_sweep(**kwargs) for name, kwargs in SWEEPS.items()}
    # JSON round trip: compare exactly what the golden file represents
    return json.loads(json.dumps(doc))


def test_scenario_sweep_golden_snapshot(request):
    measured = measure()
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(measured, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"updated {GOLDEN_PATH.name}")
    if not GOLDEN_PATH.is_file():
        pytest.fail(
            f"golden {GOLDEN_PATH} is missing — create it with "
            "`pytest tests/test_scenario_sweep_golden.py --update-goldens` "
            "and commit it"
        )
    golden = json.loads(GOLDEN_PATH.read_text())
    mismatches = diff_paths(golden, measured)
    assert not mismatches, (
        f"{GOLDEN_PATH.name} is stale — scenario sweep output changed:\n  "
        + "\n  ".join(mismatches)
        + "\nIf intentional, regenerate with --update-goldens and review."
    )
