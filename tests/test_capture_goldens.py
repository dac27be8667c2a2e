"""Capture goldens: every suite capture pinned byte for byte.

``tests/goldens/suite_captures.json`` holds, for each
``(SUITE benchmark, isa, predictor_key)`` capture that
:data:`~repro.harness.experiments.EXPERIMENT_RUNS` plans, the sha256 of
the packed trace's :meth:`~repro.sim.packed.PackedTrace.to_bytes` and
of ``dataclasses.asdict`` of the architectural stats. The end-to-end
goldens (``tests/test_goldens.py``) pin one benchmark at the default
config, and a trace that is wrong the same way every time passes any
check that replays the same capture twice; these pin the captured
stream itself, so a change to the functional executors or the packer
that moves a single uid, dependence, flag or counter fails here.

After an *intentional* change to the captured stream, regenerate with

    pytest tests/test_capture_goldens.py --update-goldens

and review the golden diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.toolchain import Toolchain
from repro.engine import ExperimentEngine, RunSpec
from repro.harness.experiments import EXPERIMENT_RUNS
from repro.obs import Telemetry
from repro.sim.run import capture_run, predictor_key
from repro.workloads import SUITE

GOLDEN_PATH = Path(__file__).parent / "goldens" / "suite_captures.json"
CAPTURE_SCALE = 0.02


def planned_captures() -> dict[str, tuple]:
    """``"bench/isa/key"`` -> ``(benchmark, isa, config)`` for each
    distinct capture the declared experiments need, first config wins."""
    captures: dict[str, tuple] = {}
    for declare in EXPERIMENT_RUNS.values():
        for spec in declare(list(SUITE)):
            key = "/".join(
                (spec.benchmark, spec.isa)
                + tuple(str(p) for p in predictor_key(spec.config))
            )
            captures.setdefault(key, (spec.benchmark, spec.isa, spec.config))
    return captures


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_PAIRS: dict[str, object] = {}
_CAPTURES: dict[tuple, object] = {}


def compiled(name: str):
    """*name* compiled at :data:`CAPTURE_SCALE`, once per session."""
    if name not in _PAIRS:
        _PAIRS[name] = Toolchain().compile(
            SUITE[name].source(CAPTURE_SCALE), name
        )
    return _PAIRS[name]


def captured_run(name: str, isa: str, config):
    """The capture of *name* on *isa* under *config*'s predictor, once
    per session (the results goldens replay the same captures)."""
    memo = (name, isa, predictor_key(config))
    if memo not in _CAPTURES:
        program = getattr(compiled(name), isa)
        _CAPTURES[memo] = capture_run(program, isa, config)
    return _CAPTURES[memo]


def fingerprint(captured) -> dict[str, str]:
    stats = json.dumps(dataclasses.asdict(captured.stats), sort_keys=True)
    return {
        "trace": _sha256(captured.trace.to_bytes()),
        "stats": _sha256(stats.encode()),
    }


def measure_captures() -> dict[str, dict[str, str]]:
    return {
        key: fingerprint(captured_run(name, isa, config))
        for key, (name, isa, config) in sorted(planned_captures().items())
    }


def test_plan_has_32_captures():
    """Eight benchmarks x two ISAs x (real, perfect) prediction."""
    assert len(planned_captures()) == 32


def test_suite_captures_match_golden(request):
    measured = measure_captures()
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.write_text(
            json.dumps(
                {"scale": CAPTURE_SCALE, "captures": measured},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        pytest.skip(f"updated {GOLDEN_PATH.name}")
    assert GOLDEN_PATH.is_file(), (
        f"golden {GOLDEN_PATH} is missing — create it with "
        "`pytest tests/test_capture_goldens.py --update-goldens`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["scale"] == CAPTURE_SCALE
    stale = [
        f"{key}.{field}"
        for key in sorted(set(golden["captures"]) | set(measured))
        for field in ("trace", "stats")
        if golden["captures"].get(key, {}).get(field)
        != measured.get(key, {}).get(field)
    ]
    assert not stale, (
        f"{GOLDEN_PATH.name} is stale — captured streams changed:\n  "
        + "\n  ".join(stale)
        + "\nIf intentional, regenerate with --update-goldens and review."
    )


def test_engine_derived_perfect_captures_match_golden():
    """The engine executes each program only under real prediction and
    derives the perfect-prediction capture of either ISA from it
    (:func:`~repro.sim.run.derive_perfect_bp`); the derived captures
    must hash to the goldens pinned from direct ``predictor=None``
    executions."""
    golden = json.loads(GOLDEN_PATH.read_text())["captures"]
    perfect = {
        key: spec
        for key, spec in planned_captures().items()
        if key.endswith("/perfect")
    }
    assert len(perfect) == 2 * len(SUITE) == 16
    tel = Telemetry()
    engine = ExperimentEngine(
        scale=CAPTURE_SCALE, benchmarks=list(SUITE), telemetry=tel
    )
    for key, (name, isa, config) in sorted(perfect.items()):
        derived = engine.captured_run(RunSpec(name, isa, config))
        assert fingerprint(derived) == golden[key], key
    # one real-prediction execution per benchmark and ISA, none under
    # perfect prediction; one derivation per perfect capture
    assert tel.metrics.get("plan.trace_captures") == 16
    assert tel.spans.totals()["sim.derive"]["count"] == 16
