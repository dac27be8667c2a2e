"""Result goldens: every planned suite simulation pinned exactly.

``tests/goldens/suite_results.json`` holds, for each distinct
``(SUITE benchmark, isa, machine config)`` spec that
:data:`~repro.harness.experiments.EXPERIMENT_RUNS` plans, the sha256 of
``dataclasses.asdict`` of its :class:`~repro.sim.run.SimResult`, at the
capture goldens' scale. The scalar replayer and the vector kernel read
the same capture through shared code (line spans, result assembly,
metric publication), so a result that is wrong the same way on both
paths passes their differential; this file pins the results
themselves. Both kernels are checked against it.

The captures come from :mod:`tests.test_capture_goldens`, which pins
the captured streams; each is compiled and captured once per session.

After an *intentional* change to the timing model, regenerate with

    pytest tests/test_result_goldens.py --update-goldens

and review the golden diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.experiments import EXPERIMENT_RUNS
from repro.sim import vector
from repro.sim.config import CacheConfig
from repro.sim.run import replay_captured
from repro.workloads import SUITE

from tests.test_capture_goldens import CAPTURE_SCALE, captured_run

GOLDEN_PATH = Path(__file__).parent / "goldens" / "suite_results.json"


def config_label(config) -> str:
    """Every field of *config* in declaration order, as ``name=value``;
    a cache renders as ``size:assoc:line``, ``None`` as ``perfect``."""
    parts = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, CacheConfig):
            value = f"{value.size_bytes}:{value.assoc}:{value.line_bytes}"
        elif value is None:
            value = "perfect"
        parts.append(f"{f.name}={value}")
    return ",".join(parts)


def planned_specs() -> dict[str, tuple]:
    """``"bench/isa/config"`` -> ``(benchmark, isa, config)`` for each
    distinct run the declared experiments need."""
    specs: dict[str, tuple] = {}
    for declare in EXPERIMENT_RUNS.values():
        for spec in declare(list(SUITE)):
            key = f"{spec.benchmark}/{spec.isa}/{config_label(spec.config)}"
            specs.setdefault(key, (spec.benchmark, spec.isa, spec.config))
    return specs


def measure_results(kernel: str) -> dict[str, str]:
    measured = {}
    for key, (name, isa, config) in sorted(planned_specs().items()):
        result = replay_captured(
            captured_run(name, isa, config), config, kernel=kernel
        )
        text = json.dumps(dataclasses.asdict(result), sort_keys=True)
        measured[key] = hashlib.sha256(text.encode()).hexdigest()
    return measured


def test_plan_has_80_specs():
    """Eight benchmarks x two ISAs x (default, perfect prediction,
    perfect/16/32 KB icache)."""
    assert len(planned_specs()) == 80


KERNELS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not vector.HAVE_NUMPY, reason="numpy not installed"
        ),
    ),
]


@pytest.mark.parametrize("kernel", KERNELS)
def test_suite_results_match_golden(request, kernel):
    measured = measure_results(kernel)
    if request.config.getoption("--update-goldens"):
        if kernel != "python":
            pytest.skip("goldens are written from the scalar replayer")
        GOLDEN_PATH.write_text(
            json.dumps(
                {"scale": CAPTURE_SCALE, "results": measured},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        pytest.skip(f"updated {GOLDEN_PATH.name}")
    assert GOLDEN_PATH.is_file(), (
        f"golden {GOLDEN_PATH} is missing — create it with "
        "`pytest tests/test_result_goldens.py --update-goldens`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["scale"] == CAPTURE_SCALE
    stale = [
        key
        for key in sorted(set(golden["results"]) | set(measured))
        if golden["results"].get(key) != measured.get(key)
    ]
    assert not stale, (
        f"{GOLDEN_PATH.name} is stale under kernel={kernel!r} — "
        f"{len(stale)} results changed:\n  "
        + "\n  ".join(stale)
        + "\nIf intentional, regenerate with --update-goldens and review."
    )
