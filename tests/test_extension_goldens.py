"""Extension goldens: the trace-cache runs and the profile-guided images.

The paper weighs block enlargement against two other ways to fetch
several basic blocks per cycle: the run-time trace cache (§3) and
profile-guided enlargement (§6). Two goldens pin both exactly, for the
ten MiniC programs (the suite and the extras) at :data:`SCALE`:

* ``tests/goldens/tracecache_results.json`` — for each machine config
  in :data:`MACHINES` and each trace-cache geometry in
  :data:`GEOMETRIES`, the sha256 of ``dataclasses.asdict`` of the
  ``conventional+tc`` :class:`~repro.sim.run.SimResult` and the
  ``lookups``/``hits``/``fills``/``merged_units`` counters of its
  fetch model;
* ``tests/goldens/profile_guided.json`` — both images of the
  profile-guided compile at each threshold in :data:`MIN_BIASES`, as
  the canonical digests ``programs.json`` uses
  (:func:`tests.test_compile_goldens.image_digests`).

After an *intentional* change, regenerate with

    pytest tests/test_extension_goldens.py --update-goldens

and review the golden diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.backend import EnlargeConfig
from repro.core.toolchain import Toolchain
from repro.engine import ExperimentEngine, RunSpec
from repro.sim.config import MachineConfig
from repro.sim.tracecache import TraceCacheConfig, replay_with_trace_cache
from repro.workloads import EXTRA, SUITE, get_workload

from tests.test_compile_goldens import image_digests
from tests.test_result_goldens import KERNELS

GOLDENS = Path(__file__).parent / "goldens"
TRACECACHE_PATH = GOLDENS / "tracecache_results.json"
GUIDED_PATH = GOLDENS / "profile_guided.json"
SCALE = 0.05
PROGRAMS = (*SUITE, *EXTRA)
MACHINES = {
    "default": MachineConfig(),
    "icache16k": MachineConfig().with_icache_kb(16),
    "perfect_bp": MachineConfig().with_perfect_bp(),
}
GEOMETRIES = {
    "tc64x3x16": TraceCacheConfig(),
    "tc8x2x8": TraceCacheConfig(entries=8, max_blocks=2, max_ops=8),
}
MIN_BIASES = (0.75, 0.8)


@lru_cache(maxsize=None)
def _engine() -> ExperimentEngine:
    return ExperimentEngine(scale=SCALE)


def trace_cache_run(
    name: str, machine: MachineConfig, geometry, kernel: str
):
    """``(SimResult, TraceCacheFetch)`` of *name* behind a trace cache."""
    captured = _engine().captured_run(RunSpec(name, "conventional", machine))
    return replay_with_trace_cache(captured, machine, geometry, kernel=kernel)


def guided_pair(name: str, min_bias: float):
    """*name*'s profile-guided compile at threshold *min_bias*."""
    return Toolchain(enlarge=EnlargeConfig(min_bias=min_bias)).compile(
        get_workload(name).source(SCALE), name
    )


def measure_trace_cache(kernel: str) -> dict[str, dict]:
    measured = {}
    for name in PROGRAMS:
        for mlabel, machine in MACHINES.items():
            for glabel, geometry in GEOMETRIES.items():
                result, fetch = trace_cache_run(
                    name, machine, geometry, kernel
                )
                text = json.dumps(dataclasses.asdict(result), sort_keys=True)
                measured[f"{name}/{mlabel}/{glabel}"] = {
                    "result": hashlib.sha256(text.encode()).hexdigest(),
                    "lookups": fetch.lookups,
                    "hits": fetch.hits,
                    "fills": fetch.fills,
                    "merged_units": fetch.merged_units,
                }
    return measured


@lru_cache(maxsize=None)
def measure_guided() -> dict[str, dict[str, str]]:
    return {
        f"{name}@{min_bias}": image_digests(guided_pair(name, min_bias))
        for name in PROGRAMS
        for min_bias in MIN_BIASES
    }


def _check(request, path: Path, section: str, measured: dict) -> None:
    """Compare *measured* with the golden at *path*, or rewrite it."""
    if request.config.getoption("--update-goldens"):
        path.write_text(
            json.dumps({"scale": SCALE, section: measured},
                       indent=2, sort_keys=True)
            + "\n"
        )
        pytest.skip(f"updated {path.name}")
    assert path.is_file(), (
        f"golden {path} is missing — create it with "
        "`pytest tests/test_extension_goldens.py --update-goldens`"
    )
    golden = json.loads(path.read_text())
    assert golden["scale"] == SCALE
    want = golden[section]
    stale = [
        key
        for key in sorted(set(want) | set(measured))
        if want.get(key) != measured.get(key)
    ]
    assert not stale, (
        f"{path.name} is stale — {len(stale)} entries changed:\n  "
        + "\n  ".join(stale)
        + "\nIf intentional, regenerate with --update-goldens and review."
    )


def test_golden_covers_ten_programs():
    assert len(PROGRAMS) == 10


@pytest.mark.parametrize("kernel", KERNELS)
def test_trace_cache_runs_match_golden(request, kernel):
    if kernel != "python" and request.config.getoption("--update-goldens"):
        pytest.skip("goldens are written from the scalar replayer")
    _check(request, TRACECACHE_PATH, "runs", measure_trace_cache(kernel))


def test_profile_guided_images_match_golden(request):
    _check(request, GUIDED_PATH, "images", measure_guided())


def test_guided_conventional_image_is_the_plain_one():
    """Profiling changes only the BS-ISA image: a guided compile's
    conventional side equals the plain compile's."""
    for key, digests in measure_guided().items():
        plain = image_digests(_engine().compiled(key.split("@")[0]))
        assert digests["conventional"] == plain["conventional"], key
