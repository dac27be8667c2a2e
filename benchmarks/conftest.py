"""Benchmark fixtures.

Every benchmark regenerates one of the paper's tables/figures through
one shared :class:`SuiteRunner`. The session fixture plans and executes
the union of every experiment's declared runs **once** (deduplicated —
fig3/fig5 share all default-config runs, fig6/fig7 the perfect-icache
baselines), so the per-figure benchmarks assemble tables from memoized
results instead of re-simulating. The workload scale defaults to a
reduced 0.35 so the full benchmark suite runs in minutes; set
``REPRO_BENCH_SCALE=1.0`` for the EXPERIMENTS.md numbers.

Environment knobs (a bad value fails with a ``ConfigError`` naming
the variable):

``REPRO_BENCH_SCALE``
    Workload scale, a positive finite number (default 0.35); the same
    variable and default ``bsisa verify-paper`` reads.
``REPRO_BENCH_JOBS``
    Process-parallel plan execution width, an integer >= 1 (default 1 =
    serial).
``REPRO_BENCH_CACHE_DIR``
    Enables the on-disk artifact cache at the given directory, so
    repeated benchmark sessions skip unchanged compiles and runs.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import ArtifactCache
from repro.fidelity import Claim, evaluate_claim
from repro.harness import ALL_EXPERIMENTS, SuiteRunner
from repro.harness.cli import default_verify_scale, parse_count


def bench_scale() -> float:
    return default_verify_scale()


def bench_jobs() -> int:
    return parse_count(
        os.environ.get("REPRO_BENCH_JOBS", "1"), "REPRO_BENCH_JOBS"
    )


def bench_cache() -> ArtifactCache | None:
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    return ArtifactCache(cache_dir) if cache_dir else None


@pytest.fixture(scope="session")
def runner() -> SuiteRunner:
    shared = SuiteRunner(
        scale=bench_scale(), jobs=bench_jobs(), cache=bench_cache()
    )
    # One plan per session: every figure's declared runs, deduplicated.
    shared.execute(list(ALL_EXPERIMENTS))
    return shared


@pytest.fixture(scope="session")
def results(runner: SuiteRunner) -> dict:
    """Every experiment's result, assembled from the memoized session
    runner — the mapping the fidelity claim registry evaluates."""
    return {name: fn(runner) for name, fn in ALL_EXPERIMENTS.items()}


def assert_claim(claim: Claim, results) -> None:
    """Assert one registry claim holds; fail with its full verdict."""
    outcome = evaluate_claim(claim, results)
    assert outcome.passed, outcome.describe()


def run_once(benchmark, fn, *args):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
