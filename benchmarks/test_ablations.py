"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the knobs the paper fixes:
the 16-op block-size limit (§4.2 condition 1), the 2-fault limit
(condition 2), the loop restriction (condition 4), and the predictor's
history length (§4.3). Run on two representative benchmarks (m88ksim:
predictable/fetch-bound; gcc: unpredictable/large code).
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.backend.enlarge import EnlargeConfig
from repro.core.toolchain import Toolchain
from repro.engine import ExperimentEngine, RunSpec
from repro.sim.config import MachineConfig

from benchmarks.conftest import bench_scale, run_once

_BENCHES = ("m88ksim", "gcc")


@cache
def _engine() -> ExperimentEngine:
    """The one engine of every ablation. Each enlargement option rides on
    its RunSpec, so each image is compiled once and each trace captured
    once however many tests share it."""
    return ExperimentEngine(scale=bench_scale())


def block_run(name, enlarge: EnlargeConfig, config: MachineConfig = None):
    return _engine().run(
        RunSpec(
            name, "block", config or MachineConfig(),
            toolchain=Toolchain(enlarge=enlarge),
        )
    )


def reduction(name, enlarge, config=None):
    conv = _engine().run(RunSpec(name, "conventional")).cycles
    block = block_run(name, enlarge, config)
    return 100.0 * (conv - block.cycles) / conv, block


@pytest.mark.parametrize("bench", _BENCHES)
def test_ablation_block_size_limit(benchmark, bench):
    """Condition 1: sweep the atomic-block size cap (16 is the paper's)."""

    def sweep():
        return {
            max_ops: reduction(bench, EnlargeConfig(max_ops=max_ops))[0]
            for max_ops in (4, 8, 16)
        }

    results = run_once(benchmark, sweep)
    print(f"\n{bench}: reduction by max_ops: "
          + ", ".join(f"{k}->{v:+.1f}%" for k, v in results.items()))
    benchmark.extra_info[bench] = results
    # Larger blocks must not hurt a predictable fetch-bound benchmark.
    if bench == "m88ksim":
        assert results[16] > results[4]


@pytest.mark.parametrize("bench", _BENCHES)
def test_ablation_fault_limit(benchmark, bench):
    """Condition 2: 0 (no enlargement), 1, 2 faults per block."""

    def sweep():
        out = {0: reduction(bench, EnlargeConfig(enabled=False))[0]}
        for max_faults in (1, 2):
            out[max_faults] = reduction(
                bench, EnlargeConfig(max_faults=max_faults)
            )[0]
        return out

    results = run_once(benchmark, sweep)
    print(f"\n{bench}: reduction by max_faults: "
          + ", ".join(f"{k}->{v:+.1f}%" for k, v in results.items()))
    benchmark.extra_info[bench] = results
    # enlargement (>=1 fault) must beat plain block structuring
    assert max(results[1], results[2]) > results[0]


@pytest.mark.parametrize("bench", _BENCHES)
def test_ablation_loop_restriction(benchmark, bench):
    """Condition 4: combining across loop back edges on/off."""

    def sweep():
        respected, block_r = reduction(bench, EnlargeConfig())
        relaxed, block_x = reduction(
            bench, EnlargeConfig(respect_loops=False)
        )
        return {
            "respected": respected,
            "relaxed": relaxed,
            "code_growth": block_x.static_code_bytes
            / max(1, block_r.static_code_bytes),
        }

    results = run_once(benchmark, sweep)
    print(f"\n{bench}: loops respected {results['respected']:+.1f}% vs "
          f"relaxed {results['relaxed']:+.1f}% "
          f"(code x{results['code_growth']:.2f})")
    benchmark.extra_info[bench] = results


@pytest.mark.parametrize("bench", _BENCHES)
def test_ablation_predictor_history(benchmark, bench):
    """§4.3: block-predictor history length 4 vs 12 bits."""

    def sweep():
        out = {}
        for bits in (4, 12):
            config = MachineConfig(bp_history_bits=bits)
            red, block = reduction(bench, EnlargeConfig(), config)
            out[bits] = {
                "reduction_pct": red,
                "bp_accuracy": block.bp_accuracy,
            }
        return out

    results = run_once(benchmark, sweep)
    print(f"\n{bench}: history 4 bits bp={results[4]['bp_accuracy']:.3f} "
          f"({results[4]['reduction_pct']:+.1f}%), 12 bits "
          f"bp={results[12]['bp_accuracy']:.3f} "
          f"({results[12]['reduction_pct']:+.1f}%)")
    benchmark.extra_info[bench] = results
    if bench == "m88ksim":
        # the interpreter's long repeating patterns need deep history
        assert results[12]["bp_accuracy"] >= results[4]["bp_accuracy"]
