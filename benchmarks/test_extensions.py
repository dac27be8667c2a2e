"""Benchmarks for the implemented §6 future-work extensions.

Not paper figures — these quantify the three extensions the paper
proposes in its conclusions, using the repository's implementations:
profile-guided enlargement, inlining, and the §3 trace-cache comparison.
"""

from __future__ import annotations

import pytest

from repro.backend import EnlargeConfig
from repro.core.toolchain import Toolchain
from repro.engine import ExperimentEngine, RunSpec
from repro.opt import InlineConfig
from repro.sim.config import MachineConfig
from repro.sim.tracecache import replay_with_trace_cache

from benchmarks.conftest import bench_scale, run_once


def _engine(toolchain: Toolchain | None = None) -> ExperimentEngine:
    return ExperimentEngine(scale=bench_scale(), toolchain=toolchain)


def _results(engine: ExperimentEngine, name: str, config: MachineConfig):
    """The conventional and BS-ISA results of *name* on *engine*."""
    return (
        engine.run(RunSpec(name, "conventional", config)),
        engine.run(RunSpec(name, "block", config)),
    )


def test_profile_guided_enlargement_rescues_go(benchmark):
    """Paper §6: profiling 'can reduce the icache miss rate in exchange
    for smaller enlarged atomic blocks' — go is the motivating case."""

    def measure():
        plain = _engine()
        guided = _engine(Toolchain(enlarge=EnlargeConfig(min_bias=0.8)))
        config = MachineConfig()
        conv, block_plain = _results(plain, "go", config)
        block_guided = guided.run(RunSpec("go", "block", config))
        return {
            "plain_pct": 100 * (conv.cycles - block_plain.cycles) / conv.cycles,
            "guided_pct": 100 * (conv.cycles - block_guided.cycles) / conv.cycles,
            "plain_code_kb": plain.compiled("go").block.code_bytes / 1024,
            "guided_code_kb": guided.compiled("go").block.code_bytes / 1024,
            "plain_misses": block_plain.timing.icache_misses,
            "guided_misses": block_guided.timing.icache_misses,
        }

    results = run_once(benchmark, measure)
    print(f"\ngo: {results['plain_pct']:+.1f}% -> {results['guided_pct']:+.1f}% "
          f"(code {results['plain_code_kb']:.0f}KB -> "
          f"{results['guided_code_kb']:.0f}KB)")
    benchmark.extra_info.update(results)
    assert results["guided_code_kb"] < results["plain_code_kb"]
    assert results["guided_misses"] < results["plain_misses"]
    assert results["guided_pct"] > results["plain_pct"]


def test_inlining_grows_enlarged_blocks(benchmark):
    """Paper §6: inlining removes the call/return boundaries that cap
    block enlargement."""

    def measure():
        config = MachineConfig()
        out = {}
        for label, toolchain in (
            ("plain", Toolchain()),
            ("inlined", Toolchain(inline=InlineConfig(enabled=True))),
        ):
            conv, block = _results(_engine(toolchain), "vortex", config)
            out[label] = {
                "avg_block": block.avg_block_size,
                "reduction_pct": 100 * (conv.cycles - block.cycles) / conv.cycles,
            }
        return out

    results = run_once(benchmark, measure)
    print(f"\nvortex avg block {results['plain']['avg_block']:.2f} -> "
          f"{results['inlined']['avg_block']:.2f}; reduction "
          f"{results['plain']['reduction_pct']:+.1f}% -> "
          f"{results['inlined']['reduction_pct']:+.1f}%")
    benchmark.extra_info.update(results)
    assert results["inlined"]["avg_block"] > results["plain"]["avg_block"]


@pytest.mark.parametrize("bench", ["m88ksim", "gcc"])
def test_trace_cache_vs_block_enlargement(benchmark, bench):
    """Paper §3: the trace cache is the run-time counterpart; enlargement
    should match it on small hot code and beat it when the working set of
    traces exceeds the small trace cache (gcc)."""

    def measure():
        engine = _engine()
        config = MachineConfig()
        spec = RunSpec(bench, "conventional", config)
        conv = engine.run(spec)
        with_tc, fetch = replay_with_trace_cache(
            engine.captured_run(spec), config
        )
        block = engine.run(RunSpec(bench, "block", config))
        return {
            "tc_pct": 100 * (conv.cycles - with_tc.cycles) / conv.cycles,
            "bs_pct": 100 * (conv.cycles - block.cycles) / conv.cycles,
            "tc_hit_rate": fetch.hit_rate,
        }

    results = run_once(benchmark, measure)
    print(f"\n{bench}: trace cache {results['tc_pct']:+.1f}% "
          f"(hit {results['tc_hit_rate']:.1%}) vs enlargement "
          f"{results['bs_pct']:+.1f}%")
    benchmark.extra_info[bench] = results
    if bench == "gcc":
        # large flat code: enlargement's whole-icache advantage
        assert results["bs_pct"] > results["tc_pct"] + 3.0
    else:
        # small hot loop: the two mechanisms are comparable
        assert abs(results["bs_pct"] - results["tc_pct"]) < 8.0


def test_scientific_code_outlook(benchmark):
    """Paper §6: 'performance gains should be even greater for [scientific]
    code because the branches ... are more predictable and the basic
    blocks are larger.'"""

    def measure():
        conv, block = _results(_engine(), "scientific", MachineConfig())
        return {
            "reduction_pct": 100 * (conv.cycles - block.cycles) / conv.cycles,
            "conv_bp": conv.bp_accuracy,
            "avg_block": block.avg_block_size,
        }

    results = run_once(benchmark, measure)
    print(f"\nscientific: {results['reduction_pct']:+.1f}% "
          f"(bp {results['conv_bp']:.3f}, avg block {results['avg_block']:.1f})")
    benchmark.extra_info.update(results)
    # "even greater than the gains achieved for the SPECint95 benchmarks"
    assert results["reduction_pct"] > 15.0
    assert results["conv_bp"] > 0.97


def test_dispatch_switch_workload(benchmark):
    """MiniC v2 exerciser: the switch dispatch tree's short biased
    comparison blocks are prime enlargement targets, so the BS-ISA win
    should hold on interpreter-shaped control flow."""

    def measure():
        conv, block = _results(_engine(), "dispatch", MachineConfig())
        return {
            "reduction_pct": 100 * (conv.cycles - block.cycles) / conv.cycles,
            "avg_block": block.avg_block_size,
            "conv_avg_unit": conv.avg_block_size,
        }

    results = run_once(benchmark, measure)
    print(f"\ndispatch: {results['reduction_pct']:+.1f}% "
          f"(avg block {results['conv_avg_unit']:.1f} -> "
          f"{results['avg_block']:.1f})")
    benchmark.extra_info.update(results)
    assert results["reduction_pct"] > 5.0
    assert results["avg_block"] > results["conv_avg_unit"]


def test_if_conversion_compounds_with_enlargement(benchmark):
    """Paper §6: predicated execution 'will create larger basic blocks
    which in turn will allow the block enlargement optimization to create
    even larger enlarged atomic blocks.'"""
    from repro.opt import IfConvertConfig

    def measure():
        config = MachineConfig()
        out = {}
        for label, toolchain in (
            ("plain", Toolchain()),
            ("predicated", Toolchain(if_convert=IfConvertConfig(enabled=True))),
        ):
            conv, block = _results(_engine(toolchain), "ijpeg", config)
            out[label] = {
                "branches": conv.branch_events,
                "reduction_pct": 100 * (conv.cycles - block.cycles) / conv.cycles,
            }
        return out

    results = run_once(benchmark, measure)
    print(f"\nijpeg: branches {results['plain']['branches']} -> "
          f"{results['predicated']['branches']}; reduction "
          f"{results['plain']['reduction_pct']:+.1f}% -> "
          f"{results['predicated']['reduction_pct']:+.1f}%")
    benchmark.extra_info.update(results)
    assert results["predicated"]["branches"] < results["plain"]["branches"]
