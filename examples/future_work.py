"""The paper's §6 future-work directions, implemented and measured.

1. **Profile-guided enlargement** — don't duplicate across unbiased
   branches (fixes go's icache loss).
2. **Inlining** — remove the call/return boundaries that cap enlargement.
3. **Trace cache** (§3's run-time rival) — same idea built at run time
   into a small cache; compare head-to-head with compile-time block
   enlargement.

Every demo runs on one engine: a compile option is part of the run
(``RunSpec.toolchain``), so each program is compiled once per option
and each trace captured once.

Run:  python examples/future_work.py [scale]
"""

import sys

from repro.backend import EnlargeConfig
from repro.core import Comparison, Toolchain
from repro.engine import ExperimentEngine, RunSpec
from repro.errors import ConfigError
from repro.opt import IfConvertConfig, InlineConfig
from repro.sim.config import MachineConfig
from repro.sim.tracecache import replay_with_trace_cache
from repro.workloads import parse_scale


def profile_guided_demo(engine: ExperimentEngine) -> None:
    print("\n--- 1. profile-guided enlargement (benchmark: go) ---")
    config = MachineConfig()
    conv = engine.run(RunSpec("go", "conventional", config))
    for label, toolchain in (
        ("unguided", Toolchain()),
        ("profile-guided", Toolchain(enlarge=EnlargeConfig(min_bias=0.8))),
    ):
        block = engine.run(RunSpec("go", "block", config, toolchain=toolchain))
        code = engine.compiled("go", toolchain=toolchain).block.code_bytes
        print(f"{label:16s} code={code // 1024:3d}KB "
              f"icache misses={block.timing.icache_misses:6d} "
              f"reduction={Comparison(conv, block).reduction_pct:+6.1f}%")
    print("(the paper: go LOST 1.5% from duplication; refusing to fork at "
          "unbiased branches recovers it)")


def inlining_demo(engine: ExperimentEngine) -> None:
    print("\n--- 2. inlining (benchmark: vortex, call-heavy) ---")
    for label, toolchain in (
        ("calls kept", Toolchain()),
        ("inlined", Toolchain(inline=InlineConfig(enabled=True))),
    ):
        cmp = engine.compare("vortex", toolchain=toolchain)
        print(f"{label:16s} avg fetched block="
              f"{cmp.block.avg_block_size:5.2f} ops "
              f"reduction={cmp.reduction_pct:+6.1f}%")
    print("(the paper: calls/returns were the main reason enlarged blocks "
          "stayed at 8.2 of 16 ops)")


def trace_cache_demo(engine: ExperimentEngine) -> None:
    print("\n--- 3. trace cache vs block enlargement ---")
    config = MachineConfig()
    print(f"{'bench':10s} {'conv':>10s} {'conv+TC':>10s} {'BS-ISA':>10s} "
          f"{'TC hit':>8s}")
    for name in ("m88ksim", "perl", "gcc"):
        spec = RunSpec(name, "conventional", config)
        conv = engine.run(spec)
        with_tc, fetch = replay_with_trace_cache(
            engine.captured_run(spec), config
        )
        block = engine.run(RunSpec(name, "block", config))
        print(f"{name:10s} {conv.cycles:10,d} {with_tc.cycles:10,d} "
              f"{block.cycles:10,d} {fetch.hit_rate:8.1%}")
    print("(the paper §3: the trace cache matches enlargement while traces "
          "fit its small cache, but enlargement 'uses the entire icache' — "
          "see gcc)")


def predication_demo(engine: ExperimentEngine) -> None:
    print("\n--- 4. predicated execution (benchmark: ijpeg) ---")
    for label, toolchain in (
        ("branches kept", Toolchain()),
        ("if-converted", Toolchain(if_convert=IfConvertConfig(enabled=True))),
    ):
        cmp = engine.compare("ijpeg", toolchain=toolchain)
        print(f"{label:16s} "
              f"dynamic branches={cmp.conventional.branch_events:6d} "
              f"reduction={cmp.reduction_pct:+6.1f}%")
    print("(the paper §6: eliminating branches that jump around small code "
          "creates larger basic blocks for enlargement to merge)")


def scientific_demo(engine: ExperimentEngine) -> None:
    print("\n--- 5. scientific code (the paper's closing prediction) ---")
    cmp = engine.compare("scientific")
    conv, block = cmp.conventional, cmp.block
    print(f"FP kernels: bp={conv.bp_accuracy:.3f} "
          f"avg block {conv.avg_block_size:.1f} -> {block.avg_block_size:.1f} "
          f"reduction={cmp.reduction_pct:+.1f}%")
    print("(paper §6: 'should be even greater than the gains achieved for "
          "the SPECint95 benchmarks')")


def main() -> None:
    try:
        scale = parse_scale(sys.argv[1], "scale") if sys.argv[1:] else 0.5
    except ConfigError as exc:
        sys.exit(f"usage: future_work.py [scale]: {exc}")
    engine = ExperimentEngine(scale=scale)
    profile_guided_demo(engine)
    inlining_demo(engine)
    trace_cache_demo(engine)
    predication_demo(engine)
    scientific_demo(engine)


if __name__ == "__main__":
    main()
