"""Icache study (the Figure 6 vs Figure 7 story).

Block enlargement duplicates code: every merged combination of basic
blocks gets its own copy. This study sweeps icache sizes on the paper's
worst cases (gcc and go) and a small benchmark (compress), reporting
static footprints and the slowdown relative to a perfect icache — the
reproduction of the paper's conclusion that go's duplication can erase
its pipeline gain.

Run:  python examples/icache_study.py [scale]
"""

import sys

from repro.engine import ExperimentEngine, RunSpec
from repro.errors import ConfigError
from repro.sim.config import MachineConfig
from repro.workloads import parse_scale

SIZES_KB = (16, 32, 64, None)  # None = perfect


def study(engine: ExperimentEngine, name: str) -> None:
    pair = engine.compiled(name)
    conv_kb = pair.conventional.code_bytes / 1024
    block_kb = pair.block.code_bytes / 1024
    print(f"\n### {name}: static code {conv_kb:.1f} KB conventional, "
          f"{block_kb:.1f} KB block-structured "
          f"({pair.code_expansion:.2f}x duplication)")

    # one capture per ISA, replayed under every icache size
    rows = {
        isa: {
            kb: engine.run(
                RunSpec(name, isa, MachineConfig().with_icache_kb(kb))
            )
            for kb in SIZES_KB
        }
        for isa in ("conventional", "block")
    }

    print(f"{'isa':14s} " + " ".join(
        f"{(str(kb) + 'KB') if kb else 'perfect':>12s}" for kb in SIZES_KB
    ))
    for isa, cycles in rows.items():
        perfect = cycles[None].cycles
        cells = []
        for kb in SIZES_KB:
            rel = (cycles[kb].cycles - perfect) / perfect
            cells.append(f"{rel:+11.1%} ")
        print(f"{isa:14s} " + " ".join(cells)
              + f"  ({cycles[None].timing.icache_misses} misses at 64KB: "
              f"{cycles[64].timing.icache_misses})")

    conv64 = rows["conventional"][64].cycles
    block64 = rows["block"][64].cycles
    print(f"net effect at the paper's 64 KB: "
          f"{100 * (conv64 - block64) / conv64:+.1f}% "
          f"execution-time reduction for the BS-ISA")


def main() -> None:
    try:
        scale = parse_scale(sys.argv[1], "scale") if sys.argv[1:] else 0.5
    except ConfigError as exc:
        sys.exit(f"usage: icache_study.py [scale]: {exc}")
    print("Code duplication vs icache capacity "
          "(paper Figures 6 and 7; go loses 1.5% overall at 64 KB)")
    engine = ExperimentEngine(scale=scale)
    for name in ("compress", "gcc", "go"):
        study(engine, name)


if __name__ == "__main__":
    main()
