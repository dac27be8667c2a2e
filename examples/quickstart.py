"""Quickstart: compile one program for both ISAs and compare them.

Run:  python examples/quickstart.py
"""

from repro.engine import ExperimentEngine
from repro.sim.config import MachineConfig

SOURCE = """
int histogram[16];
int data[256];

library int lcg(int s) { return (s * 1103515245 + 12345) & 2147483647; }

int bucket(int value) {
    if (value < 0) { return 0; }
    if (value >= 1600) { return 15; }
    return value / 100;
}

void main() {
    int s = 2024;
    int i;
    for (i = 0; i < 256; i = i + 1) {
        s = lcg(s);
        data[i] = s % 1600;
    }
    for (i = 0; i < 256; i = i + 1) {
        int b = bucket(data[i]);
        histogram[b] = histogram[b] + 1;
    }
    int peak = 0;
    for (i = 0; i < 16; i = i + 1) {
        if (histogram[i] > peak) { peak = histogram[i]; }
        print_int(histogram[i]);
    }
    print_int(peak);
}
"""


def main() -> None:
    engine = ExperimentEngine()
    pair = engine.compiled("quickstart", SOURCE)

    print("=== static code ===")
    print(f"conventional ISA : {len(pair.conventional.ops):5d} ops "
          f"({pair.conventional.code_bytes} bytes)")
    print(f"block-structured : {sum(b.num_ops for b in pair.block.blocks):5d} ops "
          f"in {pair.block.num_blocks} atomic blocks "
          f"({pair.block.code_bytes} bytes, "
          f"{pair.code_expansion:.2f}x expansion from block enlargement)")

    print("\n=== timed comparison (paper's machine: 16-wide, 64KB icache) ===")
    result = engine.compare("quickstart", MachineConfig(), SOURCE)
    for r in (result.conventional, result.block):
        print(f"{r.isa:16s} cycles={r.cycles:8,d}  IPC={r.ipc:5.2f}  "
              f"avg fetched block={r.avg_block_size:5.2f} ops  "
              f"predictor accuracy={r.bp_accuracy:.3f}")
    print(f"\nexecution-time reduction from block structuring: "
          f"{result.reduction_pct:+.1f}%")
    print(f"outputs identical: {result.outputs_match}")

    print("\n=== one enlarged atomic block (note the fault operation) ===")
    enlarged = next(b for b in pair.block.blocks if b.num_faults > 0)
    print(f"label={enlarged.label}  merged path={' + '.join(enlarged.path)}")
    for op in enlarged.ops:
        print(f"   {op.asm()}")


if __name__ == "__main__":
    main()
