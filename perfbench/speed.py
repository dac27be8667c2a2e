"""Correction of CPU times for the speed of the host.

On a shared virtual machine the CPU time of the same computation varies
by up to 2x with what the machine's other tenants run, in periods that
last from a second to minutes. The benchmark therefore runs a fixed
reference computation right before and right after each timed region
and scales the region's CPU time by the reference's nominal time over
its measured time.

The reference is CPython compiling a generated module of small
functions: parsing, building syntax trees and emitting code, which
allocates and follows pointers the way the package's own compiler,
executor and packer do. Of the references tried (a dictionary loop, a
dependence-graph walk, ``difflib`` and this one), its time tracked the
jobs' times best across the host's slow and fast periods. It uses
nothing from the package, so a change to the package does not move it.
"""

from __future__ import annotations

import gc
from time import process_time

#: the module the reference computation compiles
SOURCE = "\n".join(
    f"def f{i}(a, b):\n"
    f"    x = [a * {i}, b + {i}]\n"
    f"    return {{k: v for k, v in zip(x, x)}}\n"
    for i in range(600)
)

#: CPU time of the reference computation, in seconds, in the fast
#: periods of a 2-vCPU Intel Xeon virtual machine with Python 3.11
NOMINAL_S = 0.024


def reference_s() -> float:
    """CPU time of one run of the reference computation, in seconds."""
    gc.collect()
    start = process_time()
    compile(SOURCE, "<reference>", "exec")
    return process_time() - start


def correction(before: float, after: float) -> float:
    """Factor that scales a CPU time measured between two runs of the
    reference, which took *before* and *after* seconds, to the host's
    nominal speed."""
    return 2 * NOMINAL_S / (before + after)
