"""SPECint95 stand-in workloads (Table 2).

Eight MiniC programs named after the paper's benchmarks, each engineered
to mimic the paper-relevant character of its namesake along the three
axes that drive the paper's results: basic-block size, branch
predictability, and hot-code footprint relative to the icache sizes
studied (16/32/64 KB). See each module's docstring and DESIGN.md §2 for
the substitution argument.

Every workload is deterministic (LCG-seeded input generation in MiniC
itself) and prints a checksum, so the three executors can be checked for
output equivalence on the full suite.
"""

from repro.workloads.base import Workload, default_scale, parse_scale
from repro.workloads import (
    compress_w,
    gcc_w,
    go_w,
    ijpeg_w,
    li_w,
    m88ksim_w,
    perl_w,
    vortex_w,
)

from repro.workloads import dispatch_w, scientific_w

#: The SPECint95 suite, in the paper's Table 2 order.
SUITE: dict[str, Workload] = {
    w.name: w
    for w in (
        compress_w.WORKLOAD,
        gcc_w.WORKLOAD,
        go_w.WORKLOAD,
        ijpeg_w.WORKLOAD,
        li_w.WORKLOAD,
        m88ksim_w.WORKLOAD,
        perl_w.WORKLOAD,
        vortex_w.WORKLOAD,
    )
}

#: Beyond-the-paper workloads (§6 outlook): not part of Table 2.
EXTRA: dict[str, Workload] = {
    scientific_w.WORKLOAD.name: scientific_w.WORKLOAD,
    dispatch_w.WORKLOAD.name: dispatch_w.WORKLOAD,
}


def scenario_workloads() -> dict[str, Workload]:
    """The registered scenario families as workloads.

    Imported lazily: :mod:`repro.scenario` pulls in the toolchain and
    simulator (its synthesis layer compiles and measures), and those in
    turn import :mod:`repro.workloads.base` — an eager import here
    would be a cycle. Family sources are synthesized on first
    ``.source()`` call and memoized per process.
    """
    from repro.scenario.families import WORKLOADS

    return WORKLOADS


def workload_names() -> list[str]:
    """Every resolvable workload name: suite, extra, scenario families."""
    return list(SUITE) + list(EXTRA) + sorted(scenario_workloads())


def get_workload(name: str) -> Workload:
    if name in SUITE:
        return SUITE[name]
    if name in EXTRA:
        return EXTRA[name]
    if name.startswith("synthetic/"):
        families = scenario_workloads()
        if name in families:
            return families[name]
    known = ", ".join(workload_names())
    raise KeyError(f"unknown workload {name!r} (known: {known})")


__all__ = [
    "Workload",
    "SUITE",
    "EXTRA",
    "get_workload",
    "scenario_workloads",
    "workload_names",
]
