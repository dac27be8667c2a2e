"""Workload record and shared MiniC snippets."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError


def default_scale() -> float:
    """Workload scale (REPRO_SCALE env var overrides; benches shrink it).

    Raises :class:`ConfigError` (a :class:`~repro.errors.ReproError`) for
    a non-numeric, non-positive, or non-finite REPRO_SCALE instead of
    silently producing a nonsense workload.
    """
    return parse_scale(os.environ.get("REPRO_SCALE", "1.0"), "REPRO_SCALE")


def parse_scale(raw: str | float, what: str) -> float:
    """*raw* as a workload scale: a positive finite number, else a
    :class:`ConfigError` naming *what*."""
    try:
        scale = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {raw!r}") from None
    if not math.isfinite(scale) or scale <= 0:
        raise ConfigError(
            f"{what} must be a positive finite number, got {raw!r}"
        )
    return scale


@dataclass(frozen=True)
class Workload:
    """One SPECint95 stand-in.

    ``source_fn(scale)`` produces MiniC source; ``scale`` multiplies the
    main iteration count (1.0 = the default used by the benchmark
    harness; tests use smaller scales).
    """

    name: str
    description: str
    #: the paper's input set for the benchmark this stands in for
    paper_input: str
    source_fn: Callable[[float], str] = field(repr=False)
    default_scale: float = 1.0

    def source(self, scale: float | None = None) -> str:
        if scale is None:
            scale = self.default_scale
        if not math.isfinite(scale) or scale <= 0:
            raise ValueError("scale must be positive and finite")
        return self.source_fn(scale)


#: Deterministic LCG shared by all workloads (a `library` function:
#: enlargement condition 5 keeps it un-enlarged, like the paper's
#: un-recompilable system libraries).
LCG = """
library int lcg(int s) {
    return (s * 1103515245 + 12345) & 2147483647;
}
"""

ABS = """
library int iabs(int x) {
    if (x < 0) { return 0 - x; }
    return x;
}
"""

#: Four-lane LCG array fill: the standard way every workload materializes
#: its pseudo-random input up front. Four independent recurrences keep the
#: generator itself from becoming the benchmark's critical path (the real
#: SPEC programs read their inputs from files).
RNG_FILL = """
void rng_fill(int arr[], int n, int seed) {
    int s0 = (seed * 2 + 1) & 2147483647;
    int s1 = ((seed ^ 362437) * 2 + 1) & 2147483647;
    int s2 = ((seed + 52429) * 2 + 1) & 2147483647;
    int s3 = ((seed ^ 987651) * 2 + 1) & 2147483647;
    int i;
    for (i = 0; i + 3 < n; i = i + 4) {
        s0 = (s0 * 1103515245 + 12345) & 2147483647;
        s1 = (s1 * 1103515245 + 54321) & 2147483647;
        s2 = (s2 * 1103515245 + 11111) & 2147483647;
        s3 = (s3 * 1103515245 + 99991) & 2147483647;
        arr[i] = s0;
        arr[i + 1] = s1;
        arr[i + 2] = s2;
        arr[i + 3] = s3;
    }
    while (i < n) {
        s0 = (s0 * 1103515245 + 12345) & 2147483647;
        arr[i] = s0;
        i = i + 1;
    }
}
"""


def iterations(base: int, scale: float, minimum: int = 1) -> int:
    """Scale an iteration count, keeping it at least *minimum*."""
    return max(minimum, int(base * scale))
