"""A trace-cache fetch front end for the conventional ISA (paper §3).

The paper positions the trace cache [Rotenberg et al. 1996] as the
run-time counterpart of block enlargement: it also assembles multiple
basic blocks into one fetchable unit and uses dynamic prediction to pick
among them, but builds its blocks *at run time* into a small dedicated
cache instead of *at compile time* into the main icache.

This model augments the conventional fetch unit: a finite, LRU,
direct-mapped-by-start-address trace cache whose entries hold the
branch-direction signature of up to ``max_blocks`` consecutive fetch
units (``max_ops`` ops total). On a lookup whose stored signature
matches the actual upcoming path — the same idealization as the rest of
the timing model, where predictor correctness is carried by the stream's
mispredict flags — the whole trace is delivered in one fetch cycle.
Otherwise the core fetch unit delivers one basic block per cycle and the
fill unit learns the trace.

Implemented as a transform of a captured conventional run: on a hit it
merges consecutive fetch units into one. Merging never reorders ops, so
the transformed :class:`~repro.sim.packed.PackedTrace` gets new unit
columns and shares the op columns of the capture; it starts with no
replay prep, because its unit geometry is new. It replays through
:func:`~repro.sim.run.replay_captured` like any capture, on either
kernel.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.errors import SimulationError
from repro.exec.trace import F_MISPREDICT, F_SQUASHED
from repro.obs.telemetry import DISABLED, Telemetry, get_telemetry
from repro.sim.config import MachineConfig
from repro.sim.packed import PackedTrace
from repro.sim.run import CapturedRun, SimResult, replay_captured

#: unit flags that end a trace: a fetch run stops at a misprediction or
#: a squash in hardware too
_ENDS_TRACE = F_MISPREDICT | F_SQUASHED


@dataclass(frozen=True)
class TraceCacheConfig:
    """Geometry of the trace cache (defaults follow Rotenberg's 64-entry,
    16-instruction traces of up to 3 basic blocks)."""

    entries: int = 64
    max_blocks: int = 3
    max_ops: int = 16


class TraceCacheFetch:
    """Merges fetch units along cached traces; counts hits and fills."""

    def __init__(self, config: TraceCacheConfig | None = None):
        self.config = config or TraceCacheConfig()
        #: start addr -> tuple of following unit addresses (the trace id)
        self._cache: OrderedDict[int, tuple[int, ...]] = OrderedDict()
        self.lookups = 0
        self.hits = 0
        self.fills = 0
        self.merged_units = 0

    # ------------------------------------------------------------------

    def _lookup(self, addr: int) -> tuple[int, ...] | None:
        trace = self._cache.get(addr)
        if trace is not None:
            self._cache.move_to_end(addr)
        return trace

    def _fill(self, addr: int, trace: tuple[int, ...]) -> None:
        if addr in self._cache and self._cache[addr] == trace:
            return
        self._cache[addr] = trace
        self._cache.move_to_end(addr)
        self.fills += 1
        while len(self._cache) > self.config.entries:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------

    def transform(self, trace: PackedTrace) -> PackedTrace:
        """*trace* as fetched behind the trace cache.

        The stream is cut into fetch runs, each ending after
        ``max_blocks`` units, at ``max_ops`` ops or at a mispredicted or
        squashed unit, and each looked up by its first address. A run of
        two or more units within ``max_ops`` whose following addresses
        match the cached trace becomes one unit; otherwise its units
        pass through, and such a run fills the cache.
        """
        max_blocks, max_ops = self.config.max_blocks, self.config.max_ops
        addr, size = trace.unit_addr, trace.unit_size
        resolve, flags = trace.unit_resolve, trace.unit_flags
        op_start = trace.unit_op_start
        out = PackedTrace(
            array("q"), array("q"), array("q"), array("B"), array("q", [0]),
            trace.op_uid, trace.op_lat, trace.op_mem, trace.op_flags,
            trace.op_dep_start, trace.deps,
        )
        n = len(addr)
        first = 0
        for end in range(1, n + 1):
            ops = op_start[end] - op_start[first]
            if (
                end < n and end - first < max_blocks and ops < max_ops
                and not flags[end - 1] & _ENDS_TRACE
            ):
                continue
            self.lookups += 1
            cached = self._lookup(addr[first])
            follow = tuple(addr[first + 1:end])
            # Only a run's last unit can end a trace, so no merged unit
            # extends past a misprediction or squash.
            if follow and ops <= max_ops:
                if cached == follow:
                    self.hits += 1
                    self.merged_units += 1
                    last = end - 1
                    out.unit_addr.append(addr[first])
                    out.unit_size.append(sum(size[first:end]))
                    out.unit_resolve.append(
                        op_start[last] - op_start[first] + resolve[last]
                        if resolve[last] >= 0 else -1
                    )
                    out.unit_flags.append(flags[last] & _ENDS_TRACE)
                    out.unit_op_start.append(op_start[end])
                    first = end
                    continue
                self._fill(addr[first], follow)
            out.unit_addr += addr[first:end]
            out.unit_size += size[first:end]
            out.unit_resolve += resolve[first:end]
            out.unit_flags += flags[first:end]
            out.unit_op_start += op_start[first + 1:end + 1]
            first = end
        return out

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def publish(self, metrics, **labels) -> None:
        """Publish lookup/hit/fill counters into a metrics registry
        (same idiom as :meth:`repro.sim.cache.Cache.publish`)."""
        metrics.inc("tracecache.lookups", self.lookups, **labels)
        metrics.inc("tracecache.hits", self.hits, **labels)
        metrics.inc("tracecache.fills", self.fills, **labels)
        metrics.inc("tracecache.merged_units", self.merged_units, **labels)
        metrics.gauge("tracecache.hit_rate", self.hit_rate, **labels)


def replay_with_trace_cache(
    captured: CapturedRun,
    config: MachineConfig | None = None,
    trace_config: TraceCacheConfig | None = None,
    telemetry: Telemetry | None = None,
    kernel: str = "auto",
) -> tuple[SimResult, TraceCacheFetch]:
    """Timed run of a captured conventional run behind a trace cache.

    *config* must share the capture's
    :func:`~repro.sim.run.predictor_key`, as for
    :func:`~repro.sim.run.replay_captured`. Returns ``(SimResult,
    TraceCacheFetch)``, the result labelled ``conventional+tc`` and the
    fetch model carrying the hit/fill statistics. The replay publishes
    nothing; when a telemetry session is active, the ``tracecache.*``
    counters are published under the benchmark label.
    """
    if captured.isa != "conventional":
        raise SimulationError(
            f"the trace cache fronts the conventional ISA, not "
            f"{captured.isa!r}"
        )
    fetch = TraceCacheFetch(trace_config)
    merged = replace(captured, trace=fetch.transform(captured.trace))
    result = replay_captured(merged, config, DISABLED, kernel=kernel)
    result.isa = "conventional+tc"
    tel = telemetry if telemetry is not None else get_telemetry()
    if tel.enabled:
        fetch.publish(tel.metrics, benchmark=captured.name)
    return result, fetch
