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

Implemented as a stream transformer: it merges consecutive
:class:`~repro.exec.trace.FetchUnit` records into one unit on a hit.
The merged stream is packed with
:meth:`~repro.sim.packed.PackedTrace.capture` and replayed by the
ordinary :meth:`~repro.sim.engine.TimingEngine.run_packed`, unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.exec.trace import FetchUnit
from repro.obs.telemetry import get_telemetry
from repro.sim.config import MachineConfig
from repro.sim.engine import TimingEngine
from repro.sim.packed import PackedTrace
from repro.sim.run import _conventional_executor, _conventional_result


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

    def transform(self, units: Iterable[FetchUnit]) -> Iterator[FetchUnit]:
        """Yield units, merging runs that hit in the trace cache."""
        config = self.config
        pending: list[FetchUnit] = []

        def trace_of(run: list[FetchUnit]) -> tuple[int, ...]:
            return tuple(u.addr for u in run[1:])

        def mergeable(run: list[FetchUnit]) -> bool:
            if len(run) < 2:
                return False
            if sum(len(u.ops) for u in run) > config.max_ops:
                return False
            # A trace must not extend past an in-trace misprediction or
            # squash: those units end the fetch run in hardware too.
            return not any(u.mispredict or u.squashed for u in run[:-1])

        def merge(run: list[FetchUnit]) -> FetchUnit:
            ops = [op for u in run for op in u.ops]
            last = run[-1]
            offset = sum(len(u.ops) for u in run[:-1])
            resolve = (
                offset + last.resolve_index if last.resolve_index >= 0 else -1
            )
            self.merged_units += 1
            return FetchUnit(
                run[0].addr,
                sum(u.size_bytes for u in run),
                ops,
                mispredict=last.mispredict,
                squashed=last.squashed,
                resolve_index=resolve,
                atomic=False,
            )

        def flush() -> Iterator[FetchUnit]:
            """Resolve the pending run: hit -> merged unit; miss -> fill
            the trace and emit the units one by one."""
            if not pending:
                return
            head = pending[0]
            self.lookups += 1
            cached = self._lookup(head.addr)
            if (
                cached is not None
                and cached == trace_of(pending)
                and mergeable(pending)
            ):
                self.hits += 1
                yield merge(pending)
            else:
                if mergeable(pending):
                    self._fill(head.addr, trace_of(pending))
                yield from pending
            pending.clear()

        for unit in units:
            pending.append(unit)
            run_full = (
                len(pending) >= config.max_blocks
                or sum(len(u.ops) for u in pending) >= config.max_ops
                or unit.mispredict
                or unit.squashed
            )
            if run_full:
                yield from flush()
        yield from flush()

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


def simulate_conventional_with_trace_cache(
    prog,
    machine_config=None,
    trace_config: TraceCacheConfig | None = None,
    telemetry=None,
):
    """Timed run of a conventional program behind a trace cache.

    Returns ``(SimResult, TraceCacheFetch)`` — the fetch model carries
    the hit/fill statistics. When a telemetry session is active its
    ``tracecache.*`` counters are published under the benchmark label.
    """
    machine_config = machine_config or MachineConfig()
    executor, predictor = _conventional_executor(prog, machine_config)
    fetch = TraceCacheFetch(trace_config)
    trace = PackedTrace.capture(fetch.transform(executor.units()))
    timing = TimingEngine(machine_config).run_packed(trace)
    result = _conventional_result(
        prog.name,
        timing,
        executor.stats,
        predictor.accuracy if predictor is not None else 1.0,
        prog.code_bytes,
    )
    result.isa = "conventional+tc"
    tel = telemetry if telemetry is not None else get_telemetry()
    if tel.enabled:
        fetch.publish(tel.metrics, benchmark=prog.name)
    return result, fetch
