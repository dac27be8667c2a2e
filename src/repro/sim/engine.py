"""The timing engine: replays a captured fetch-unit stream through the
machine model and produces a cycle count.

:meth:`TimingEngine.run_packed` is the scalar reference: one forward
pass over the columns of a :class:`~repro.sim.packed.PackedTrace`
(DESIGN.md §6). :mod:`repro.sim.vector` is the fast kernel, held
bit-identical to it. Per unit:

* **fetch** — one unit per cycle, at most ``fetch_lines`` contiguous
  icache lines; spanning more lines costs extra cycles; an icache miss
  stalls for the L2 latency; a prior misprediction/fault delays the fetch
  until the resolving op completed plus the refill penalty;
* **dispatch** — ``frontend_depth`` cycles after fetch, gated by the
  instruction window (512 ops conventional, 32 blocks BS);
* **issue/execute** — an op starts when its operands are ready (producer
  completion times, carried by the trace's dataflow edges) and a function
  unit is free that cycle (16 uniform FUs); loads probe the dcache at
  issue and pay the L2 latency on a miss;
* **retire** — in order, ``retire_width`` ops per cycle; atomic units
  retire whole blocks; squashed units release their window slots when
  the fault resolves and never retire.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.obs.events import (
    EV_FAULT_SQUASH,
    EV_FETCH,
    EV_ICACHE_MISS,
    EV_REDIRECT,
    EV_RETIRE,
)
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.sim.cache import Cache, PerfectCache
from repro.sim.config import MachineConfig
from repro.sim.fusched import FuSchedule
from repro.sim.packed import F_ATOMIC, F_MISPREDICT, F_SQUASHED, PackedTrace


@dataclass
class TimingStats:
    """Cycle-level counters from one timed run."""

    cycles: int = 0
    fetched_units: int = 0
    fetched_ops: int = 0
    retired_ops: int = 0
    squashed_ops: int = 0
    icache_accesses: int = 0
    icache_misses: int = 0
    dcache_accesses: int = 0
    dcache_misses: int = 0
    redirects: int = 0
    fetch_stall_cycles: int = 0
    #: cycles dispatch waited on a full window (sum over units)
    window_stall_cycles: int = 0
    #: cycles fetch waited on misprediction/fault redirects
    redirect_stall_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.retired_ops / self.cycles if self.cycles else 0.0

    @property
    def icache_miss_rate(self) -> float:
        if not self.icache_accesses:
            return 0.0
        return self.icache_misses / self.icache_accesses

    @property
    def dcache_miss_rate(self) -> float:
        if not self.dcache_accesses:
            return 0.0
        return self.dcache_misses / self.dcache_accesses

    @property
    def squash_rate(self) -> float:
        """Fraction of fetched ops squashed by a firing fault."""
        if not self.fetched_ops:
            return 0.0
        return self.squashed_ops / self.fetched_ops

    #: counter fields published verbatim into the metrics registry
    _COUNTER_FIELDS = (
        "cycles", "fetched_units", "fetched_ops", "retired_ops",
        "squashed_ops", "icache_accesses", "icache_misses",
        "dcache_accesses", "dcache_misses", "redirects",
        "fetch_stall_cycles", "window_stall_cycles",
        "redirect_stall_cycles",
    )

    def publish(self, metrics, **labels) -> None:
        """Publish every counter (and derived ratios as gauges) into a
        :class:`repro.obs.MetricsRegistry` under ``sim.*``/*labels*."""
        for name in self._COUNTER_FIELDS:
            metrics.inc(f"sim.{name}", getattr(self, name), **labels)
        metrics.gauge("sim.ipc", self.ipc, **labels)
        metrics.gauge("sim.icache_miss_rate", self.icache_miss_rate, **labels)
        metrics.gauge("sim.dcache_miss_rate", self.dcache_miss_rate, **labels)
        metrics.gauge("sim.squash_rate", self.squash_rate, **labels)


class TimingEngine:
    """Replays a packed fetch-unit stream; produces :class:`TimingStats`."""

    def __init__(
        self,
        config: MachineConfig,
        atomic_window: bool = False,
        telemetry: Telemetry | None = None,
        insight=None,
    ):
        self.config = config
        self.atomic_window = atomic_window
        self.telemetry = telemetry
        #: optional repro.insight.InsightCollector fed by both replay
        #: kernels; disabled cost is one None-check per fetch unit
        self.insight = insight
        self.icache = (
            Cache(config.icache) if config.icache is not None else PerfectCache()
        )
        self.dcache = (
            Cache(config.dcache) if config.dcache is not None else PerfectCache()
        )
        self.stats = TimingStats()
        #: ``(path, reason)`` naming the replay pass that filled
        #: :attr:`stats` (repro.sim.vector.KERNEL_PATHS); set by
        #: repro.sim.run.replay_captured and the vector kernel
        self.kernel_path: tuple[str, str | None] | None = None

    def run_packed(self, trace: PackedTrace) -> TimingStats:
        """Replay a :class:`~repro.sim.packed.PackedTrace`.

        Completion times live in a flat list indexed by dense op
        position, dependences are dense indices, icache line spans come
        from the trace's cached per-geometry columns, and the
        telemetry-off path does no per-event work.
        """
        config = self.config
        stats = self.stats
        icache = self.icache
        dcache = self.dcache
        atomic_window = self.atomic_window
        tel = self.telemetry if self.telemetry is not None else get_telemetry()
        # Hoisted once: the disabled path costs one None-check per event
        # site, never a call.
        events = tel.trace if tel.enabled else None
        ins = self.insight
        line_bytes = (
            config.icache.line_bytes if config.icache is not None else 64
        )
        fu_count = config.fu_count
        l2 = config.l2_latency
        depth = config.frontend_depth
        penalty = config.mispredict_penalty
        retire_width = config.retire_width
        fetch_lines = config.fetch_lines

        # Packed columns, hoisted to locals for the hot loop.
        unit_addr = trace.unit_addr
        unit_resolve = trace.unit_resolve
        unit_flags = trace.unit_flags
        unit_op_start = trace.unit_op_start
        op_lat = trace.op_lat
        op_mem = trace.op_mem
        op_flags = trace.op_flags
        op_dep_start = trace.op_dep_start
        dep_col = trace.deps
        first_lines, last_lines = trace.line_spans(line_bytes)
        icache_access = icache.access_line
        dcache_access = dcache.access
        push = heapq.heappush
        pop = heapq.heappop

        #: completion time per op, indexed by dense op position
        completion = [0] * trace.num_ops
        fu_sched = FuSchedule(fu_count)
        #: min-heap of window-slot release cycles (ops or blocks)
        window: list[int] = []
        window_capacity = (
            config.window_blocks if atomic_window else config.window_ops
        )
        # Both machines are "identically configured" (paper §5): the
        # conventional core also tracks at most window_blocks in-flight
        # fetch units (HPS checkpoints one unit per fetched block), in
        # addition to its op-granular window.
        unit_window: list[int] = []
        unit_capacity = config.window_blocks

        next_fetch = 0
        redirect_at = 0
        # retirement bookkeeping: (cycle, ops retired that cycle)
        retire_cycle = 0
        retire_count = 0
        max_cycle = 0

        for u in range(trace.num_units):
            lo = unit_op_start[u]
            hi = unit_op_start[u + 1]
            nops = hi - lo
            stats.fetched_units += 1
            stats.fetched_ops += nops
            uflags = unit_flags[u]
            squashed = uflags & F_SQUASHED
            atomic = uflags & F_ATOMIC
            addr = unit_addr[u]

            # ---- fetch -------------------------------------------------
            fetch = next_fetch if next_fetch >= redirect_at else redirect_at
            if redirect_at > next_fetch:
                gap = redirect_at - next_fetch
                stats.redirect_stall_cycles += gap
            else:
                gap = 0
            first_line = first_lines[u]
            last_line = last_lines[u]
            nlines = last_line - first_line + 1
            fetch_cycles = (nlines + fetch_lines - 1) // fetch_lines
            stall = 0
            stats.icache_accesses += nlines
            for line in range(first_line, last_line + 1):
                if not icache_access(line):
                    stats.icache_misses += 1
                    stall = l2
                    if events is not None:
                        events.emit(EV_ICACHE_MISS, fetch, line=line)
            stats.fetch_stall_cycles += stall + (fetch_cycles - 1)
            fetch_end = fetch + fetch_cycles - 1 + stall
            next_fetch = fetch_end + 1
            # Every FU access for this and all later units happens at or
            # after dispatch + 1 >= fetch_end + depth + 1, and fetch_end
            # is strictly monotonic — safe to slide the schedule window.
            fu_sched.advance_floor(fetch_end + depth + 1)
            if events is not None:
                events.emit(
                    EV_FETCH,
                    fetch,
                    addr=addr,
                    ops=nops,
                    lines=nlines,
                    unit=stats.fetched_units,
                )

            # ---- dispatch (window gating) --------------------------------
            dispatch = fetch_end + depth
            if atomic_window:
                if len(window) >= window_capacity:
                    released = pop(window)
                    if released > dispatch:
                        stats.window_stall_cycles += released - dispatch
                        dispatch = released
            else:
                if len(unit_window) >= unit_capacity:
                    released = pop(unit_window)
                    if released > dispatch:
                        stats.window_stall_cycles += released - dispatch
                        dispatch = released

            # ---- issue / execute / retire --------------------------------
            resolve_index = unit_resolve[u]
            resolve_complete = -1
            block_last = dispatch
            for i in range(lo, hi):
                if not atomic_window:
                    if len(window) >= window_capacity:
                        released = pop(window)
                        if released > dispatch:
                            dispatch = released
                ready = dispatch + 1
                for d in range(op_dep_start[i], op_dep_start[i + 1]):
                    t = completion[dep_col[d]]
                    if t > ready:
                        ready = t
                start = fu_sched.reserve(ready)
                lat = op_lat[i]
                mem = op_mem[i]
                if mem >= 0:
                    stats.dcache_accesses += 1
                    if not dcache_access(mem):
                        stats.dcache_misses += 1
                        if op_flags[i] & 1:  # OPF_LOAD
                            lat += l2
                complete = start + lat
                completion[i] = complete
                if complete > block_last:
                    block_last = complete
                if i - lo == resolve_index:
                    resolve_complete = complete
                if not atomic and not squashed:
                    # In-order per-op retirement.
                    r = max(complete + 1, retire_cycle)
                    if r == retire_cycle and retire_count >= retire_width:
                        r += 1
                    if r > retire_cycle:
                        retire_cycle = r
                        retire_count = 0
                    retire_count += 1
                if not atomic_window and not squashed:
                    # Op-granular window slot frees at (estimated) retire.
                    push(
                        window,
                        retire_cycle if not atomic else complete + 1,
                    )
            if not atomic_window:
                # The whole fetch unit's checkpoint frees when its last op
                # retires (or, for a squashed unit, at resolve — below).
                if not squashed:
                    push(unit_window, retire_cycle)
            if ins is not None:
                # Before the squash branch: squashed units never reach
                # the retire section below.
                ins.unit(
                    gap,
                    fetch_cycles,
                    stall,
                    nops,
                    dispatch - fetch_end - depth,
                    squashed,
                    uflags & F_MISPREDICT,
                )

            # ---- resolution / redirect ----------------------------------
            if squashed:
                if resolve_complete < 0:
                    raise SimulationError("squashed unit without resolve op")
                stats.redirects += 1
                stats.squashed_ops += nops
                if events is not None:
                    events.emit(
                        EV_FAULT_SQUASH,
                        resolve_complete + 1,
                        addr=addr,
                        ops=nops,
                        unit=stats.fetched_units,
                    )
                # A firing fault redirects to the (architecturally
                # specified) target in the fault op itself — no front-end
                # re-steer through prediction structures, so no extra
                # refill penalty beyond resolution.
                redirect_at = resolve_complete + 1
                release = resolve_complete + 1
                if atomic_window:
                    push(window, release)
                else:
                    for _ in range(nops):
                        push(window, release)
                    push(unit_window, release)
                if release > max_cycle:
                    max_cycle = release
                continue
            if uflags & F_MISPREDICT:
                if resolve_complete < 0:
                    raise SimulationError("mispredict without resolve op")
                stats.redirects += 1
                redirect_at = resolve_complete + 1 + penalty
                if events is not None:
                    events.emit(
                        EV_REDIRECT,
                        redirect_at,
                        addr=addr,
                        penalty=penalty,
                        unit=stats.fetched_units,
                    )

            # ---- retire (atomic blocks commit together) -------------------
            if atomic:
                # All of the block's ops become eligible to retire once the
                # whole block has completed (atomic commit); the retire
                # stage still moves at most retire_width ops per cycle.
                block_done = block_last + 1
                for _ in range(nops):
                    r = max(block_done, retire_cycle)
                    if r == retire_cycle and retire_count >= retire_width:
                        r += 1
                    if r > retire_cycle:
                        retire_cycle = r
                        retire_count = 0
                    retire_count += 1
            if atomic_window:
                # Block-granular window slot frees when the unit retires.
                push(window, retire_cycle)
            stats.retired_ops += nops
            if events is not None:
                events.emit(
                    EV_RETIRE,
                    retire_cycle,
                    addr=addr,
                    ops=nops,
                    atomic=bool(atomic),
                    unit=stats.fetched_units,
                )
            if retire_cycle > max_cycle:
                max_cycle = retire_cycle

            if next_fetch - 1 > max_cycle:
                max_cycle = next_fetch - 1

        stats.cycles = max_cycle + 1
        if ins is not None:
            ins.finish(stats.cycles, next_fetch)
        return stats
