"""Streaming per-unit analytics aggregator for the timing engine.

An :class:`InsightCollector` rides along one timed replay — scalar
(:meth:`~repro.sim.engine.TimingEngine.run_packed`) or vectorized
(:mod:`repro.sim.vector`) — and accumulates
the two observability products of docs/observability.md:

* the **fetch-rate histogram**: ops delivered per *busy* fetch cycle
  (a unit spanning extra icache lines delivers all its ops on the last
  line cycle; the earlier line cycles deliver zero), plus per-unit
  fetched/retired size distributions for enlarged-block utilization;
* the **cycle-accounting stack**: every simulated cycle in exactly one
  bucket. The engine's fetch stage is fully serialized (one unit in
  flight), so the fetch timeline tiles exactly into per-unit segments
  ``gap + fetch_cycles + icache stall`` and the identity
  ``sum(buckets) == cycles`` holds by construction.

Gap attribution is causal: a fetch gap opened by a redirecting unit is
charged first to that unit's own window-dispatch delay (the window was
full, delaying resolution), then to the redirect kind — mispredict
refill (``redirect_stall``) or fault-squash recovery
(``squash_recovery``).

The hook cost when disabled is one ``is not None`` test per fetch unit
in the engine loop; the collector itself is never allocated.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.sim.config import MachineConfig

_MISPREDICT = 1
_FAULT = 2


class InsightCollector:
    """Accumulates one run's analytics; feed with :meth:`unit` per fetch
    unit in stream order, then :meth:`finish` once, then :meth:`report`."""

    __slots__ = (
        "busy_fetch",
        "icache_stall",
        "redirect_stall",
        "window_stall",
        "squash_recovery",
        "drain",
        "cycles",
        "fetched_units",
        "squashed_units",
        "fetched_ops",
        "retired_ops",
        "squashed_ops",
        "fetch_hist",
        "unit_fetched",
        "unit_retired",
        "_pending",
        "_pending_window",
    )

    def __init__(self):
        self.busy_fetch = 0
        self.icache_stall = 0
        self.redirect_stall = 0
        self.window_stall = 0
        self.squash_recovery = 0
        self.drain = 0
        self.cycles = 0
        self.fetched_units = 0
        self.squashed_units = 0
        self.fetched_ops = 0
        self.retired_ops = 0
        self.squashed_ops = 0
        self.fetch_hist: dict[int, int] = {}
        self.unit_fetched: dict[int, int] = {}
        self.unit_retired: dict[int, int] = {}
        self._pending = 0
        self._pending_window = 0

    def unit(
        self,
        gap: int,
        fetch_cycles: int,
        stall: int,
        nops: int,
        window_delay: int,
        squashed,
        mispredict,
    ) -> None:
        """One fetch unit: *gap* idle fetch cycles before it, its
        *fetch_cycles* busy line cycles, *stall* icache-miss cycles,
        *nops* ops, the cycles its dispatch waited on a full window, and
        its outcome flags (any truthy value)."""
        if gap:
            # The gap was opened by the most recent redirecting unit;
            # its window wait delayed resolution, the rest is refill.
            w = self._pending_window
            if w > gap:
                w = gap
            self.window_stall += w
            if self._pending == _FAULT:
                self.squash_recovery += gap - w
            else:
                self.redirect_stall += gap - w
        self.busy_fetch += fetch_cycles
        self.icache_stall += stall
        self.fetched_units += 1
        self.fetched_ops += nops
        hist = self.fetch_hist
        if fetch_cycles > 1:
            hist[0] = hist.get(0, 0) + fetch_cycles - 1
        hist[nops] = hist.get(nops, 0) + 1
        fetched = self.unit_fetched
        fetched[nops] = fetched.get(nops, 0) + 1
        if squashed:
            self.squashed_units += 1
            self.squashed_ops += nops
            self._pending = _FAULT
            self._pending_window = window_delay
        else:
            self.retired_ops += nops
            retired = self.unit_retired
            retired[nops] = retired.get(nops, 0) + 1
            if mispredict:
                self._pending = _MISPREDICT
                self._pending_window = window_delay

    def finish(self, cycles: int, fetch_span: int) -> None:
        """End of the stream: *cycles* is the run's total cycle count,
        *fetch_span* the length of the tiled fetch timeline (one past
        the last unit's fetch end); the difference is back-end drain."""
        self.cycles = cycles
        self.drain = cycles - fetch_span

    def report(
        self,
        benchmark: str,
        isa: str,
        config: MachineConfig | None = None,
    ):
        """Freeze the accumulated counters into an
        :class:`~repro.insight.report.InsightReport`."""
        from repro.insight.report import InsightReport

        return InsightReport(
            benchmark=benchmark,
            isa=isa,
            cycles=self.cycles,
            busy_fetch=self.busy_fetch,
            icache_stall=self.icache_stall,
            redirect_stall=self.redirect_stall,
            window_stall=self.window_stall,
            squash_recovery=self.squash_recovery,
            drain=self.drain,
            fetched_units=self.fetched_units,
            squashed_units=self.squashed_units,
            fetched_ops=self.fetched_ops,
            retired_ops=self.retired_ops,
            squashed_ops=self.squashed_ops,
            fetch_hist=dict(self.fetch_hist),
            unit_fetched=dict(self.unit_fetched),
            unit_retired=dict(self.unit_retired),
            config=asdict(config) if config is not None else None,
        )
