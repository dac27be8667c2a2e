"""Cycle-level timing simulation.

The simulator is *functional-directed*: the executors in
:mod:`repro.exec` produce the dynamic fetch-unit stream (with predictor
interplay) as a :class:`PackedTrace`, and :mod:`repro.sim.engine` (the
scalar reference) or :mod:`repro.sim.vector` (the fast kernel) replays
it through fetch (icache), dispatch (instruction window), dataflow issue
(16 uniform FUs, Table-1 latencies), dcache, misprediction redirects,
and in-order retirement.
See DESIGN.md §6 for the methodology discussion.
"""

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.cache import Cache, PerfectCache
from repro.sim.engine import TimingEngine, TimingStats
from repro.sim.fusched import FuSchedule
from repro.sim.packed import PackedTrace
from repro.sim.run import (
    CapturedRun,
    PredictorSnapshot,
    SimResult,
    capture_block_structured,
    capture_conventional,
    capture_run,
    predictor_key,
    replay_captured,
    simulate_block_structured,
    simulate_conventional,
)
from repro.sim.predictors import (
    BlockPredictor,
    GsharePredictor,
    StaticTakenPredictor,
)
from repro.sim.tracecache import (
    TraceCacheConfig,
    TraceCacheFetch,
    replay_with_trace_cache,
)

__all__ = [
    "TraceCacheConfig",
    "TraceCacheFetch",
    "replay_with_trace_cache",
    "CacheConfig",
    "MachineConfig",
    "Cache",
    "PerfectCache",
    "TimingEngine",
    "TimingStats",
    "FuSchedule",
    "PackedTrace",
    "CapturedRun",
    "PredictorSnapshot",
    "SimResult",
    "capture_conventional",
    "capture_block_structured",
    "capture_run",
    "predictor_key",
    "replay_captured",
    "simulate_conventional",
    "simulate_block_structured",
    "GsharePredictor",
    "BlockPredictor",
    "StaticTakenPredictor",
]
