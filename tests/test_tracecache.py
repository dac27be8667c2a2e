"""Trace-cache fetch-model tests (paper §3 comparison point)."""

import pytest

from repro.engine import ExperimentEngine, RunSpec
from repro.errors import SimulationError
from repro.exec.trace import DynOp, FetchUnit
from repro.sim.config import MachineConfig
from repro.sim.packed import PackedTrace
from repro.sim.tracecache import (
    TraceCacheConfig,
    TraceCacheFetch,
    replay_with_trace_cache,
)


def unit(addr, n_ops, uid0, **kw):
    ops = [DynOp(1, (), uid=uid0 + i) for i in range(n_ops)]
    return FetchUnit(addr, n_ops * 4, ops, **kw)


def transform(fetch, units):
    """*units* packed, merged by *fetch*, and read back as units."""
    return list(fetch.transform(PackedTrace.capture(units)).units())


def loop_stream(repeats=10):
    """The same 3-unit loop body, repeated."""
    units = []
    uid = 0
    for _ in range(repeats):
        for addr, n in ((0x1000, 4), (0x1020, 5), (0x1040, 3)):
            units.append(unit(addr, n, uid))
            uid += n
    return units


def test_ops_preserved_through_transform():
    fetch = TraceCacheFetch()
    merged = transform(fetch, loop_stream())
    in_ops = sum(len(u.ops) for u in loop_stream())
    out_ops = sum(len(u.ops) for u in merged)
    assert in_ops == out_ops
    uids = [op.uid for u in merged for op in u.ops]
    assert uids == sorted(uids)


def test_repeating_trace_learns_then_hits():
    fetch = TraceCacheFetch()
    merged = transform(fetch, loop_stream(10))
    assert fetch.fills >= 1
    assert fetch.hits >= 8  # first pass fills, later passes hit
    assert fetch.merged_units == fetch.hits
    assert len(merged) < 30  # some 3-unit runs became single units


def test_trace_limits_respected():
    config = TraceCacheConfig(max_blocks=2, max_ops=8)
    fetch = TraceCacheFetch(config)
    merged = transform(fetch, loop_stream(10))
    for u in merged:
        assert len(u.ops) <= 8


def test_mispredicted_unit_terminates_trace():
    units = loop_stream(6)
    for u in units:
        if u.addr == 0x1020:
            u.mispredict = True
            u.resolve_index = len(u.ops) - 1
    fetch = TraceCacheFetch()
    merged = transform(fetch, units)
    # no merged unit may contain a misprediction before its last op
    for u in merged:
        if u.mispredict:
            assert u.resolve_index == len(u.ops) - 1


def test_capacity_eviction():
    config = TraceCacheConfig(entries=2)
    fetch = TraceCacheFetch(config)
    # three distinct traces, round-robin: with 2 entries, hits stay rare
    units = []
    uid = 0
    for _ in range(6):
        for base in (0x1000, 0x2000, 0x3000):
            for k in range(3):
                units.append(unit(base + k * 0x20, 4, uid))
                uid += 4
    transform(fetch, units)
    assert fetch.hit_rate < 0.5


def test_merged_trace_shares_the_op_columns():
    """Merging never reorders ops: the merged trace gets new unit
    columns only, and the merged units hold exactly the ops they
    replace."""
    trace = PackedTrace.capture(loop_stream(10))
    merged = TraceCacheFetch().transform(trace)
    assert merged.op_lat is trace.op_lat
    assert merged.deps is trace.deps
    assert merged.unit_addr is not trace.unit_addr
    assert merged.num_units < trace.num_units
    assert [op.uid for u in merged.units() for op in u.ops] == [
        op.uid for u in trace.units() for op in u.ops
    ]


def test_timed_run_outputs_match_and_speed_up():
    engine = ExperimentEngine(scale=0.15)
    spec = RunSpec("m88ksim", "conventional", MachineConfig())
    base = engine.run(spec)
    with_tc, fetch = replay_with_trace_cache(
        engine.captured_run(spec), MachineConfig()
    )
    assert with_tc.isa == "conventional+tc"
    assert with_tc.outputs == base.outputs
    assert fetch.hit_rate > 0.2
    assert with_tc.cycles < base.cycles  # repetitive code: the TC helps


def test_trace_cache_cannot_slow_fetch_dramatically():
    engine = ExperimentEngine(scale=0.1)
    spec = RunSpec("go", "conventional", MachineConfig())
    base = engine.run(spec)
    with_tc, _ = replay_with_trace_cache(
        engine.captured_run(spec), MachineConfig()
    )
    assert with_tc.cycles <= base.cycles * 1.05


def test_trace_cache_fronts_only_the_conventional_isa():
    engine = ExperimentEngine(scale=0.05)
    captured = engine.captured_run(RunSpec("compress", "block"))
    with pytest.raises(SimulationError, match="conventional ISA"):
        replay_with_trace_cache(captured)
