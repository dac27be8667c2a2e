"""Timing-engine tests on hand-built fetch-unit streams.

Building synthetic streams lets every timing rule be checked in
isolation: fetch bandwidth, dataflow, FU contention, windows, redirects,
caches, and atomic retirement. Each stream is packed with
:meth:`PackedTrace.capture` and replayed by the scalar reference,
:meth:`TimingEngine.run_packed`.
"""

import pytest

from repro.exec.trace import DynOp, FetchUnit
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.engine import TimingEngine
from repro.sim.packed import PackedTrace


def op(uid, lat=1, deps=(), mem_addr=-1, is_load=False, is_store=False):
    return DynOp(lat, tuple(deps), mem_addr=mem_addr, is_load=is_load,
                 is_store=is_store, uid=uid)


def unit(addr, ops, **kw):
    return FetchUnit(addr, len(ops) * 4, ops, **kw)


def independent_stream(n_units=100, ops_per_unit=4):
    uid = 0
    units = []
    for i in range(n_units):
        ops = []
        for _ in range(ops_per_unit):
            ops.append(op(uid))
            uid += 1
        units.append(unit(0x1000 + i * ops_per_unit * 4, ops))
    return units


def run(units, config=None, atomic=False):
    # Perfect icache by default: these tests isolate non-fetch-stall rules;
    # the icache tests pass explicit configs.
    config = config or MachineConfig().with_icache_kb(None)
    if atomic:
        for u in units:
            u.atomic = True
    engine = TimingEngine(config, atomic_window=atomic)
    return engine.run_packed(PackedTrace.capture(units))


def test_fetch_bound_independent_stream():
    # 100 units of independent work: fetch of one unit per cycle dominates.
    stats = run(independent_stream(100, 4))
    assert 100 <= stats.cycles <= 112  # ~1 unit/cycle plus pipeline drain
    assert stats.retired_ops == 400


def test_serial_chain_paces_execution():
    # one long dependence chain, lat 3 each: cycles ~ 3 * n
    n = 50
    ops = [op(0, lat=3)] + [op(i, lat=3, deps=(i - 1,)) for i in range(1, n)]
    units = [unit(0x1000 + i * 4, [o]) for i, o in enumerate(ops)]
    stats = run(units)
    assert stats.cycles >= 3 * n
    assert stats.cycles <= 3 * n + 20


def test_fu_contention_limits_throughput():
    # 64 independent ops in 4 units of 16: with only 2 FUs they need >= 32
    # execution cycles.
    uid = 0
    units = []
    for i in range(4):
        ops = [op(uid + k) for k in range(16)]
        uid += 16
        units.append(unit(0x1000 + i * 64, ops))
    config = MachineConfig(fu_count=2).with_icache_kb(None)
    stats = run(units, config)
    assert stats.cycles >= 32


def test_mispredict_redirect_stalls_fetch():
    base = independent_stream(20, 4)
    flagged = independent_stream(20, 4)
    for u in flagged:
        u.mispredict = True
        u.resolve_index = len(u.ops) - 1
    clean = run(base).cycles
    dirty = run(flagged).cycles
    penalty = MachineConfig().mispredict_penalty
    assert dirty > clean + 19 * penalty / 2
    assert run(flagged).redirects == 20


def test_squashed_units_never_retire():
    units = independent_stream(10, 4)
    units[4].squashed = True
    units[4].resolve_index = 0
    stats = run(units, atomic=True)
    assert stats.retired_ops == 36
    assert stats.squashed_ops == 4
    assert stats.redirects == 1


def test_squashed_unit_requires_resolve_op():
    units = independent_stream(3, 2)
    units[1].squashed = True  # resolve_index left at -1
    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        run(units, atomic=True)


def test_icache_miss_stalls_fetch():
    # Touch 64 distinct lines with a 2-line (128B) icache: every fetch misses.
    tiny = MachineConfig(icache=CacheConfig(128, 1, 64))
    units = []
    for i in range(64):
        units.append(unit(0x1000 + i * 64, [op(i)]))
    stats = run(units, tiny)
    assert stats.icache_misses >= 63
    big = run([unit(0x1000 + i * 64, [op(i)]) for i in range(64)]).cycles
    assert stats.cycles > big + 50  # ~l2_latency per miss


def test_perfect_icache_mode():
    config = MachineConfig().with_icache_kb(None)
    units = independent_stream(50, 4)
    stats = run(units, config)
    assert stats.icache_misses == 0


def test_dcache_miss_adds_load_latency():
    config = MachineConfig(dcache=CacheConfig(128, 1, 64)).with_icache_kb(None)
    # serial chain of loads to distinct lines -> every load misses
    n = 20
    ops = [op(0, lat=2, mem_addr=0, is_load=True)]
    for i in range(1, n):
        ops.append(op(i, lat=2, deps=(i - 1,), mem_addr=i * 4096, is_load=True))
    units = [unit(0x1000, ops[:16]), unit(0x1040, ops[16:])]
    stats = run(units, config)
    assert stats.dcache_misses >= n - 1
    assert stats.cycles >= n * (2 + config.l2_latency) - 8


def test_two_line_unit_fetches_in_one_cycle():
    # unit spanning 2 lines still fetches 1/cycle with fetch_lines=2
    units = [unit(0x1000 + i * 96, [op(i * 2), op(i * 2 + 1)]) for i in range(50)]
    for u in units:
        u.size_bytes = 96  # force 2-line span
    stats = run(units)
    assert stats.cycles <= 70


def test_atomic_retire_waits_for_whole_block():
    # block with one slow op: all 4 ops retire together after it completes
    ops = [op(0), op(1, lat=8), op(2), op(3)]
    stats = run([unit(0x1000, ops)], atomic=True)
    slow_only = run([unit(0x1000, [op(0, lat=8)])], atomic=True)
    assert stats.cycles >= slow_only.cycles


def test_block_window_gates_dispatch():
    # 64 single-op blocks, each op slow: a 4-block window forces batching.
    config = MachineConfig(window_blocks=4).with_icache_kb(None)
    units = [unit(0x1000 + i * 4, [op(i, lat=10)]) for i in range(64)]
    gated = run(units, config, atomic=True).cycles
    free = run(
        [unit(0x1000 + i * 4, [op(i, lat=10)]) for i in range(64)],
        MachineConfig(window_blocks=10_000).with_icache_kb(None),
        atomic=True,
    ).cycles
    assert gated > free


def test_unit_window_gates_conventional_dispatch():
    config = MachineConfig(window_blocks=4).with_icache_kb(None)
    units = [unit(0x1000 + i * 4, [op(i, lat=10)]) for i in range(64)]
    gated = run(units, config).cycles
    free = run(
        [unit(0x1000 + i * 4, [op(i, lat=10)]) for i in range(64)],
        MachineConfig(window_blocks=10_000).with_icache_kb(None),
    ).cycles
    assert gated > free


def test_retire_width_bounds_throughput():
    config = MachineConfig(retire_width=2).with_icache_kb(None)
    stats = run(independent_stream(50, 8), config)
    # 400 ops at <= 2 retires/cycle need >= 200 cycles
    assert stats.cycles >= 200


def test_stats_consistency():
    units = independent_stream(30, 5)
    stats = run(units)
    assert stats.fetched_units == 30
    assert stats.fetched_ops == 150
    assert stats.retired_ops == 150
    assert stats.ipc == pytest.approx(150 / stats.cycles)
