"""Vectorized packed-trace replay: the hot loop at column speed.

:func:`replay_packed_vector` replays a :class:`~repro.sim.packed.PackedTrace`
on a :class:`~repro.sim.engine.TimingEngine` and produces
:class:`~repro.sim.engine.TimingStats` **bit-identical** to
``TimingEngine.run_packed`` — same integer counters, same event stream,
same :class:`~repro.insight.InsightCollector` feed. There is no
float-batching tolerance to document: every quantity the kernel computes
is integer arithmetic, so equality with the scalar replayer is exact,
not approximate (enforced by the three-way differential tests in
``tests/test_vector_kernel.py``).

The design splits the replay into two ingredients:

* **timing-independent precompute**, vectorized over whole columns and
  cached on the trace in two dicts, split by the columns they read:

  - ``PackedTrace._vprep`` holds what the op columns and the unit
    geometry decide, and a trace derived with new flags shares it
    (:meth:`~repro.sim.packed.PackedTrace.with_unit_flags`): the
    spine's four flat per-op int lists (the first three producers and
    the base latency; no per-op object) and ``extras`` (the producers
    past the third), the dcache access stream, the icache
    line spans and their flat access stream (:func:`span_lines`), each
    stream's consecutive-duplicate dedup, the saturating stack
    distances per ``(line_bytes, num_sets)`` group
    (:func:`_geom_distances`; cache behaviour is a pure function of the
    access *sequence*, never of prior hit results), and per geometry
    the icache and dcache outcomes, per-unit fetch costs and op
    latencies with dcache-miss penalties folded in;
  - ``PackedTrace._vflags`` holds what ``unit_flags``/``unit_resolve``
    decide and is never shared: the squash, mispredict and atomic marks
    and the resolve indices, plus this stream's one memo, the spine
    runs;

* **one exact serial spine per ISA**, carrying the values with genuine
  loop-carried dependences: fetch redirect chains, window gating,
  producer→consumer completion times over the dense dep edges,
  function-unit reservations and in-order retirement. Every cold spine
  models FU contention exactly, alone or within a sweep. The
  conventional spine (:func:`_conv_replay`) skips op-slot bookkeeping
  when the trace geometry proves the op window cannot bind; the BS-ISA
  spine (:func:`_block_replay`) retires each atomic block in O(1) by
  closed form.

Shapes the kernel does not model (mixed atomic/non-atomic streams,
malformed resolve indices, zero-op conventional units) make
:func:`replay_packed_vector` return ``None`` and the caller falls back
to the scalar replayer — never silently wrong, at worst slower.

``numpy`` is optional everywhere: when absent ``HAVE_NUMPY`` is False,
:func:`replay_packed_vector` returns ``None``, and
:func:`repro.sim.run.replay_captured` silently keeps using the scalar
loop (see docs/performance.md).
"""

from __future__ import annotations

import heapq

from repro.obs.events import (
    EV_FAULT_SQUASH,
    EV_FETCH,
    EV_ICACHE_MISS,
    EV_REDIRECT,
    EV_RETIRE,
)
from repro.obs.telemetry import get_telemetry
from repro.sim.cache import PerfectCache
from repro.sim.packed import F_ATOMIC, F_MISPREDICT, F_SQUASHED, PackedTrace

try:  # pragma: no cover - exercised via the monkeypatched-import tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when the vectorized kernel can run at all.
HAVE_NUMPY = _np is not None

#: Replays served by the vectorized kernel (tests assert it actually ran).
KERNEL_RUNS = 0
#: Replays the kernel declined (unsupported shape / numpy absent); the
#: caller falls back to ``TimingEngine.run_packed``.
FALLBACKS = 0

#: What ``engine.kernel_path[0]`` names after a replay: a spine result
#: reused from an identical earlier replay of the trace (``memo``), the
#: conventional windowed pass (``window_fu``) or the BS-ISA
#: atomic-window pass (``block_fu``), both with exact FU modeling, or
#: the scalar replayer.
KERNEL_PATHS = ("memo", "window_fu", "block_fu", "scalar")
#: Why a replay ran ``scalar`` (``engine.kernel_path[1]``): the caller
#: chose the python kernel, or one per site where the vector kernel
#: declines.
FALLBACK_REASONS = (
    "kernel_python", "no_numpy", "bad_resolve", "non_atomic_unit",
    "unit_shape",
)


# ---------------------------------------------------------------------------
# Primitives (property-tested against scalar references)
# ---------------------------------------------------------------------------


def span_lines(first, last):
    """Expand per-unit icache line spans ``[first, last]`` into the flat
    per-line access sequence the engine performs.

    Returns ``(flat, starts)``: ``flat`` holds every accessed line in
    stream order; unit *u* accesses ``flat[starts[u]:starts[u] +
    (last[u] - first[u] + 1)]``.
    """
    first = _np.asarray(first, dtype=_np.int64)
    last = _np.asarray(last, dtype=_np.int64)
    nlines = last - first + 1
    total = int(nlines.sum())
    starts = _np.cumsum(nlines) - nlines
    offsets = _np.arange(total, dtype=_np.int64) - _np.repeat(starts, nlines)
    return _np.repeat(first, nlines) + offsets, starts


def _mtf_distances(sub, num_sets, cap):
    """Saturating Mattson stack distances of a deduplicated stream.

    ``out[k]`` is the number of *distinct* same-set lines touched since
    the previous access to ``sub[k]`` (its depth in the per-set LRU
    stack), clipped at *cap*; cold misses report *cap*. Access *k* hits
    an ``assoc``-way LRU cache iff ``out[k] < assoc``, for every
    ``assoc <= cap``: the truncated stacks kept here are the top-*cap*
    prefix of the full LRU stacks (LRU stack inclusion), so depths
    below the cap are exact and anything deeper is a miss.
    """
    out = [cap] * len(sub)
    sets: dict = {}
    for k, line in enumerate(sub):
        s = line % num_sets
        ways = sets.get(s)
        if ways is None:
            sets[s] = [line]
            continue
        try:
            depth = ways.index(line)
        except ValueError:
            if len(ways) >= cap:
                ways.pop()
        else:
            out[k] = depth
            del ways[depth]
        ways.insert(0, line)
    return out


# ---------------------------------------------------------------------------
# Per-trace / per-geometry precompute (cached on the trace)
# ---------------------------------------------------------------------------


def _base_prep(trace: PackedTrace) -> dict:
    """Config-independent column decodings, cached on the trace.

    The decodings of the op columns and ``unit_op_start`` are cached in
    ``trace._vprep``, which a trace derived with new flags shares
    (:meth:`~repro.sim.packed.PackedTrace.with_unit_flags`); those of
    ``unit_flags``/``unit_resolve`` in ``trace._vflags``. The dict
    returned is ``trace._vflags`` holding both, and the spine runs of
    this stream are memoized in it.
    """
    prep = trace._vflags
    if prep:  # filled here in one step, before any memo lands in it
        return prep
    cols = trace._vprep.get("cols")
    if cols is None:
        cols = trace._vprep["cols"] = _column_prep(trace)
    uflags = _np.frombuffer(trace.unit_flags, dtype=_np.uint8)
    resolve = _np.frombuffer(trace.unit_resolve, dtype=_np.int64)
    squashed = (uflags & F_SQUASHED) != 0
    mispredict = (uflags & F_MISPREDICT) != 0
    atomic = (uflags & F_ATOMIC) != 0
    prep.update(cols)
    prep.update(
        squashed=squashed,
        mispredict=mispredict,
        atomic=atomic,
        sq_l=squashed.tolist(),
        mis_l=mispredict.tolist(),
        at_l=atomic.tolist(),
        res_l=resolve.tolist(),
        resolve=resolve,
        redirects=int((squashed | mispredict).sum()),
        squashed_ops=int(cols["nops"][squashed].sum()),
    )
    return prep


def _column_prep(trace: PackedTrace) -> dict:
    """The decodings of :func:`_base_prep` that no flag column enters."""
    n = trace.num_ops
    uos = _np.frombuffer(trace.unit_op_start, dtype=_np.int64)
    lat = _np.frombuffer(trace.op_lat, dtype=_np.int64)
    mem = _np.frombuffer(trace.op_mem, dtype=_np.int64)
    oflags = _np.frombuffer(trace.op_flags, dtype=_np.uint8)
    dep_start = _np.frombuffer(trace.op_dep_start, dtype=_np.int64)
    dep_col = _np.frombuffer(trace.deps, dtype=_np.int64)

    dep_count = _np.diff(dep_start)
    dbase = dep_start[:-1]

    def nth_dep(k):
        out = _np.full(n, -1, dtype=_np.int64)
        mask = dep_count > k
        out[mask] = dep_col[dbase[mask] + k]
        return out

    extras = {
        int(i): dep_col[dbase[i] + 3:dep_start[i + 1]].tolist()
        for i in _np.flatnonzero(dep_count > 3)
    }
    dmask = mem >= 0
    return {
        "uos": uos,
        "uos_l": uos.tolist(),
        "nops": _np.diff(uos),
        # The spine's flat per-op columns: the first three producers
        # (-1 when absent) and the base latency.
        "p1": nth_dep(0).tolist(),
        "p2": nth_dep(1).tolist(),
        "p3": nth_dep(2).tolist(),
        "lat": lat.tolist(),
        "extras": extras,
        "dmask": dmask,
        "dacc": int(dmask.sum()),
        "dmem": mem[dmask],
        "dload": (oflags[dmask] & 1) != 0,
    }


def _geom_distances(trace, kind, lines, line_bytes, num_sets, assoc):
    """Saturating stack distances for one access stream, cached on the trace.

    Keyed by ``(kind, line_bytes, num_sets)`` only — NOT by
    associativity — because a distance vector saturated at cap ``C``
    decides hits exactly for every ``assoc <= C`` (``dist < assoc``).
    A sweep whose geometries share a set count therefore pays one
    traversal at the group's maximum associativity; later requests with
    a larger associativity recompute and widen the cached cap.

    When the whole run's busiest set holds at most ``floor`` distinct
    lines and ``floor <= assoc``, LRU never evicts: every miss is a
    cold first reference and every warm access sits at depth
    ``< floor``. The cached vector is then synthesized vectorized
    (``cap`` for first references, ``floor - 1`` otherwise) instead of
    walked — classification-exact for any associativity in
    ``[floor, cap]``, which the cached ``floor`` records so a smaller
    associativity recomputes via the move-to-front walk.
    """
    key = (kind, line_bytes, num_sets)
    cached = trace._vprep.get(key)
    if cached is None or cached[1] < assoc or cached[2] > assoc:
        idx, sub, n, sub_arr = _dedup_stream(trace, kind, lines, line_bytes)
        cap = int(assoc)
        dist = _np.zeros(n, dtype=_np.int64)
        floor = 0
        if n:
            uniq = _np.unique(sub_arr)
            floor = int(_np.bincount(uniq % num_sets).max())
            if floor <= cap:
                order = _np.argsort(sub_arr, kind="stable")
                sv = sub_arr[order]
                lead = _np.empty(len(sv), dtype=bool)
                lead[0] = True
                _np.not_equal(sv[1:], sv[:-1], out=lead[1:])
                first = _np.zeros(len(sub_arr), dtype=bool)
                first[order[lead]] = True
                dist[idx] = _np.where(first, cap, floor - 1)
            else:
                floor = 0
                dist[idx] = _mtf_distances(sub, num_sets, cap)
        cached = (dist, cap, floor)
        trace._vprep[key] = cached
    return cached[0]


def _dedup_stream(trace, kind, lines, line_bytes):
    """Consecutive-duplicate dedup of one access stream, cached on the
    trace. Duplicates always hit at stack depth 0 whatever the set
    count, so only the deduplicated stream needs the move-to-front
    walk — and every set count in a sweep shares this one dedup."""
    key = (kind, line_bytes, "dedup")
    cached = trace._vprep.get(key)
    if cached is None:
        lines = _np.asarray(lines, dtype=_np.int64)
        n = len(lines)
        if n == 0:
            cached = (None, [], 0, None)
        else:
            keep = _np.empty(n, dtype=bool)
            keep[0] = True
            _np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            idx = _np.flatnonzero(keep)
            sub_arr = lines[idx]
            cached = (idx, sub_arr.tolist(), n, sub_arr)
        trace._vprep[key] = cached
    return cached


def _icache_spans(trace, line_bytes):
    """Per-unit first/last line spans, shared by every icache geometry."""
    key = ("icspan", line_bytes)
    prep = trace._vprep.get(key)
    if prep is None:
        first, last = trace.line_spans(line_bytes)
        first = _np.frombuffer(first, dtype=_np.int64)
        last = _np.frombuffer(last, dtype=_np.int64)
        nlines = last - first + 1
        prep = (first, last, nlines, int(nlines.sum()))
        trace._vprep[key] = prep
    return prep


def _icache_flat(trace, line_bytes):
    """Flat line-access stream + span starts, shared across geometries."""
    key = ("icflat", line_bytes)
    prep = trace._vprep.get(key)
    if prep is None:
        first, last, _, _ = _icache_spans(trace, line_bytes)
        prep = span_lines(first, last)
        trace._vprep[key] = prep
    return prep


def _icache_prep(trace, cache, line_bytes, want_flat):
    """Per-unit icache access counts and miss outcomes for a geometry."""
    perfect = isinstance(cache, PerfectCache)
    key = (
        ("ic", line_bytes)
        if perfect
        else ("ic", line_bytes, cache.num_sets, cache.config.assoc)
    )
    prep = trace._vprep.get(key)
    if prep is None:
        first, last, nlines, accesses = _icache_spans(trace, line_bytes)
        prep = {
            "first": first,
            "last": last,
            "nlines": nlines,
            "accesses": accesses,
        }
        if perfect:
            prep["unit_miss"] = _np.zeros(len(nlines), dtype=_np.int64)
            prep["misses"] = 0
        else:
            flat, starts = _icache_flat(trace, line_bytes)
            assoc = cache.config.assoc
            dist = _geom_distances(
                trace, "icdist", flat, line_bytes, cache.num_sets, assoc
            )
            miss = dist >= assoc
            prep["flat"] = flat
            prep["starts"] = starts
            prep["miss_flags"] = miss
            prep["unit_miss"] = (
                _np.add.reduceat(miss.astype(_np.int64), starts)
                if len(flat)
                else _np.zeros(len(nlines), dtype=_np.int64)
            )
            prep["misses"] = int(miss.sum())
        # Content key for fetch-prep / spine sharing across geometries
        # with identical per-unit miss counts (see _fetch_prep).
        prep["miss_key"] = prep["unit_miss"].tobytes()
        trace._vprep[key] = prep
    if want_flat and "flat" not in prep:
        flat, starts = _icache_flat(trace, line_bytes)
        prep["flat"] = flat
        prep["starts"] = starts
        prep["miss_flags"] = _np.zeros(len(flat), dtype=bool)
    return prep


def _dcache_prep(trace, base, cache, line_bytes):
    """Dcache miss outcomes (and which loads miss) for one geometry."""
    perfect = isinstance(cache, PerfectCache)
    key = (
        ("dc",)
        if perfect
        else ("dc", line_bytes, cache.num_sets, cache.config.assoc)
    )
    prep = trace._vprep.get(key)
    if prep is None:
        if perfect:
            prep = {"misses": 0, "miss_load_idx": ()}
        else:
            dlines = base["dmem"] // line_bytes
            assoc = cache.config.assoc
            dist = _geom_distances(
                trace, "dcdist", dlines, line_bytes, cache.num_sets, assoc
            )
            miss = dist >= assoc
            miss_load = _np.zeros(trace.num_ops, dtype=bool)
            miss_load[base["dmask"]] = miss & base["dload"]
            prep = {
                "misses": int(miss.sum()),
                "miss_load_idx": _np.flatnonzero(miss_load).tolist(),
            }
        trace._vprep[key] = prep
    return prep


def prepare_sweep(trace: PackedTrace, configs) -> int:
    """One-pass multi-geometry precompute for a config sweep.

    Groups the sweep's icache and dcache geometries by
    ``(line_bytes, num_sets)`` and runs ONE saturating stack-distance
    traversal per group at the group's maximum associativity, priming
    ``trace._vprep`` so every subsequent :func:`replay_packed_vector`
    call derives its hit/miss vectors by a vectorized comparison instead
    of re-walking the access stream. Also primes the
    config-independent preps (column and flag decodings, line spans).

    Returns the number of geometry groups traversed (0 when numpy is
    unavailable — the scalar fallback has no shared precompute).
    """
    if _np is None:
        return 0
    base = _base_prep(trace)
    ic_groups: dict = {}
    dc_groups: dict = {}
    for config in configs:
        ic = config.icache
        if ic is not None:
            k = (ic.line_bytes, ic.num_sets)
            ic_groups[k] = max(ic_groups.get(k, 0), ic.assoc)
        dc = config.dcache
        if dc is not None:
            k = (dc.line_bytes, dc.num_sets)
            dc_groups[k] = max(dc_groups.get(k, 0), dc.assoc)
    for (line_bytes, num_sets), assoc in ic_groups.items():
        flat, _ = _icache_flat(trace, line_bytes)
        _geom_distances(trace, "icdist", flat, line_bytes, num_sets, assoc)
    for (line_bytes, num_sets), assoc in dc_groups.items():
        dlines = base["dmem"] // line_bytes
        _geom_distances(trace, "dcdist", dlines, line_bytes, num_sets, assoc)
    return len(ic_groups) + len(dc_groups)


def _fetch_prep(trace, ic, l2, fetch_lines):
    """Per-unit fetch-cycle counts and stalls for (geometry, l2, width).

    Keyed by the geometry's per-unit miss *content* — not its identity —
    so sweep geometries whose miss vectors coincide (e.g. every size a
    benchmark's code fits in sees the same compulsory misses) share one
    prep dict, and through it one memoized timing spine: identical
    per-unit miss counts mean identical fetch schedules, hence
    identical replay timing, by construction.
    """
    key = ("fetch", l2, fetch_lines, ic["miss_key"])
    prep = trace._vprep.get(key)
    if prep is None:
        nlines = ic["nlines"]
        fc = (nlines + fetch_lines - 1) // fetch_lines
        stall = _np.where(ic["unit_miss"] > 0, l2, 0)
        adv = fc - 1 + stall  # fetch_end - fetch, per unit
        prep = {
            "fc_l": fc.tolist(),
            "stall_l": stall.tolist(),
            "adv_l": adv.tolist(),
            "fetch_stall": int(stall.sum() + (fc - 1).sum()),
        }
        trace._vprep[key] = prep
    return prep


def _lat_prep(trace, base, dc, l2):
    """Spine op latencies with dcache-miss l2 folded in."""
    key = ("lat", l2, tuple(dc["miss_load_idx"]))
    prep = trace._vprep.get(key)
    if prep is None:
        lat = base["lat"]
        idx = dc["miss_load_idx"]
        if idx:
            lat = lat.copy()
            for i in idx:
                lat[i] += l2
        prep = {"lat": lat}
        trace._vprep[key] = prep
    return prep


# ---------------------------------------------------------------------------
# The replay kernel
# ---------------------------------------------------------------------------


def _decline(engine, reason):
    """Count a replay the kernel leaves to the scalar loop, and why."""
    global FALLBACKS
    FALLBACKS += 1
    engine.kernel_path = ("scalar", reason)
    return None


def replay_packed_vector(engine, trace: PackedTrace):
    """Replay *trace* on *engine* at column speed.

    On success: fills ``engine.stats``, mirrors cache counters onto
    ``engine.icache``/``engine.dcache``, feeds the engine's insight
    collector and telemetry event trace exactly as ``run_packed`` would,
    and returns the stats object. Returns ``None`` when the kernel
    cannot guarantee bit-exactness for this trace/config shape — the
    caller must then run ``engine.run_packed`` on the (untouched)
    engine. Either way ``engine.kernel_path`` records the pass that ran
    (:data:`KERNEL_PATHS`) or why the kernel declined
    (:data:`FALLBACK_REASONS`).
    """
    global KERNEL_RUNS
    if _np is None:
        return _decline(engine, "no_numpy")

    config = engine.config
    atomic_window = engine.atomic_window
    tel = engine.telemetry if engine.telemetry is not None else get_telemetry()
    events = tel.trace if tel.enabled else None
    ins = engine.insight
    stats = engine.stats

    exact = "block_fu" if atomic_window else "window_fu"
    nu = trace.num_units
    if nu == 0:
        stats.cycles = 1
        if ins is not None:
            ins.finish(1, 0)
        engine.kernel_path = (exact, None)  # nothing to replay
        KERNEL_RUNS += 1
        return stats

    base = _base_prep(trace)
    squashed = base["squashed"]
    mispredict = base["mispredict"]
    atomic = base["atomic"]
    nops_v = base["nops"]
    resolve = base["resolve"]

    # Shapes the kernel does not model: fall back (exactness first).
    flagged = squashed | mispredict
    if bool(_np.any(flagged & ((resolve < 0) | (resolve >= nops_v)))):
        # the scalar path raises SimulationError
        return _decline(engine, "bad_resolve")
    if atomic_window:
        if bool(_np.any(~atomic & ~squashed)):
            return _decline(engine, "non_atomic_unit")
    else:
        if (
            bool(_np.any(atomic | squashed))
            or bool(_np.any(nops_v == 0))
            or int(nops_v.max()) > config.window_ops
        ):
            return _decline(engine, "unit_shape")

    line_bytes = (
        config.icache.line_bytes if config.icache is not None else 64
    )
    dline_bytes = (
        config.dcache.line_bytes if config.dcache is not None else 64
    )
    l2 = config.l2_latency
    ic = _icache_prep(trace, engine.icache, line_bytes, events is not None)
    dc = _dcache_prep(trace, base, engine.dcache, dline_bytes)
    fetch = _fetch_prep(trace, ic, l2, config.fetch_lines)
    lat = _lat_prep(trace, base, dc, l2)

    need_aux = events is not None or ins is not None
    # Spine memo key: the fetch/lat prep dicts are cached on the trace
    # under *content* keys (per-unit miss bytes, dcache miss-load
    # tuple), so their ids identify everything the timing spine reads —
    # sweep geometries whose miss vectors coincide share one spine run.
    run_key = (
        "vrun", atomic_window, need_aux,
        config.fu_count, config.window_ops, config.window_blocks,
        config.retire_width, config.frontend_depth,
        config.mispredict_penalty, l2, config.fetch_lines,
        id(fetch), id(lat),
    )
    run = base.get(run_key)
    if run is None:
        spine = _block_replay if atomic_window else _conv_replay
        run = base[run_key] = spine(config, base, fetch, lat, need_aux)
        path = exact
    else:
        path = "memo"
    engine.kernel_path = (path, None)
    (completes, unit_retire_l, wstall, rstall, next_fetch, max_cycle,
     gap_l, wd_l) = run

    n = trace.num_ops
    sq_ops = base["squashed_ops"]
    unit0 = stats.fetched_units  # events number units from prior state
    stats.fetched_units += nu
    stats.fetched_ops += n
    stats.retired_ops += n - sq_ops
    stats.squashed_ops += sq_ops
    stats.redirects += base["redirects"]
    stats.icache_accesses += ic["accesses"]
    stats.icache_misses += ic["misses"]
    stats.dcache_accesses += base["dacc"]
    stats.dcache_misses += dc["misses"]
    stats.fetch_stall_cycles += fetch["fetch_stall"]
    stats.window_stall_cycles += wstall
    stats.redirect_stall_cycles += rstall
    stats.cycles = max_cycle + 1
    engine.icache.accesses += ic["accesses"]
    engine.icache.misses += ic["misses"]
    engine.dcache.accesses += base["dacc"]
    engine.dcache.misses += dc["misses"]

    if ins is not None:
        unit = ins.unit
        fc_l = fetch["fc_l"]
        stall_l = fetch["stall_l"]
        nops_l = nops_v.tolist()
        sq_l = base["sq_l"]
        mis_l = base["mis_l"]
        for u in range(nu):
            unit(gap_l[u], fc_l[u], stall_l[u], nops_l[u], wd_l[u],
                 sq_l[u], mis_l[u])
        ins.finish(stats.cycles, next_fetch)
    if events is not None:
        _emit_events(
            config, trace, base, ic, fetch, completes, unit_retire_l,
            gap_l, events, unit0,
        )
    KERNEL_RUNS += 1
    return stats


# ---------------------------------------------------------------------------
# Conventional-ISA replay
# ---------------------------------------------------------------------------


def _conv_replay(config, base, fetch, lat, need_aux):
    """The exact conventional spine: window gating, FU reservations and
    in-order retirement carried inline in one serial pass.

    Op-granular window slots are skipped when the trace geometry proves
    they can never bind (:func:`_unit_window_only`). Returns
    ``(completes, unit_retire_l, wstall, rstall, next_fetch, max_cycle,
    gap_l, wd_l)``, as :func:`_block_replay` does.
    """
    uos_l = base["uos_l"]
    adv_l = fetch["adv_l"]
    mis_l = base["mis_l"]
    res_l = base["res_l"]
    p1_l = base["p1"]
    p2_l = base["p2"]
    p3_l = base["p3"]
    lat_l = lat["lat"]
    extras = base["extras"]
    ex_get = extras.get
    has_ex = bool(extras)
    depth = config.frontend_depth
    penalty = config.mispredict_penalty
    cap_ops = config.window_ops
    cap_units = config.window_blocks
    width = config.retire_width
    fu_count = config.fu_count
    unit_only = _unit_window_only(base, config)
    nu = len(uos_l) - 1
    c = [0] * uos_l[-1]
    # Zero-padded FIFO views of the window heaps: every pushed release
    # is a retire cycle (monotone non-decreasing here), so heap-pop
    # order equals push order and the pop before op g / unit u reads
    # exactly element g - cap_ops / u - cap_units (zeros never gate).
    op_release = [0] * cap_ops if not unit_only else None
    unit_release = [0] * cap_units
    ur_append = unit_release.append
    gap_l = [0] * nu if need_aux else None
    wd_l = [0] * nu if need_aux else None
    nf = 0
    ra = 0
    rstall = 0
    wstall = 0
    rc = 0  # retire cycle
    rcnt = 0  # ops retired at rc
    # Busy FUs per cycle, list-indexed (cheaper than a dict in the hot
    # loop); grown on demand.
    fu = [0] * 4096
    fulen = 4096
    for u in range(nu):
        lo = uos_l[u]
        hi = uos_l[u + 1]
        if ra > nf:
            if need_aux:
                gap_l[u] = ra - nf
            rstall += ra - nf
            f0 = ra
        else:
            f0 = nf
        fe = f0 + adv_l[u]
        nf = fe + 1
        d = fe + depth
        rel = unit_release[u]
        if rel > d:
            wstall += rel - d
            d = rel
        if unit_only:
            d1 = d + 1
            for i in range(lo, hi):
                ready = d1
                p = p1_l[i]
                if p >= 0:
                    t = c[p]
                    if t > ready:
                        ready = t
                    p = p2_l[i]
                    if p >= 0:
                        t = c[p]
                        if t > ready:
                            ready = t
                        p = p3_l[i]
                        if p >= 0:
                            t = c[p]
                            if t > ready:
                                ready = t
                            if has_ex:
                                e = ex_get(i)
                                if e is not None:
                                    for q in e:
                                        t = c[q]
                                        if t > ready:
                                            ready = t
                if ready >= fulen:
                    fu += [0] * (ready - fulen + 4096)
                    fulen = ready + 4096
                busy = fu[ready]
                while busy >= fu_count:
                    ready += 1
                    if ready >= fulen:
                        fu += [0] * 4096
                        fulen += 4096
                    busy = fu[ready]
                fu[ready] = busy + 1
                ci = ready + lat_l[i]
                c[i] = ci
                if ci >= rc:
                    rc = ci + 1
                    rcnt = 1
                elif rcnt >= width:
                    rc += 1
                    rcnt = 1
                else:
                    rcnt += 1
        else:
            ora = op_release.append
            for i in range(lo, hi):
                v = op_release[i]
                if v > d:
                    d = v
                ready = d + 1
                p = p1_l[i]
                if p >= 0:
                    t = c[p]
                    if t > ready:
                        ready = t
                    p = p2_l[i]
                    if p >= 0:
                        t = c[p]
                        if t > ready:
                            ready = t
                        p = p3_l[i]
                        if p >= 0:
                            t = c[p]
                            if t > ready:
                                ready = t
                            if has_ex:
                                e = ex_get(i)
                                if e is not None:
                                    for q in e:
                                        t = c[q]
                                        if t > ready:
                                            ready = t
                if ready >= fulen:
                    fu += [0] * (ready - fulen + 4096)
                    fulen = ready + 4096
                busy = fu[ready]
                while busy >= fu_count:
                    ready += 1
                    if ready >= fulen:
                        fu += [0] * 4096
                        fulen += 4096
                    busy = fu[ready]
                fu[ready] = busy + 1
                ci = ready + lat_l[i]
                c[i] = ci
                if ci >= rc:
                    rc = ci + 1
                    rcnt = 1
                elif rcnt >= width:
                    rc += 1
                    rcnt = 1
                else:
                    rcnt += 1
                ora(rc)
        if mis_l[u]:
            ra = c[lo + res_l[u]] + 1 + penalty
        if need_aux:
            wd_l[u] = d - fe - depth
        ur_append(rc)
    return (c, unit_release[cap_units:], wstall, rstall, nf,
            max(rc, nf - 1), gap_l, wd_l)


def _unit_window_only(base, config):
    """Whether the op window provably never binds before the unit
    window does.

    When every window of window_blocks consecutive units (and the
    leading partial window) holds at most window_ops ops, an op's
    window slot has always been freed by the time the op-pop would read
    it — retire is monotone here and the unit gate already waited for a
    later retire — so the conventional spine may skip op-slot
    bookkeeping entirely.
    """
    uos = base["uos"]
    nu = len(uos) - 1
    cap_ops = config.window_ops
    cap_units = config.window_blocks
    return base["uos_l"][min(cap_units, nu)] <= cap_ops and (
        nu <= cap_units
        or bool(_np.all(uos[cap_units:] - uos[:-cap_units] <= cap_ops))
    )


# ---------------------------------------------------------------------------
# Block-structured replay (atomic window)
# ---------------------------------------------------------------------------


def _block_replay(config, base, fetch, lat, need_aux):
    """The exact atomic-window spine: a real (tiny) release heap per
    unit, exact FU reservations and O(1) closed-form block retirement.
    Returns the tuple :func:`_conv_replay` does."""
    uos_l = base["uos_l"]
    adv_l = fetch["adv_l"]
    sq_l = base["sq_l"]
    mis_l = base["mis_l"]
    res_l = base["res_l"]
    p1_l = base["p1"]
    p2_l = base["p2"]
    p3_l = base["p3"]
    lat_l = lat["lat"]
    extras = base["extras"]
    ex_get = extras.get
    has_ex = bool(extras)
    depth = config.frontend_depth
    penalty = config.mispredict_penalty
    cap = config.window_blocks
    width = config.retire_width
    fu_count = config.fu_count
    nu = len(uos_l) - 1
    c = [0] * uos_l[-1]
    # Real min-heap: squash releases are not monotone with retire
    # cycles, so FIFO order is not guaranteed here (unlike the
    # conventional windows).
    window: list = []
    wsize = 0
    hpush = heapq.heappush
    hpop = heapq.heappop
    rc = 0  # retire cycle
    rcnt = 0  # ops already retired at rc
    fu = [0] * 4096
    fulen = 4096
    maxrel = 0
    nf = 0
    ra = 0
    lnf = 0  # next_fetch after the last non-squashed unit
    rstall = 0
    wstall = 0
    rc_l = [0] * nu if need_aux else None
    gap_l = [0] * nu if need_aux else None
    wd_l = [0] * nu if need_aux else None
    for u in range(nu):
        lo = uos_l[u]
        hi = uos_l[u + 1]
        if ra > nf:
            if need_aux:
                gap_l[u] = ra - nf
            rstall += ra - nf
            f0 = ra
        else:
            f0 = nf
        fe = f0 + adv_l[u]
        nf = fe + 1
        d0 = fe + depth
        if wsize >= cap:
            rel = hpop(window)
            if rel > d0:
                wstall += rel - d0
                d0 = rel
        else:
            wsize += 1
        if need_aux:
            wd_l[u] = d0 - fe - depth
        d01 = d0 + 1
        bl = 0
        for i in range(lo, hi):
            ready = d01
            p = p1_l[i]
            if p >= 0:
                t = c[p]
                if t > ready:
                    ready = t
                p = p2_l[i]
                if p >= 0:
                    t = c[p]
                    if t > ready:
                        ready = t
                    p = p3_l[i]
                    if p >= 0:
                        t = c[p]
                        if t > ready:
                            ready = t
                        if has_ex:
                            e = ex_get(i)
                            if e is not None:
                                for q in e:
                                    t = c[q]
                                    if t > ready:
                                        ready = t
            if ready >= fulen:
                fu += [0] * (ready - fulen + 4096)
                fulen = ready + 4096
            busy = fu[ready]
            while busy >= fu_count:
                ready += 1
                if ready >= fulen:
                    fu += [0] * 4096
                    fulen += 4096
                busy = fu[ready]
            fu[ready] = busy + 1
            ci = ready + lat_l[i]
            c[i] = ci
            if ci > bl:
                bl = ci
        if sq_l[u]:
            release = c[lo + res_l[u]] + 1
            ra = release
            hpush(window, release)
            if release > maxrel:
                maxrel = release
            if need_aux:
                rc_l[u] = rc
            continue
        if mis_l[u]:
            ra = c[lo + res_l[u]] + 1 + penalty
        k = hi - lo
        if k:
            # O(1) closed form of the engine's per-op atomic retire
            # loop: all k ops become eligible at block_done and drain
            # `width` per cycle from the current (rc, rcnt) state.
            block_done = bl + 1
            if block_done > rc:
                q = (k - 1) // width
                rc = block_done + q
                rcnt = k - width * q
            else:
                free = width - rcnt
                if k <= free:
                    rcnt += k
                else:
                    k2 = k - free
                    q = (k2 - 1) // width
                    rc += 1 + q
                    rcnt = k2 - width * q
        hpush(window, rc)
        lnf = nf
        if need_aux:
            rc_l[u] = rc
    max_cycle = rc
    if maxrel > max_cycle:
        max_cycle = maxrel
    if lnf - 1 > max_cycle:
        max_cycle = lnf - 1
    return (c, rc_l, wstall, rstall, nf, max_cycle, gap_l, wd_l)


# ---------------------------------------------------------------------------
# Post-hoc event emission (telemetry-on replays)
# ---------------------------------------------------------------------------


def _emit_events(config, trace, base, ic, fetch, completes, unit_retire_l,
                 gap_l, events, unit0):
    """Emit the engine's event stream in its exact order: per unit, the
    icache misses of its lines, the fetch, then squash OR (optional
    redirect and) retire."""
    emit = events.emit
    uos_l = base["uos_l"]
    adv_l = fetch["adv_l"]
    sq_l = base["sq_l"]
    mis_l = base["mis_l"]
    at_l = base["at_l"]
    res_l = base["res_l"]
    addr_l = trace._vprep.get("addr_l")
    if addr_l is None:
        addr_l = trace._vprep["addr_l"] = _np.frombuffer(
            trace.unit_addr, dtype=_np.int64
        ).tolist()
    nlines_l = ic["nlines"].tolist()
    starts_l = ic["starts"].tolist() if "starts" in ic else None
    flat_l = ic["flat"].tolist() if "flat" in ic else None
    miss_l = ic["miss_flags"].tolist() if "miss_flags" in ic else None
    any_miss = ic["misses"] > 0
    penalty = config.mispredict_penalty
    nf = 0
    for u in range(len(uos_l) - 1):
        uid = unit0 + u + 1
        f0 = nf + gap_l[u]
        nf = f0 + adv_l[u] + 1
        lo = uos_l[u]
        hi = uos_l[u + 1]
        k = hi - lo
        addr = addr_l[u]
        if any_miss:
            s = starts_l[u]
            for j in range(s, s + nlines_l[u]):
                if miss_l[j]:
                    emit(EV_ICACHE_MISS, f0, line=flat_l[j])
        emit(EV_FETCH, f0, addr=addr, ops=k, lines=nlines_l[u], unit=uid)
        if sq_l[u]:
            emit(
                EV_FAULT_SQUASH,
                completes[lo + res_l[u]] + 1,
                addr=addr,
                ops=k,
                unit=uid,
            )
            continue
        if mis_l[u]:
            emit(
                EV_REDIRECT,
                completes[lo + res_l[u]] + 1 + penalty,
                addr=addr,
                penalty=penalty,
                unit=uid,
            )
        emit(
            EV_RETIRE,
            unit_retire_l[u],
            addr=addr,
            ops=k,
            atomic=at_l[u],
            unit=uid,
        )
