"""Vectorized replay kernel (repro.sim.vector): three-way differential
bit-identity, property tests for the kernel primitives, numpy-absent
fallbacks, and the cosim/fuzz promotion (an injected off-by-one in the
conventional spine must be caught and shrink small).

The kernel's contract is *exact* equality — every SimResult field,
every InsightReport counter, every published metric series — against
the scalar replayer, ``TimingEngine.run_packed``. There is no float
tolerance anywhere: the timing model is all-integer and the kernel's
float use is confined to pre-proven bookkeeping (docs/performance.md).
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import types

import pytest

from repro.core.toolchain import Toolchain
from repro.engine import RunSpec, build_plan, replay_group
from repro.errors import SimulationError
from repro.exec.trace import DynOp, FetchUnit
from repro.harness import EXPERIMENT_RUNS, SuiteRunner
from repro.insight import InsightCollector
from repro.obs import Telemetry, get_telemetry
from repro.sim import vector
from repro.sim.cache import Cache
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.engine import TimingEngine
from repro.sim.packed import PackedTrace
from repro.sim.run import (
    VALID_KERNELS,
    capture_run,
    predictor_key,
    prepare_sweep,
    replay_captured,
)
from repro.workloads import SUITE

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

np = pytest.importorskip("numpy") if vector.HAVE_NUMPY else None

SCALE = 0.05
BENCHES = ["compress", "m88ksim"]

_PAIRS: dict[str, object] = {}


def _pair(name: str):
    if name not in _PAIRS:
        _PAIRS[name] = Toolchain().compile(SUITE[name].source(SCALE), name)
    return _PAIRS[name]


def _matrix_specs():
    plan = build_plan(
        [(name, EXPERIMENT_RUNS[name](BENCHES)) for name in EXPERIMENT_RUNS],
        scale=SCALE,
    )
    return plan.runs


needs_numpy = pytest.mark.skipif(
    not vector.HAVE_NUMPY, reason="numpy not installed"
)


# ---------------------------------------------------------------------------
# Three-way differential: run_packed vs vector kernel, warm and cold
# ---------------------------------------------------------------------------


def _kernel_paths(tel, isa):
    """``{(path, reason): count}`` of the sim.kernel_path series."""
    return {
        (s.labels["path"], s.labels.get("reason")): s.value
        for s in tel.metrics.series("sim.kernel_path")
        if s.labels["isa"] == isa
    }


def _cold(captured):
    """*captured* with a freshly deserialized trace: no cached line
    spans or kernel prep, as a pool worker or the artifact cache sees
    it."""
    return dataclasses.replace(
        captured, trace=PackedTrace.from_bytes(captured.trace.to_bytes())
    )


@needs_numpy
class TestThreeWayDifferential:
    def test_every_experiment_spec_pins_all_three_paths(self):
        """For every EXPERIMENT_RUNS spec: scalar replay, vectorized
        replay of the shared capture (its prep cache warmed by earlier
        specs) and vectorized replay of a cold copy produce asdict-equal
        SimResults, and the InsightReport is identical on all three
        paths."""
        captures = {}
        for spec in _matrix_specs():
            prog = getattr(_pair(spec.benchmark), spec.isa)
            memo = (spec.benchmark, spec.isa, predictor_key(spec.config))
            if memo not in captures:
                captures[memo] = capture_run(prog, spec.isa, spec.config)
            captured = captures[memo]

            p_ins = InsightCollector()
            scalar = replay_captured(
                captured, spec.config, insight=p_ins, kernel="python"
            )
            v_ins = InsightCollector()
            vectored = replay_captured(
                captured, spec.config, insight=v_ins, kernel="numpy"
            )
            c_ins = InsightCollector()
            cold = replay_captured(
                _cold(captured), spec.config, insight=c_ins, kernel="numpy"
            )

            want = dataclasses.asdict(scalar)
            assert dataclasses.asdict(vectored) == want, spec
            assert dataclasses.asdict(cold) == want, spec
            report = p_ins.report(spec.benchmark, spec.isa, spec.config)
            assert v_ins.report(
                spec.benchmark, spec.isa, spec.config
            ) == report, spec
            assert c_ins.report(
                spec.benchmark, spec.isa, spec.config
            ) == report, spec

    def test_warm_replay_stays_exact(self):
        """Second and third replays of one trace reuse the memoized
        spine run — they must stay bit-identical."""
        config = MachineConfig()
        for isa in ("conventional", "block"):
            prog = getattr(_pair("compress"), isa)
            captured = capture_run(prog, isa, config)
            want = dataclasses.asdict(
                replay_captured(captured, config, kernel="python")
            )
            for _ in range(3):
                got = replay_captured(captured, config, kernel="numpy")
                assert dataclasses.asdict(got) == want, isa

    def test_vector_replay_publishes_identical_metrics(self):
        """sim./cache./bp. series must not depend on the kernel, except
        sim.kernel_path, which names it."""
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        paths = {}

        def series(kernel):
            tel = Telemetry()
            replay_captured(captured, config, telemetry=tel, kernel=kernel)
            paths[kernel] = _kernel_paths(tel, "conventional")
            return [
                e
                for e in tel.metrics.snapshot()
                if e["name"].startswith(("sim.", "cache.", "bp."))
                and e["name"] != "sim.kernel_path"
            ]

        assert series("numpy") == series("python")
        assert paths["python"] == {("scalar", "kernel_python"): 1}
        assert len(paths["numpy"]) == 1
        assert "scalar" not in {path for path, _ in paths["numpy"]}

    def test_kernel_actually_ran(self):
        """The differential above must exercise the kernel, not the
        fallback: a default-config replay runs vectorized."""
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        runs = vector.KERNEL_RUNS
        replay_captured(captured, config, kernel="numpy")
        assert vector.KERNEL_RUNS == runs + 1


# ---------------------------------------------------------------------------
# Kernel selection and the numpy-absent fallback
# ---------------------------------------------------------------------------


class TestKernelSelection:
    def test_unknown_kernel_is_rejected(self):
        captured = capture_run(
            _pair("compress").conventional, "conventional", MachineConfig()
        )
        with pytest.raises(SimulationError, match="unknown replay kernel"):
            replay_captured(captured, MachineConfig(), kernel="fortran")
        assert set(VALID_KERNELS) == {"auto", "python", "numpy"}

    def test_numpy_kernel_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        captured = capture_run(
            _pair("compress").conventional, "conventional", MachineConfig()
        )
        with pytest.raises(SimulationError, match="numpy is not"):
            replay_captured(captured, MachineConfig(), kernel="numpy")

    def test_auto_mode_without_numpy_silently_uses_python(self):
        """Reload repro.sim.vector with the numpy import failing: the
        import guard must leave a working module whose replay entry
        point declines, and auto replay must fall back silently."""
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        want = dataclasses.asdict(
            replay_captured(captured, config, kernel="python")
        )
        saved = sys.modules.get("numpy")
        sys.modules["numpy"] = None  # import numpy now raises ImportError
        try:
            importlib.reload(vector)
            assert not vector.HAVE_NUMPY
            fallbacks = vector.FALLBACKS
            got = replay_captured(captured, config)  # kernel="auto"
            assert dataclasses.asdict(got) == want
            assert vector.FALLBACKS == fallbacks + 1
            assert vector.KERNEL_RUNS == 0  # fresh module, no vector runs
        finally:
            if saved is None:
                del sys.modules["numpy"]
            else:
                sys.modules["numpy"] = saved
            importlib.reload(vector)
        assert vector.HAVE_NUMPY == (saved is not None)

    def test_sweep_without_numpy_falls_back_to_grouped_scalar(self):
        """Reload repro.sim.vector with numpy absent: prepare_sweep
        declines (no shared precompute to run) and replay_group still
        replays the whole batch via the scalar path, bit-identical to
        per-config scalar replay."""
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        configs = [config.with_icache_kb(None), config.with_icache_kb(16)]
        specs = [RunSpec("compress", "conventional", c) for c in configs]
        want = [
            dataclasses.asdict(replay_captured(captured, c, kernel="python"))
            for c in configs
        ]
        saved = sys.modules.get("numpy")
        sys.modules["numpy"] = None  # import numpy now raises ImportError
        try:
            importlib.reload(vector)
            assert not vector.HAVE_NUMPY
            assert prepare_sweep(captured, configs) == 0
            got = replay_group(captured, specs, get_telemetry())  # "auto"
            assert [dataclasses.asdict(r) for r, _ in got] == want
        finally:
            if saved is None:
                del sys.modules["numpy"]
            else:
                sys.modules["numpy"] = saved
            importlib.reload(vector)
        assert vector.HAVE_NUMPY == (saved is not None)

    def test_cli_kernel_numpy_without_numpy_exits_2(self, monkeypatch, capsys):
        from repro.harness.cli import main

        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        assert main(
            ["perf", "--benchmarks", "compress", "--kernel", "numpy"]
        ) == 2
        assert main(["run", "fig3", "--kernel", "numpy"]) == 2
        err = capsys.readouterr().err
        assert "numpy is not importable" in err

    def test_perf_vector_column_presence(self):
        """kernel='python' skips the vector_s column; auto (with numpy)
        emits vector_s + vector_match and the vector totals."""
        from repro.harness.perf import benchmark_suite
        from repro.obs.schema import bench_document_errors

        doc = benchmark_suite(["compress"], SCALE, kernel="python")
        assert bench_document_errors(doc) == []
        assert all("vector_s" not in e for e in doc["benchmarks"])
        assert "vector_s" not in doc["totals"]
        # The sweep columns ride every kernel: forced-python runs both
        # legs through the grouped scalar fallback.
        for e in doc["benchmarks"]:
            assert e["sweep_points"] == 4
            assert e["sweep_match"] is True
        for key in ("sweep_s", "sweep_per_config_s", "speedup_sweep"):
            assert key in doc["totals"]
        if vector.HAVE_NUMPY:
            doc = benchmark_suite(["compress"], SCALE, kernel="auto")
            assert bench_document_errors(doc) == []
            for e in doc["benchmarks"]:
                assert e["vector_s"] >= 0
                assert e["vector_match"] is True
                assert e["sweep_match"] is True
            for key in ("vector_s", "replay_vs_vector", "speedup_sweep"):
                assert key in doc["totals"]
            assert doc["totals"]["stats_match"] is True


# ---------------------------------------------------------------------------
# Property tests: kernel primitives vs small scalar references
# ---------------------------------------------------------------------------


@needs_numpy
class TestPrimitiveProperties:
    @given(
        lines=st.lists(st.integers(0, 20), min_size=0, max_size=80),
        num_sets=st.sampled_from([1, 2, 4]),
        assoc=st.integers(1, 4),
    )
    @settings(max_examples=60)
    def test_lru_hits_matches_the_real_cache(self, lines, num_sets, assoc):
        """The hit/miss vector (stack distance below the associativity)
        of the kernel's ``_geom_distances`` — its floor shortcut
        included — must agree access-by-access with the scalar Cache
        model the engine uses, and so must the listwise oracle."""
        line_bytes = 64
        cache = Cache(
            CacheConfig(num_sets * assoc * line_bytes, assoc, line_bytes)
        )
        want = [cache.access_line(line) for line in lines]
        got = _geom_hits(lines, num_sets, assoc)
        assert got.tolist() == want
        assert lru_hits_listwise(lines, num_sets, assoc).tolist() == want
        assert cache.accesses == len(lines)
        assert cache.misses == len(lines) - int(got.sum())

    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 5)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_span_lines_match_nested_loops(self, spans):
        first = [f for f, _ in spans]
        last = [f + extra for f, extra in spans]
        flat, starts = vector.span_lines(first, last)
        want = [
            line for f, l in zip(first, last) for line in range(f, l + 1)
        ]
        assert flat.tolist() == want
        offsets = [0]
        for f, l in zip(first, last):
            offsets.append(offsets[-1] + (l - f + 1))
        assert starts.tolist() == offsets[:-1]


# ---------------------------------------------------------------------------
# Sweep batching: stack distances + batched replay equality
# ---------------------------------------------------------------------------


def lru_hits_listwise(lines, num_sets, assoc):
    """The per-geometry move-to-front LRU pass: the oracle for
    ``vector._geom_distances``, itself cross-checked against the real
    :class:`~repro.sim.cache.Cache`."""
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    hits = np.zeros(n, dtype=bool)
    if n == 0:
        return hits
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    hits[~keep] = True  # consecutive duplicates always hit
    idx = np.flatnonzero(keep)
    sub = lines[idx].tolist()
    out = [False] * len(sub)
    sets: dict = {}
    for k, line in enumerate(sub):
        s = line % num_sets
        ways = sets.get(s)
        if ways is None:
            ways = sets[s] = []
        try:
            ways.remove(line)
        except ValueError:
            if len(ways) >= assoc:
                ways.pop()
        else:
            out[k] = True
        ways.insert(0, line)
    hits[idx] = out
    return hits


def _geom_hits(lines, num_sets, assoc, fake=None):
    """``vector._geom_distances(...) < assoc`` over *lines* on a
    trace stand-in (*fake*, or a fresh one with an empty prep cache)."""
    if fake is None:
        fake = types.SimpleNamespace(_vprep={})
    arr = np.array(lines, dtype=np.int64)
    dist = vector._geom_distances(fake, "icdist", arr, 64, num_sets, assoc)
    return dist < assoc


@needs_numpy
class TestStackDistances:
    """The all-associativity primitive the sweep precompute rests on
    (``vector._geom_distances``: the move-to-front walk, or the
    never-evict floor shortcut), cross-checked against the listwise
    move-to-front oracle across a (num_sets, assoc) matrix — including
    assoc=1 (direct-mapped sets) and num_sets=1 (fully associative)."""

    @given(
        lines=st.lists(st.integers(0, 20), min_size=0, max_size=80),
        num_sets=st.sampled_from([1, 2, 4, 8]),
        max_assoc=st.integers(1, 6),
    )
    @settings(max_examples=60)
    def test_one_saturated_vector_decides_every_smaller_assoc(
        self, lines, num_sets, max_assoc
    ):
        """dist saturated at cap C classifies hits exactly for every
        assoc <= C: a walked vector serves every smaller assoc as it
        is, and one from the floor shortcut is recomputed below its
        floor. Each request's hits equal the per-assoc oracle's."""
        fake = types.SimpleNamespace(_vprep={})
        _geom_hits(lines, num_sets, max_assoc, fake)
        key = ("icdist", 64, num_sets)
        primed = fake._vprep[key]
        for assoc in range(1, max_assoc + 1):
            want = lru_hits_listwise(lines, num_sets, assoc)
            got = _geom_hits(lines, num_sets, assoc, fake)
            assert got.tolist() == want.tolist(), assoc
            if primed[2] == 0:  # walked, no floor recorded
                assert fake._vprep[key] is primed, assoc

    @given(
        lines=st.lists(st.integers(0, 12), min_size=0, max_size=60),
        num_sets=st.sampled_from([1, 2, 4]),
        assocs=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_cached_geometry_vector_is_query_order_independent(
        self, lines, num_sets, assocs
    ):
        """_geom_distances' per-trace cache (cap widening plus the
        floor-guarded synthesized never-evict vectors) must classify
        exactly like the oracle for every queried associativity, in any
        query order."""
        fake = types.SimpleNamespace(_vprep={})
        for assoc in assocs:
            got = _geom_hits(lines, num_sets, assoc, fake)
            want = lru_hits_listwise(lines, num_sets, assoc)
            assert got.tolist() == want.tolist(), assoc


@needs_numpy
class TestSweepBatchedReplay:
    def test_sweep_groups_match_per_config_and_scalar(self):
        """Three-way over every EXPERIMENT_RUNS trace group (the fig6/
        fig7 icache sweeps included): batched replay_group vs cold
        one-at-a-time replay vs the scalar replayer — asdict-equal
        SimResults and identical InsightReports, no tolerance."""
        groups: dict = {}
        for spec in _matrix_specs():
            memo = (spec.benchmark, spec.isa, predictor_key(spec.config))
            groups.setdefault(memo, []).append(spec)
        for (bench, isa, _), specs in groups.items():
            prog = getattr(_pair(bench), isa)
            captured = capture_run(prog, isa, specs[0].config)
            swept = replay_group(
                captured, specs, get_telemetry(),
                collect_insight=True, kernel="numpy",
            )
            for spec, (batched, b_report) in zip(specs, swept):
                p_ins = InsightCollector()
                single = replay_captured(
                    _cold(captured), spec.config, insight=p_ins,
                    kernel="numpy",
                )
                s_ins = InsightCollector()
                scalar = replay_captured(
                    captured, spec.config, insight=s_ins, kernel="python"
                )
                want = dataclasses.asdict(scalar)
                assert dataclasses.asdict(single) == want, spec
                assert dataclasses.asdict(batched) == want, spec
                report = s_ins.report(bench, isa, spec.config)
                assert p_ins.report(bench, isa, spec.config) == report, spec
                assert b_report == report, spec

    @pytest.mark.parametrize("fu_count", [2, 16])
    def test_batched_spines_stay_exact_when_fus_bind(self, fu_count):
        """A batched cold spine runs the FU-modeled pass, and a replay
        that misses the spine memo (here: one feeding an insight
        collector) runs it again. With two FUs the units contend for
        them on every path."""
        base = MachineConfig(fu_count=fu_count)
        configs = [base.with_icache_kb(kb) for kb in (None, 16, 64)]
        for isa in ("conventional", "block"):
            captured = capture_run(getattr(_pair("compress"), isa), isa, base)
            specs = [RunSpec("compress", isa, c) for c in configs]
            swept = [
                result for result, _ in replay_group(
                    captured, specs, get_telemetry(), kernel="numpy"
                )
            ]
            tel = Telemetry()
            warm = [
                replay_captured(
                    captured, config, telemetry=tel,
                    insight=InsightCollector(), kernel="numpy",
                )
                for config in configs
            ]
            for config, batched, rerun in zip(configs, swept, warm):
                want = dataclasses.asdict(
                    replay_captured(captured, config, kernel="python")
                )
                assert dataclasses.asdict(batched) == want, (isa, config)
                assert dataclasses.asdict(rerun) == want, (isa, config)
            exact = "window_fu" if isa == "conventional" else "block_fu"
            paths = set(_kernel_paths(tel, isa))
            assert (exact, None) in paths
            assert paths <= {(exact, None), ("memo", None)}

    def test_prepare_sweep_counts_batched_configs(self):
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        configs = [config.with_icache_kb(None)] + [
            config.with_icache_kb(kb) for kb in (16, 32, 64)
        ]
        tel = Telemetry()
        assert prepare_sweep(captured, configs, telemetry=tel) > 0
        assert tel.metrics.get("sweep.configs_batched") == 4


# ---------------------------------------------------------------------------
# Which replay pass ran: sim.kernel_path
# ---------------------------------------------------------------------------


class TestKernelPath:
    @needs_numpy
    def test_batched_conventional_spines_run_one_exact_pass(self):
        """In a planned run, a cold conventional spine runs the windowed
        FU pass once and every other replay reuses a memoized spine."""
        tel = Telemetry()
        runner = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], telemetry=tel
        )
        plan = runner.execute(["fig3", "fig4", "fig6", "fig7"])
        conv = _kernel_paths(tel, "conventional")
        assert set(conv) <= {("window_fu", None), ("memo", None)}
        assert conv[("window_fu", None)] >= 2  # real and perfect traces
        block = _kernel_paths(tel, "block")
        assert {path for path, _ in block} <= set(vector.KERNEL_PATHS)
        assert tel.metrics.get("plan.trace_replays") == plan.runs_deduped
        assert sum(conv.values()) + sum(block.values()) == plan.runs_deduped

    @needs_numpy
    @pytest.mark.parametrize("fu_count", [16, 2])
    def test_one_at_a_time_replays_run_the_exact_pass(
        self, monkeypatch, fu_count
    ):
        """A cold trace replayed one at a time, with no prepare_sweep,
        runs its ISA's exact FU-modeled pass; a second replay feeding an
        insight collector misses the spine memo and runs it again. Both
        equal the scalar replay field for field."""
        paths = []
        replay = vector.replay_packed_vector

        def recording(engine, trace):
            stats = replay(engine, trace)
            paths.append(engine.kernel_path)
            return stats

        monkeypatch.setattr(vector, "replay_packed_vector", recording)
        config = MachineConfig(fu_count=fu_count)
        for isa in ("conventional", "block"):
            prog = getattr(_pair("compress"), isa)
            captured = capture_run(prog, isa, config)
            want = dataclasses.asdict(
                replay_captured(captured, config, kernel="python")
            )
            cold = _cold(captured)
            del paths[:]
            got = [
                replay_captured(cold, config, insight=ins, kernel="numpy")
                for ins in (None, InsightCollector())
            ]
            exact = "window_fu" if isa == "conventional" else "block_fu"
            assert paths == [(exact, None)] * 2, isa
            for result in got:
                assert dataclasses.asdict(result) == want, isa

    def test_python_kernel_reports_scalar(self):
        tel = Telemetry()
        runner = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], telemetry=tel,
            kernel="python",
        )
        runner.execute(["fig3", "fig4"])
        for isa in ("conventional", "block"):
            assert _kernel_paths(tel, isa) == {("scalar", "kernel_python"): 2}

    @needs_numpy
    def test_each_decline_names_its_reason(self, monkeypatch):
        trace = capture_run(
            _pair("compress").conventional, "conventional", MachineConfig()
        ).trace

        def declined(trace, atomic=False, **fields):
            engine = TimingEngine(MachineConfig(**fields), atomic_window=atomic)
            assert vector.replay_packed_vector(engine, trace) is None
            path, reason = engine.kernel_path
            assert path == "scalar" and reason in vector.FALLBACK_REASONS
            return reason

        assert declined(trace, atomic=True) == "non_atomic_unit"
        assert declined(trace, window_ops=8) == "unit_shape"
        bad = PackedTrace.capture(
            [FetchUnit(0, 4, [DynOp(1, (), uid=0)], mispredict=True)]
        )
        assert declined(bad) == "bad_resolve"
        monkeypatch.setattr(vector, "_np", None)
        assert declined(trace) == "no_numpy"


# ---------------------------------------------------------------------------
# Promotion into repro.check: cosim oracle + fuzz shrinking
# ---------------------------------------------------------------------------


def _inject_late_final_cycle(monkeypatch):
    """Wrap the conventional spine so that its final cycle (the last
    retirement or fetch, whichever is later) comes out one cycle late:
    every conventional vector replay then reports one cycle too many."""
    spine = vector._conv_replay

    def late(*args):
        run = spine(*args)
        return run[:5] + (run[5] + 1,) + run[6:]

    monkeypatch.setattr(vector, "_conv_replay", late)


@needs_numpy
class TestCosimPromotion:
    CLEAN = (
        "int main() { int i; int acc; acc = 0; "
        "for (i = 0; i < 24; i = i + 1) { acc = acc + i; "
        "if (acc > 40) { acc = acc - 7; } } print_int(acc); return 0; }"
    )

    def test_kernel_runs_as_third_implementation(self):
        """A clean program passes the oracle with the vector kernel
        replaying every timed configuration."""
        from repro.check import CosimChecker

        runs = vector.KERNEL_RUNS
        report = CosimChecker().check_source(self.CLEAN, "vk-clean")
        assert report.ok, report.summary()
        assert report.configurations == 6
        # one vector replay per (enlarge, machine, isa) combination
        assert vector.KERNEL_RUNS >= runs + 12

    def test_injected_off_by_one_wavefront_bug_is_caught_and_shrinks(
        self, monkeypatch, tmp_path
    ):
        """Make the conventional spine end one cycle late and the fuzzer
        must (a) flag it as cosim.kernel_divergence and (b) delta-debug
        the reproducer to <= 15 lines."""
        from repro.check import CosimChecker, Fuzzer

        _inject_late_final_cycle(monkeypatch)
        fuzzer = Fuzzer(
            checker=CosimChecker(),
            corpus_dir=str(tmp_path),
            shrink=True,
        )
        result = fuzzer.run(3, seed=3)
        assert not result.ok, "injected kernel bug escaped the oracle"
        for failure in result.failures:
            invariants = {v.invariant for v in failure.violations}
            assert "cosim.kernel_divergence" in invariants, invariants
            assert failure.reproducer_lines <= 15, failure.reproducer

    def test_insight_divergence_is_its_own_finding(self, monkeypatch):
        """A bug that skews per-unit analytics is reported as
        cosim.insight_divergence even where SimResult fields agree —
        here both fire, which pins the invariant names."""
        from repro.check import CosimChecker

        _inject_late_final_cycle(monkeypatch)
        report = CosimChecker().check_source(self.CLEAN, "vk-buggy")
        invariants = {v.invariant for v in report.violations}
        assert "cosim.kernel_divergence" in invariants
        assert "cosim.insight_divergence" in invariants
