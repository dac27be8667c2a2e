"""Packed-trace capture/replay: lossless round-trip, deterministic
serialization, kernel-independent published metrics, and trace reuse
through the experiment engine. The replayed results themselves are
pinned by ``tests/test_result_goldens.py``."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pickle
import random

import pytest

from repro.check import generate_program
from repro.core.toolchain import Toolchain
from repro.engine import (
    ArtifactCache,
    ExperimentEngine,
    RunSpec,
    build_plan,
    replay_group,
)
from repro.engine.spec import trace_key
from repro.errors import ExecutionError, SimulationError
from repro.exec import block as block_exec
from repro.exec.block import BlockExecutor
from repro.exec.conventional import ConventionalExecutor
from repro.exec.trace import DynOp, FetchUnit
from repro.harness import EXPERIMENT_RUNS, SuiteRunner
from repro.isa.asm import assemble_block_structured
from repro.obs import Telemetry, get_telemetry
from repro.sim import vector
from repro.sim.config import MachineConfig
from repro.sim.packed import PackedTrace
from repro.sim.predictors import BlockPredictor, GsharePredictor
from repro.sim.run import (
    capture_run,
    derive_perfect_bp,
    predictor_key,
    replay_captured,
)
from repro.workloads import SUITE

from tests import test_capture_goldens as capture_goldens
from tests import test_result_goldens as result_goldens

SCALE = 0.05
BENCHES = ["compress", "m88ksim"]

_PAIRS: dict[str, object] = {}


def _pair(name: str):
    if name not in _PAIRS:
        _PAIRS[name] = Toolchain().compile(SUITE[name].source(SCALE), name)
    return _PAIRS[name]


def _units(prog, isa: str, config: MachineConfig) -> list[FetchUnit]:
    """The live executor stream for *prog*, materialized."""
    if isa == "conventional":
        predictor = (
            None
            if config.perfect_bp
            else GsharePredictor(config.bp_history_bits, config.bp_table_bits)
        )
        executor = ConventionalExecutor(prog, predictor=predictor, trace=True)
    else:
        predictor = (
            None
            if config.perfect_bp
            else BlockPredictor(
                prog, config.bp_history_bits, config.bp_table_bits
            )
        )
        executor = BlockExecutor(prog, predictor=predictor, trace=True)
    return list(executor.units())


# ---------------------------------------------------------------------------
# Lossless round-trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("isa", ["conventional", "block"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_programs_round_trip(self, seed, isa):
        """Property test: pack(units).units() == units for random MiniC
        programs, both ISAs, both predictor modes."""
        source = generate_program(random.Random(f"packed:{seed}"))
        pair = Toolchain().compile(source, f"packed{seed}")
        prog = pair.conventional if isa == "conventional" else pair.block
        config = MachineConfig(perfect_bp=bool(seed % 2))
        units = _units(prog, isa, config)
        trace = PackedTrace.capture(iter(units))
        assert list(trace.units()) == units

    def test_benchmark_round_trip_preserves_uids_and_deps(self):
        units = _units(_pair("compress").block, "block", MachineConfig())
        trace = PackedTrace.capture(iter(units))
        rebuilt = list(trace.units())
        assert [u.addr for u in rebuilt] == [u.addr for u in units]
        assert [
            op.uid for u in rebuilt for op in u.ops
        ] == [op.uid for u in units for op in u.ops]
        assert [
            op.deps for u in rebuilt for op in u.ops
        ] == [op.deps for u in units for op in u.ops]

    def test_foreign_dep_is_rejected(self):
        unit = FetchUnit(0, 8, [DynOp(1, deps=(999,), uid=0)])
        with pytest.raises(SimulationError):
            PackedTrace.capture([unit])

    def test_counts_and_line_spans(self):
        units = [
            FetchUnit(0, 100, [DynOp(1, (), uid=0)]),
            FetchUnit(128, 0, [DynOp(1, (0,), uid=1), DynOp(2, (), uid=2)]),
        ]
        trace = PackedTrace.capture(units)
        assert trace.num_units == len(trace) == 2
        assert trace.num_ops == 3
        assert trace.num_deps == 1
        first, last = trace.line_spans(64)
        assert list(first) == [0, 2]
        # 100-byte unit spans lines 0..1; zero-size unit still occupies
        # its first line (the engine fetches at least one line).
        assert list(last) == [1, 2]
        assert trace.line_spans(64) is not trace.line_spans(32)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_bytes_round_trip_and_determinism(self):
        units = _units(
            _pair("compress").conventional, "conventional", MachineConfig()
        )
        trace = PackedTrace.capture(iter(units))
        data = trace.to_bytes()
        assert data == PackedTrace.capture(iter(units)).to_bytes()
        thawed = PackedTrace.from_bytes(data)
        assert thawed == trace
        assert list(thawed.units()) == units
        assert thawed.to_bytes() == data

    def test_pickle_goes_through_compact_form(self):
        trace = PackedTrace.capture(
            iter(_units(_pair("compress").block, "block", MachineConfig()))
        )
        thawed = pickle.loads(pickle.dumps(trace))
        assert thawed == trace
        # pickle cost ~ serialized size, not per-object overhead
        assert len(pickle.dumps(trace)) < trace.nbytes + 4096

    def test_corrupt_bytes_rejected(self):
        trace = PackedTrace.capture(
            [FetchUnit(0, 8, [DynOp(1, (), uid=0)])]
        )
        data = trace.to_bytes()
        with pytest.raises(SimulationError):
            PackedTrace.from_bytes(b"XXXX" + data[4:])
        with pytest.raises(SimulationError):
            PackedTrace.from_bytes(data[:-3])
        with pytest.raises(SimulationError):
            PackedTrace.from_bytes(data + b"\x00")
        with pytest.raises(SimulationError):
            PackedTrace.from_bytes(data[: _header_size() - 1])


def _header_size() -> int:
    from repro.sim.packed import _HEADER

    return _HEADER.size


# ---------------------------------------------------------------------------
# The experiment matrix, and kernel-independent metrics
# ---------------------------------------------------------------------------


def _matrix_specs():
    """Every unique spec any experiment declares (deduplicated)."""
    plan = build_plan(
        [
            (name, EXPERIMENT_RUNS[name](BENCHES))
            for name in EXPERIMENT_RUNS
        ],
        scale=SCALE,
    )
    return plan.runs


class TestBitIdentity:
    def test_replay_publishes_same_metrics_on_both_kernels(self):
        """The scalar replayer and the default kernel (the vector kernel
        when numpy is installed) publish the same sim./cache./bp.
        series, with the capture's predictor snapshot included; only
        sim.kernel_path, which names the pass that ran, differs."""
        prog = _pair("compress").conventional
        config = MachineConfig()
        cap = capture_run(prog, "conventional", config)
        scalar_tel = Telemetry()
        replay_captured(cap, config, telemetry=scalar_tel, kernel="python")
        replay_tel = Telemetry()
        replay_captured(cap, config, telemetry=replay_tel)

        def entries(tel):
            return [
                e
                for e in tel.metrics.snapshot()
                if e["name"].startswith(("sim.", "cache.", "bp."))
                and e["name"] != "sim.kernel_path"
            ]

        assert any(e["name"] == "bp.predictions" for e in entries(replay_tel))
        assert entries(replay_tel) == entries(scalar_tel)
        # the one kernel-dependent series names the replay pass
        assert scalar_tel.metrics.get(
            "sim.kernel_path", isa="conventional", path="scalar",
            reason="kernel_python",
        ) == 1
        assert len(replay_tel.metrics.series("sim.kernel_path")) == 1


# ---------------------------------------------------------------------------
# Trace reuse through the engine
# ---------------------------------------------------------------------------


class TestTraceReuse:
    def test_icache_sweep_captures_once_per_isa(self):
        """fig6+fig7 sweep 4 icache configs x 2 ISAs; the functional
        executor must run once per ISA, everything else replays."""
        tel = Telemetry()
        runner = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], telemetry=tel
        )
        plan = runner.execute(["fig6", "fig7"])
        assert plan.runs_deduped == 8
        captures = [
            s for s in tel.spans.records if s.name == "sim.capture"
        ]
        assert len(captures) == 2  # one per ISA
        assert tel.metrics.get("plan.trace_captures") == 2
        assert tel.metrics.get("plan.trace_replays") == 8
        assert tel.metrics.get("plan.trace_reuse") == 6

    def test_perfect_bp_executes_each_isa_once(self):
        """fig3+fig4 replay real and perfect prediction on both ISAs.
        Each program executes once, under real prediction; both
        perfect streams are derived from the real ones, each in its
        own sim.derive span."""
        tel = Telemetry()
        runner = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], telemetry=tel
        )
        runner.execute(["fig3", "fig4"])  # real + perfect BP, 2 ISAs
        assert tel.metrics.get("plan.trace_captures") == 2
        for name in ("sim.capture", "sim.derive"):
            isas = sorted(
                s.labels["isa"] for s in tel.spans.records if s.name == name
            )
            assert isas == ["block", "conventional"], name

    def test_predictor_key_ignores_non_predictor_fields(self):
        base = MachineConfig()
        assert predictor_key(base) == predictor_key(
            base.with_icache_kb(16)
        )
        assert predictor_key(base) == predictor_key(
            dataclasses.replace(base, mispredict_penalty=40)
        )
        assert predictor_key(base) != predictor_key(
            base.with_perfect_bp()
        )
        assert predictor_key(base) != predictor_key(
            dataclasses.replace(base, bp_history_bits=8)
        )


# ---------------------------------------------------------------------------
# Perfect prediction derived from real prediction
# ---------------------------------------------------------------------------


class TestPerfectDerivation:
    REAL = MachineConfig()
    PERFECT = MachineConfig().with_perfect_bp()

    def test_derived_run_equals_direct_perfect_capture(self):
        prog = _pair("compress").conventional
        real = capture_run(prog, "conventional", self.REAL)
        derived = derive_perfect_bp(real)
        direct = capture_run(prog, "conventional", self.PERFECT)
        assert real.stats.mispredicts > 0
        assert derived == direct
        assert derived.trace.to_bytes() == direct.trace.to_bytes()
        assert derived.stats.outputs is not real.stats.outputs
        # the real run is untouched, and only the flag columns are new
        assert real == capture_run(prog, "conventional", self.REAL)
        assert derived.trace.op_uid is real.trace.op_uid
        assert derived.trace.unit_flags is not real.trace.unit_flags
        assert derived.trace.unit_resolve is not real.trace.unit_resolve

    def test_block_derived_run_equals_direct_capture(self):
        """The real-prediction block capture carries the perfect
        machine's rollbacks, and the run derived from it equals a
        direct ``predictor=None`` capture field for field."""
        prog = _pair("compress").block
        real = capture_run(prog, "block", self.REAL)
        derived = derive_perfect_bp(real)
        direct = capture_run(prog, "block", self.PERFECT)
        assert real.stats.blocks_squashed > 0
        assert real.perfect_rollback is not None
        # the perfect machine rolls variants back: its uids run ahead
        assert direct.trace.op_uid[-1] > direct.trace.num_ops - 1
        assert derived == direct
        assert derived.trace.to_bytes() == direct.trace.to_bytes()
        assert derived.stats.outputs is not real.stats.outputs
        assert real == capture_run(prog, "block", self.REAL)

    #: ``main`` faults on r14 and its mirrored sibling ``main_taken``
    #: commits; ``unproven`` faults to a block that shares no prefix
    MIRRORED = """
_start:
    call main, _halt
_halt:
    halt
main:
    movi r14, 7
    fault r14, 0, main_taken
    putint r0
    ret r31
main_taken:
    movi r14, 7
    fault r14, 1, main
    putint r14
    ret r31
unproven:
    putint r14
    ret r31
"""

    def test_hand_written_mirrored_fault_is_derived(self):
        prog = assemble_block_structured(self.MIRRORED)
        real = capture_run(prog, "block", self.REAL)
        assert real.stats.blocks_squashed == 1
        # main (4 ops) rolls back before committed block 1, main_taken
        assert list(real.perfect_rollback) == [1, 4]
        direct = capture_run(prog, "block", self.PERFECT)
        assert derive_perfect_bp(real) == direct
        assert direct.stats.outputs == [("i", 7)]

    def test_rolled_back_float_to_int_of_infinity_does_not_trap(self):
        """A rolled-back variant converts an infinity to an integer; the
        machine does not trap, so both captures complete and the
        derived perfect run equals the direct one."""
        text = self.MIRRORED.replace(
            "    putint r0\n",
            "    fmovi f1, 1e308\n    fmul f2, f1, f1\n    cvtfi r15, f2\n",
        )
        prog = assemble_block_structured(text)
        real = capture_run(prog, "block", self.REAL)
        assert real.stats.blocks_squashed == 1
        direct = capture_run(prog, "block", self.PERFECT)
        assert real.stats.outputs == direct.stats.outputs == [("i", 7)]
        assert derive_perfect_bp(real) == direct

    def test_unproven_fault_step_publishes_no_rollback(self):
        """A fault whose target is no mirrored sibling is not proven
        from the block structure: the real capture publishes no
        rollback record, and the derivation refuses it."""
        text = self.MIRRORED.replace(
            "fault r14, 0, main_taken", "fault r14, 0, unproven"
        )
        prog = assemble_block_structured(text)
        real = capture_run(prog, "block", self.REAL)
        assert real.stats.blocks_squashed == 1
        assert real.perfect_rollback is None
        assert not real.derives_perfect_bp
        with pytest.raises(SimulationError, match="rollback record"):
            derive_perfect_bp(real)
        # the perfect machine itself runs it: r14 rolled back with main
        direct = capture_run(prog, "block", self.PERFECT)
        assert direct.stats.outputs == [("i", 0)]

    def test_op_limit_the_perfect_machine_exceeds_publishes_no_rollback(
        self
    ):
        """compress fetches fewer ops under real prediction than a
        perfect machine executes with its rolled-back variants. Between
        the two, the real capture succeeds but publishes no rollback
        record, and the direct perfect capture raises."""
        prog = _pair("compress").block
        direct = capture_run(prog, "block", self.PERFECT)
        perfect_ops = direct.trace.op_uid[-1] + 1

        def real_capture(op_limit: int) -> BlockExecutor:
            predictor = BlockPredictor(
                prog, self.REAL.bp_history_bits, self.REAL.bp_table_bits
            )
            executor = BlockExecutor(prog, predictor, op_limit=op_limit)
            executor.capture()
            return executor

        under = real_capture(perfect_ops - 1)
        assert under.stats.fetched_ops < perfect_ops - 1
        assert under.perfect_rollback is None
        with pytest.raises(ExecutionError, match="op limit"):
            BlockExecutor(prog, op_limit=perfect_ops - 1).capture()
        assert real_capture(perfect_ops).perfect_rollback is not None
        BlockExecutor(prog, op_limit=perfect_ops).capture()

    def test_cached_block_trace_without_rollback_raises(self, tmp_path):
        """Every perfect spec is derived: a real block trace without a
        rollback record (here one stored without the field) makes the
        perfect run raise instead of executing the program again."""
        cache = ArtifactCache(tmp_path / "cache")
        old = capture_run(_pair("compress").block, "block", self.REAL)
        del old.perfect_rollback  # the pickled shape before the field
        tel = Telemetry()
        engine = ExperimentEngine(
            scale=SCALE, benchmarks=["compress"], cache=cache, telemetry=tel
        )
        ckey = engine._compile_key("compress")
        cache.store(trace_key(ckey, "block", self.REAL), old)
        with pytest.raises(SimulationError, match="rollback record"):
            engine.run(RunSpec("compress", "block", self.PERFECT))
        assert tel.metrics.get("plan.cache_hits", kind="trace") == 1
        assert not tel.metrics.get("plan.trace_captures")

    def test_engine_caches_only_the_real_trace(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        engine = ExperimentEngine(
            scale=SCALE, benchmarks=["compress"], cache=cache
        )
        perfect = engine.captured_run(
            RunSpec("compress", "conventional", self.PERFECT)
        )
        ckey = engine._compile_key("compress")
        stored = cache.load(trace_key(ckey, "conventional", self.REAL))
        assert derive_perfect_bp(stored) == perfect
        assert cache.load(
            trace_key(ckey, "conventional", self.PERFECT)
        ) is None

    def test_engine_caches_only_the_real_block_trace(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        engine = ExperimentEngine(
            scale=SCALE, benchmarks=["compress"], cache=cache
        )
        perfect = engine.captured_run(
            RunSpec("compress", "block", self.PERFECT)
        )
        ckey = engine._compile_key("compress")
        stored = cache.load(trace_key(ckey, "block", self.REAL))
        assert stored.perfect_rollback is not None
        assert derive_perfect_bp(stored) == perfect
        assert cache.load(trace_key(ckey, "block", self.PERFECT)) is None


# ---------------------------------------------------------------------------
# Replay prep shared with the derived trace
# ---------------------------------------------------------------------------


def _fresh(captured):
    """*captured* over a deserialized copy of its trace: no prep cached,
    whatever earlier tests replayed."""
    return dataclasses.replace(
        captured, trace=PackedTrace.from_bytes(captured.trace.to_bytes())
    )


#: result-golden key -> asdict of the scalar kernel's result
_SCALAR: dict[str, dict] = {}


def _conventional_configs(name: str) -> dict:
    """Result-golden key -> config of *name*'s conventional paper runs."""
    return {
        key: config
        for key, (bench, isa, config) in result_goldens.planned_specs().items()
        if bench == name and isa == "conventional"
    }


class TestDerivedPrep:
    """A derived perfect-prediction trace shares its parent's replay prep
    read from the shared columns, and keeps the prep read from its own
    flags."""

    def test_derived_trace_shares_column_prep_only(self):
        real = _fresh(
            capture_run(
                _pair("compress").conventional, "conventional",
                MachineConfig(),
            )
        )
        derived = derive_perfect_bp(real)
        assert derived.trace._spans is real.trace._spans
        assert derived.trace._vprep is real.trace._vprep
        assert derived.trace._vflags is not real.trace._vflags
        if vector.HAVE_NUMPY:
            replay_captured(real, MachineConfig(), kernel="numpy")
            replay_captured(
                derived, MachineConfig().with_perfect_bp(), kernel="numpy"
            )
            for key in ("p1", "p2", "p3", "lat"):
                assert real.trace._vprep["cols"][key]
                assert derived.trace._vflags[key] is real.trace._vflags[key]
            assert real.trace._vflags["redirects"] > 0
            assert derived.trace._vflags["redirects"] == 0

    @pytest.mark.skipif(not vector.HAVE_NUMPY, reason="numpy not installed")
    @pytest.mark.parametrize("isa", ["conventional", "block"])
    def test_base_prep_builds_no_per_op_objects(self, isa):
        """The replay prep holds the spine's per-op inputs in flat int
        lists, so on a fresh capture of tens of thousands of ops it
        leaves fewer than 100 new GC-tracked objects; a derived
        conventional trace reuses its parent's lists."""
        real = capture_run(getattr(_pair("ijpeg"), isa), isa, MachineConfig())
        assert real.trace.num_ops > 10_000
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            base = vector._base_prep(real.trace)
            assert len(gc.get_objects()) - before < 100
        finally:
            gc.enable()
        if isa == "conventional":
            derived = vector._base_prep(derive_perfect_bp(real).trace)
            for key in ("p1", "p2", "p3", "lat"):
                assert len(base[key]) == real.trace.num_ops
                assert derived[key] is base[key]

    def test_thawed_traces_start_empty(self):
        real = capture_run(
            _pair("compress").conventional, "conventional", MachineConfig()
        )
        derived = derive_perfect_bp(real)
        replay_captured(real, MachineConfig())
        replay_captured(derived, MachineConfig().with_perfect_bp())
        assert real.trace._spans
        for trace in (real.trace, derived.trace):
            for thawed in (
                PackedTrace.from_bytes(trace.to_bytes()),
                pickle.loads(pickle.dumps(trace)),
            ):
                assert thawed == trace
                assert thawed._spans == {}
                assert thawed._vprep == {}
                assert thawed._vflags == {}

    @pytest.mark.skipif(not vector.HAVE_NUMPY, reason="numpy not installed")
    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("derived_first", [False, True])
    def test_replays_in_either_order_match_scalar_and_golden(
        self, derived_first, batched
    ):
        """The five conventional paper configs of every suite benchmark:
        four on the real trace, perfect prediction on the derived one,
        replayed either trace first, batched or one at a time. Each
        result equals the scalar kernel's and its suite_results.json
        pin."""
        golden = json.loads(result_goldens.GOLDEN_PATH.read_text())["results"]
        for name in SUITE:
            configs = _conventional_configs(name)
            assert len(configs) == 5, name
            captured = capture_goldens.captured_run(
                name, "conventional", MachineConfig()
            )
            real = _fresh(captured)
            derived = derive_perfect_bp(real)
            groups = [
                (run, {
                    k: c for k, c in configs.items()
                    if c.perfect_bp == (run is derived)
                })
                for run in (real, derived)
            ]
            if derived_first:
                groups.reverse()
            for run, group in groups:
                if batched:
                    specs = [
                        RunSpec(name, "conventional", config)
                        for config in group.values()
                    ]
                    results = [
                        result for result, _ in replay_group(
                            run, specs, get_telemetry(), kernel="numpy"
                        )
                    ]
                else:
                    results = [
                        replay_captured(run, config, kernel="numpy")
                        for config in group.values()
                    ]
                for (key, config), result in zip(group.items(), results):
                    if key not in _SCALAR:
                        _SCALAR[key] = dataclasses.asdict(replay_captured(
                            derive_perfect_bp(captured)
                            if config.perfect_bp else captured,
                            config,
                            kernel="python",
                        ))
                    got = dataclasses.asdict(result)
                    assert got == _SCALAR[key], key
                    text = json.dumps(got, sort_keys=True)
                    assert (
                        hashlib.sha256(text.encode()).hexdigest()
                        == golden[key]
                    ), key

    @pytest.mark.parametrize("perfect_first", [False, True])
    def test_block_captures_share_one_decode_in_either_order(
        self, perfect_first
    ):
        """One freshly compiled block program, captured under real and
        perfect prediction in either order, decodes into one table and
        hashes to suite_captures.json; the table never enters the
        program's pickle."""
        name = "compress"
        golden = json.loads(
            capture_goldens.GOLDEN_PATH.read_text()
        )["captures"]
        prog = Toolchain().compile(
            SUITE[name].source(capture_goldens.CAPTURE_SCALE), name
        ).block
        pickled = pickle.dumps(prog)
        configs = [MachineConfig(), MachineConfig().with_perfect_bp()]
        if perfect_first:
            configs.reverse()
        table = None
        for config in configs:
            captured = capture_run(prog, "block", config)
            key = "/".join(
                (name, "block")
                + tuple(str(p) for p in predictor_key(config))
            )
            assert capture_goldens.fingerprint(captured) == golden[key], key
            if table is None:
                table = block_exec._DECODED[prog]
            assert block_exec._DECODED[prog] is table
        assert pickle.dumps(prog) == pickled
        assert pickle.loads(pickled) not in block_exec._DECODED
