"""Dynamic-trace invariants: dep edges point backwards, uids are unique,
unit shapes match the fetch rules."""

import dataclasses
import random

import pytest

from repro.check import generate_program
from repro.exec import interpret_module
from repro.exec.block import BlockExecutor
from repro.exec.conventional import ConventionalExecutor
from repro.isa.program import BlockProgram
from repro.sim.predictors import BlockPredictor, GsharePredictor
from tests.conftest import compile_cached, FEATURE_PROGRAM


def conv_units(pair, predictor=None):
    return list(ConventionalExecutor(pair.conventional, predictor=predictor).units())


def block_units(pair, predictor=None):
    return list(BlockExecutor(pair.block, predictor=predictor).units())


def test_conventional_units_end_at_control_or_16(feature_pair):
    prog = feature_pair.conventional
    for unit in conv_units(feature_pair):
        assert 1 <= len(unit.ops) <= 16
        # Reconstruct static ops: control op only at the end, or a full
        # 16-op run with no control op at all.
        last_static = prog.op_at(unit.addr + (len(unit.ops) - 1) * 4)
        if len(unit.ops) < 16:
            assert last_static.is_control
        # no control op in the middle
        for i in range(len(unit.ops) - 1):
            assert not prog.op_at(unit.addr + i * 4).is_control


def _check_deps(units):
    seen = set()
    for unit in units:
        for op in unit.ops:
            assert op.uid not in seen, "duplicate uid"
            for dep in op.deps:
                assert dep < op.uid, "dependence must point backwards"
            seen.add(op.uid)
    assert seen


def test_conventional_dep_edges_point_backwards(feature_pair):
    _check_deps(conv_units(feature_pair, predictor=GsharePredictor()))


def test_block_dep_edges_point_backwards(feature_pair):
    _check_deps(
        block_units(feature_pair, predictor=BlockPredictor(feature_pair.block))
    )


def test_loads_and_stores_carry_addresses(feature_pair):
    units = conv_units(feature_pair)
    mem_ops = [op for u in units for op in u.ops if op.is_load or op.is_store]
    assert mem_ops
    assert all(op.mem_addr >= 0 and op.mem_addr % 8 == 0 for op in mem_ops)
    others = [
        op for u in units for op in u.ops if not (op.is_load or op.is_store)
    ]
    assert all(op.mem_addr == -1 for op in others)


def test_latencies_match_table1(feature_pair):
    from repro.isa.latencies import LATENCY, InstrClass

    legal = set(LATENCY.values())
    dcache_miss_extra = set()
    for unit in conv_units(feature_pair):
        for op in unit.ops:
            assert op.lat in legal


def test_mispredicted_units_point_at_their_branch(feature_pair):
    units = conv_units(feature_pair, predictor=GsharePredictor())
    flagged = [u for u in units if u.mispredict]
    assert flagged, "expected at least one misprediction"
    for unit in flagged:
        assert unit.resolve_index == len(unit.ops) - 1


def _assert_trace_is_invisible(executor_cls, prog, predictor_factory):
    """Recording the trace must not change a single architectural
    counter or output, with or without a predictor in the loop."""
    predictor = predictor_factory and predictor_factory(prog)
    traced = executor_cls(prog, predictor=predictor, trace=True)
    trace = traced.capture()
    predictor = predictor_factory and predictor_factory(prog)
    untraced = executor_cls(prog, predictor=predictor, trace=False)
    untraced.run()
    assert trace.num_units > 0
    assert dataclasses.asdict(traced.stats) == dataclasses.asdict(
        untraced.stats
    )
    return traced.stats


PREDICTORS = {
    "perfect": None,
    "real": lambda prog: (
        BlockPredictor(prog) if isinstance(prog, BlockProgram)
        else GsharePredictor()
    ),
}


def test_trace_vs_notrace_same_architecture(feature_pair, feature_golden):
    for factory in PREDICTORS.values():
        stats = _assert_trace_is_invisible(
            ConventionalExecutor, feature_pair.conventional, factory
        )
        assert stats.outputs == feature_golden


def test_block_trace_vs_notrace_same_architecture(feature_pair, feature_golden):
    for factory in PREDICTORS.values():
        stats = _assert_trace_is_invisible(
            BlockExecutor, feature_pair.block, factory
        )
        assert stats.outputs == feature_golden


@pytest.mark.parametrize("mode", PREDICTORS)
@pytest.mark.parametrize("seed", range(4))
def test_trace_vs_notrace_generated_programs(seed, mode):
    """The random programs tests/test_packed_trace.py round-trips, on
    both ISAs and in both predictor modes."""
    source = generate_program(random.Random(f"packed:{seed}"))
    pair = compile_cached(source, f"packed{seed}")
    golden = interpret_module(pair.module)
    for executor_cls, prog in (
        (ConventionalExecutor, pair.conventional),
        (BlockExecutor, pair.block),
    ):
        stats = _assert_trace_is_invisible(
            executor_cls, prog, PREDICTORS[mode]
        )
        assert stats.outputs == golden


def test_store_to_load_dependences_present():
    src = """
    int g;
    void main() {
        g = 41;
        print_int(g + 1);
    }
    """
    pair = compile_cached(src, "stld")
    units = conv_units(pair)
    ops = [op for u in units for op in u.ops]
    stores = {op.uid for op in ops if op.is_store}
    loads = [op for op in ops if op.is_load]
    assert any(set(op.deps) & stores for op in loads)
