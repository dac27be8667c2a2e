"""Workload-suite tests: compilation, equivalence, determinism, character."""

import pytest

from repro.core.toolchain import Toolchain
from repro.exec import interpret_module, run_block_structured, run_conventional
from repro.workloads import SUITE, get_workload

_SCALE = 0.08  # keep suite tests quick; benchmarks use larger scales

_toolchain = Toolchain()
_pairs = {}


def pair_for(name):
    if name not in _pairs:
        _pairs[name] = _toolchain.compile(SUITE[name].source(_SCALE), name)
    return _pairs[name]


def test_suite_has_the_papers_eight_benchmarks():
    assert list(SUITE) == [
        "compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex",
    ]


def test_get_workload_unknown_raises():
    with pytest.raises(KeyError, match="unknown workload"):
        get_workload("nonesuch")


@pytest.mark.parametrize("name", list(SUITE))
def test_workload_compiles_and_executors_agree(name):
    pair = pair_for(name)
    golden = interpret_module(pair.module)
    assert golden, f"{name} must print a checksum"
    assert run_conventional(pair.conventional).outputs == golden
    assert run_block_structured(pair.block).outputs == golden


@pytest.mark.parametrize("name", list(SUITE))
def test_workload_deterministic_source(name):
    w = SUITE[name]
    assert w.source(_SCALE) == w.source(_SCALE)


@pytest.mark.parametrize("name", list(SUITE))
def test_workload_scale_changes_work(name):
    # scales far enough apart that per-workload minimum clamps don't hide
    # the difference
    w = SUITE[name]
    small = _toolchain.compile(w.source(0.1), name)
    big = _toolchain.compile(w.source(0.6), name)
    n_small = run_conventional(small.conventional).dyn_ops
    n_big = run_conventional(big.conventional).dyn_ops
    assert n_big > n_small


def test_scale_must_be_positive():
    for bad in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SUITE["compress"].source(bad)


@pytest.mark.parametrize("name", list(SUITE))
def test_enlargement_grows_blocks_on_every_workload(name):
    pair = pair_for(name)
    conv = run_conventional(pair.conventional)
    block = run_block_structured(pair.block)
    assert block.avg_block_size > conv.avg_unit_size
    assert pair.code_expansion > 1.0


def test_code_footprint_ordering_matches_the_paper():
    """gcc and go carry the paper's large flat code; the rest are small."""
    sizes = {name: pair_for(name).block.code_bytes for name in SUITE}
    assert sizes["go"] > sizes["gcc"] > 4 * max(
        sizes[n] for n in ("compress", "li", "m88ksim")
    )


def test_library_lcg_not_enlarged():
    pair = pair_for("compress")
    lcg_blocks = [
        b for b in pair.block.blocks if b.path[0].startswith("lcg.")
    ]
    assert lcg_blocks
    assert all(len(b.path) == 1 for b in lcg_blocks)


def test_paper_inputs_recorded():
    assert SUITE["m88ksim"].paper_input == "dcrand.train"
    assert SUITE["compress"].paper_input == "test.in*"


def test_extra_scientific_workload():
    from repro.exec import interpret_module
    from repro.workloads import EXTRA, get_workload

    w = get_workload("scientific")
    assert w is EXTRA["scientific"]
    pair = _toolchain.compile(w.source(0.2), "scientific")
    golden = interpret_module(pair.module)
    assert run_conventional(pair.conventional).outputs == golden
    assert run_block_structured(pair.block).outputs == golden
    # FP kernels: the float pipeline must actually be exercised
    from repro.isa.opcodes import Opcode

    opcodes = {op.opcode for op in pair.conventional.ops}
    assert Opcode.FMUL in opcodes and Opcode.FADD in opcodes


def test_extra_dispatch_workload():
    from repro.workloads import EXTRA, get_workload

    w = get_workload("dispatch")
    assert w is EXTRA["dispatch"]
    src = w.source(0.3)
    # the v2 surface is the point of this workload
    assert "struct Node" in src and "switch (" in src
    pair = _toolchain.compile(src, "dispatch")
    golden = interpret_module(pair.module)
    assert len(golden) == 4  # acc, steps, taken, pool checksum
    assert run_conventional(pair.conventional).outputs == golden
    assert run_block_structured(pair.block).outputs == golden
    # the switch dispatch tree must produce enlargeable comparison blocks
    assert any("swcmp" in b.label for b in pair.block.blocks)
