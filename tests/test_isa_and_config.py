"""ISA metadata and machine-config tests."""

import pytest

from repro.errors import ConfigError
from repro.isa import (
    LATENCY,
    LINE_BYTES,
    OP_BYTES,
    InstrClass,
    MachineOp,
    Opcode,
    latency_of,
    reg_name,
)
from repro.isa.opcodes import BLOCK_ONLY, CONVENTIONAL_ONLY, OPCODE_INFO
from repro.isa.program import DataSegment
from repro.isa.registers import (
    ALLOCATABLE_FP,
    ALLOCATABLE_INT,
    ARG_BASE,
    CALLEE_SAVED_INT,
    FIRST_VREG,
    FP_BASE,
    FP_SCRATCH,
    INT_SCRATCH,
    RA,
    RV,
    SP,
    ZERO,
    is_fp_reg,
    is_virtual,
)
from repro.sim.config import CacheConfig, MachineConfig


def test_table1_latency_values():
    assert LATENCY[InstrClass.INTEGER] == 1
    assert LATENCY[InstrClass.FP_ADD] == 3
    assert LATENCY[InstrClass.MUL] == 3
    assert LATENCY[InstrClass.DIV] == 8
    assert LATENCY[InstrClass.LOAD] == 2
    assert LATENCY[InstrClass.STORE] == 1
    assert LATENCY[InstrClass.BIT_FIELD] == 1
    assert LATENCY[InstrClass.BRANCH] == 1
    assert latency_of(InstrClass.DIV) == 8


def test_every_opcode_has_info():
    for opcode in Opcode:
        info = OPCODE_INFO[opcode]
        assert info.klass in InstrClass
        if info.is_load:
            assert info.writes_dest
        if info.is_store:
            assert not info.writes_dest


def test_isa_partitions():
    assert Opcode.BR in CONVENTIONAL_ONLY
    assert Opcode.TRAP in BLOCK_ONLY and Opcode.FAULT in BLOCK_ONLY
    assert not (BLOCK_ONLY & CONVENTIONAL_ONLY)


def test_register_conventions():
    assert ZERO == 0 and SP == 29 and RA == 31 and RV == 2
    assert FP_BASE == 32 and FIRST_VREG == 64
    pinned = {ZERO, SP, RA, RV} | set(range(ARG_BASE, ARG_BASE + 8))
    assert not (set(ALLOCATABLE_INT) & pinned)
    assert not (set(ALLOCATABLE_INT) & set(INT_SCRATCH))
    assert not (set(ALLOCATABLE_FP) & set(FP_SCRATCH))
    assert set(CALLEE_SAVED_INT) <= set(ALLOCATABLE_INT)


def test_reg_names():
    assert reg_name(0) == "r0"
    assert reg_name(31) == "r31"
    assert reg_name(FP_BASE) == "f0"
    assert reg_name(FIRST_VREG + 5) == "v5"
    with pytest.raises(ValueError):
        reg_name(-1)
    assert is_fp_reg(FP_BASE) and not is_fp_reg(5)
    assert is_virtual(FIRST_VREG) and not is_virtual(63)


def test_machine_op_helpers():
    op = MachineOp(Opcode.ADD, dest=3, srcs=(4, 5))
    assert op.klass is InstrClass.INTEGER
    assert not op.is_control and not op.is_load
    clone = op.copy()
    assert clone is not op and clone.srcs == op.srcs
    assert "add r3, r4, r5" == op.asm()
    trap = MachineOp(Opcode.TRAP, srcs=(6,), target="a", target2="b", nbits=2)
    assert "nbits=2" in trap.asm()


def test_data_segment_allocation():
    data = DataSegment()
    a = data.allocate("a", 8)
    b = data.allocate("b", 12)  # rounded up to 16
    assert b == a + 8
    c = data.allocate("c", 8)
    assert c == b + 16
    assert data.address_of("b") == b
    with pytest.raises(Exception):
        data.allocate("a", 8)


def test_cache_config_validation():
    assert CacheConfig(64 * 1024, 4).num_sets == 256
    with pytest.raises(ConfigError):
        CacheConfig(64 * 1024 + 8, 4)


@pytest.mark.parametrize("perfect", [False, True])
def test_machine_config_rejects_impossible_predictor_geometry(perfect):
    """The history register indexes into the table, so it can be no
    wider than the table index; perfect prediction is no exception."""
    with pytest.raises(ConfigError, match=r"\[0, bp_table_bits=14\], got 15"):
        MachineConfig(bp_history_bits=15, perfect_bp=perfect)
    with pytest.raises(ConfigError, match="got -1"):
        MachineConfig(bp_history_bits=-1, perfect_bp=perfect)
    for bits in (0, 14):  # the bounds themselves are valid
        MachineConfig(bp_history_bits=bits, perfect_bp=perfect)


@pytest.mark.parametrize(
    "field, least",
    [
        ("fu_count", 1),
        ("window_ops", 1),
        ("window_blocks", 1),
        ("retire_width", 1),
        ("fetch_lines", 1),
        ("frontend_depth", 0),
        ("mispredict_penalty", 0),
        ("l2_latency", 0),
    ],
)
def test_machine_config_rejects_out_of_range_fields(field, least):
    bad = least - 3
    with pytest.raises(
        ConfigError, match=f"^{field} must be >= {least}, got {bad}$"
    ):
        MachineConfig(**{field: bad})
    with pytest.raises(ConfigError, match=f"^{field} must be >= {least}"):
        MachineConfig(**{field: least - 1})
    assert getattr(MachineConfig(**{field: least}), field) == least


@pytest.mark.parametrize(
    "geometry, field",
    [
        ((4096, 0), "assoc"),
        ((0, 4), "size_bytes"),
        ((-4096, 4), "size_bytes"),
        ((4096, 4, 0), "line_bytes"),
    ],
)
def test_cache_config_rejects_empty_geometry(geometry, field):
    with pytest.raises(ConfigError, match=f"^{field} must be >= 1, got "):
        CacheConfig(*geometry)


def test_machine_config_paper_defaults():
    config = MachineConfig()
    assert config.issue_width == 16
    assert config.fu_count == 16
    assert config.window_blocks == 32
    assert config.window_ops == 512
    assert config.l2_latency == 6
    assert config.icache.size_bytes == 64 * 1024
    assert config.icache.assoc == 4
    assert config.dcache.size_bytes == 16 * 1024
    assert not config.perfect_bp


def test_machine_config_builders():
    config = MachineConfig()
    small = config.with_icache_kb(16)
    assert small.icache.size_bytes == 16 * 1024
    assert config.icache.size_bytes == 64 * 1024  # frozen original intact
    perfect = config.with_icache_kb(None)
    assert perfect.icache is None
    assert config.with_perfect_bp().perfect_bp


def test_line_and_op_sizes():
    assert OP_BYTES == 4
    assert LINE_BYTES == 64  # 16 ops per line: one max atomic block aligned
