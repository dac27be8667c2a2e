"""Arithmetic-semantics tests (64-bit wrapping, C division, shifts)."""

from hypothesis import given, strategies as st

from repro.ir.instructions import IrOp
from repro.semantics import (
    arith_shift_right,
    div_trunc,
    eval_binop,
    eval_unop,
    logical_shift_right,
    rem_trunc,
    wrap64,
)

i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
any_int = st.integers(min_value=-(2**80), max_value=2**80)


def test_wrap64_identity_in_range():
    assert wrap64(0) == 0
    assert wrap64(2**63 - 1) == 2**63 - 1
    assert wrap64(-(2**63)) == -(2**63)


def test_wrap64_overflow():
    assert wrap64(2**63) == -(2**63)
    assert wrap64(2**64) == 0
    assert wrap64(-(2**63) - 1) == 2**63 - 1


@given(any_int)
def test_wrap64_is_idempotent(x):
    assert wrap64(wrap64(x)) == wrap64(x)


@given(any_int)
def test_wrap64_congruent_mod_2_64(x):
    assert (wrap64(x) - x) % (2**64) == 0


def test_div_truncates_toward_zero():
    assert div_trunc(7, 2) == 3
    assert div_trunc(-7, 2) == -3
    assert div_trunc(7, -2) == -3
    assert div_trunc(-7, -2) == 3


def test_div_rem_by_zero_yield_zero():
    assert div_trunc(5, 0) == 0
    assert rem_trunc(5, 0) == 0


@given(i64, i64)
def test_div_rem_identity(a, b):
    if b != 0:
        assert wrap64(div_trunc(a, b) * b + rem_trunc(a, b)) == wrap64(a)


@given(i64, i64)
def test_rem_sign_follows_dividend(a, b):
    r = rem_trunc(a, b)
    if b != 0 and r != 0 and abs(div_trunc(a, b) * b) < 2**62:
        assert (r < 0) == (a < 0)


def test_shift_amounts_masked_to_63():
    assert eval_binop(IrOp.SHL, 1, 64) == 1
    assert eval_binop(IrOp.SHL, 1, 65) == 2
    assert logical_shift_right(8, 64 + 2) == 2


def test_logical_vs_arithmetic_shift_on_negatives():
    assert arith_shift_right(-8, 1) == -4
    assert logical_shift_right(-8, 1) == (2**64 - 8) >> 1


@given(i64, st.integers(min_value=0, max_value=63))
def test_shl_then_sra_of_positive(x, s):
    small = x >> 16  # keep shifted value in range
    shifted = eval_binop(IrOp.SHL, small, s)
    if abs(small) < 2 ** (62 - s):
        assert eval_binop(IrOp.SRA, shifted, s) == small


def test_compare_ops_return_zero_one():
    assert eval_binop(IrOp.SLT, 1, 2) == 1
    assert eval_binop(IrOp.SLE, 2, 2) == 1
    assert eval_binop(IrOp.SEQ, 2, 3) == 0
    assert eval_binop(IrOp.SNE, 2, 3) == 1
    assert eval_binop(IrOp.FSLT, 1.0, 0.5) == 0


@given(i64, i64)
def test_add_commutes(a, b):
    assert eval_binop(IrOp.ADD, a, b) == eval_binop(IrOp.ADD, b, a)


@given(i64)
def test_neg_is_involutive_except_min(x):
    if x != -(2**63):
        assert eval_unop(IrOp.NEG, eval_unop(IrOp.NEG, x)) == x


def test_neg_of_int64_min_wraps():
    assert eval_unop(IrOp.NEG, -(2**63)) == -(2**63)


def test_not_is_logical():
    assert eval_unop(IrOp.NOT, 0) == 1
    assert eval_unop(IrOp.NOT, 5) == 0
    assert eval_unop(IrOp.NOT, -1) == 0


def test_conversions():
    assert eval_unop(IrOp.ITOF, 3) == 3.0
    assert eval_unop(IrOp.FTOI, 3.9) == 3
    assert eval_unop(IrOp.FTOI, -3.9) == -3


def test_float_to_int_of_nan_or_infinity_yields_zero():
    """The machine does not trap: like a division by zero, a conversion
    with no integer value yields 0."""
    for value in (float("inf"), float("-inf"), float("nan"), 1e308 * 1e308):
        assert eval_unop(IrOp.FTOI, value) == 0
    # finite values still wrap to 64 bits
    assert eval_unop(IrOp.FTOI, 2.0**64 + 2**12) == 2**12


def test_float_div_by_zero_yields_zero():
    assert eval_binop(IrOp.FDIV, 1.0, 0.0) == 0.0
