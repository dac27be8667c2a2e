"""Shared arithmetic semantics.

One source of truth for evaluating operations, used by the constant
folder, the IR interpreter, and both machine-code functional executors —
so "the compiler" and "the processor" can never disagree about what an
``add`` means.

Integers are 64-bit two's complement; division truncates toward zero
(C semantics); division/remainder by zero yields 0, and so does a
float-to-int conversion of NaN or an infinity (the simulated machine
does not trap — workloads never rely on this, but speculative wrong-path
execution must not crash the simulator). Shift amounts are masked to
0..63.
"""

from __future__ import annotations

import math

from repro.ir.instructions import IrOp

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


def wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    value &= _MASK
    return value - (1 << 64) if value & _SIGN else value


def div_trunc(a: int, b: int) -> int:
    """C-style truncating division; division by zero yields 0."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap64(q)


def rem_trunc(a: int, b: int) -> int:
    """C-style remainder: ``a - div_trunc(a, b) * b``; b == 0 yields 0."""
    if b == 0:
        return 0
    return wrap64(a - div_trunc(a, b) * b)


def shift_amount(b: int) -> int:
    return b & 63


def logical_shift_right(a: int, b: int) -> int:
    return wrap64((a & _MASK) >> shift_amount(b))


def arith_shift_right(a: int, b: int) -> int:
    return wrap64(a >> shift_amount(b))


def fdiv(a: float, b: float) -> float:
    """Float division; /0 yields 0.0 (non-trapping machine, see module doc)."""
    if b == 0.0:
        return 0.0
    return a / b


_INT_BIN = {
    IrOp.ADD: lambda a, b: wrap64(a + b),
    IrOp.SUB: lambda a, b: wrap64(a - b),
    IrOp.MUL: lambda a, b: wrap64(a * b),
    IrOp.DIV: div_trunc,
    IrOp.REM: rem_trunc,
    IrOp.AND: lambda a, b: wrap64(a & b),
    IrOp.OR: lambda a, b: wrap64(a | b),
    IrOp.XOR: lambda a, b: wrap64(a ^ b),
    IrOp.SHL: lambda a, b: wrap64(a << shift_amount(b)),
    IrOp.SHR: logical_shift_right,
    IrOp.SRA: arith_shift_right,
    IrOp.SLT: lambda a, b: int(a < b),
    IrOp.SLE: lambda a, b: int(a <= b),
    IrOp.SEQ: lambda a, b: int(a == b),
    IrOp.SNE: lambda a, b: int(a != b),
}

_FLOAT_BIN = {
    IrOp.FADD: lambda a, b: a + b,
    IrOp.FSUB: lambda a, b: a - b,
    IrOp.FMUL: lambda a, b: a * b,
    IrOp.FDIV: fdiv,
    IrOp.FSLT: lambda a, b: int(a < b),
    IrOp.FSLE: lambda a, b: int(a <= b),
    IrOp.FSEQ: lambda a, b: int(a == b),
    IrOp.FSNE: lambda a, b: int(a != b),
}


def binop_impl(op: IrOp):
    """``(fn, conv)`` for an IR binary op: its value on concrete operands
    *a*, *b* is ``fn(conv(a), conv(b))``, with ``conv`` ``int`` or
    ``float``. Lets a caller that applies one op many times resolve it
    once."""
    fn = _INT_BIN.get(op)
    if fn is not None:
        return fn, int
    fn = _FLOAT_BIN.get(op)
    if fn is not None:
        return fn, float
    raise ValueError(f"{op} is not a binary op")


def eval_binop(op: IrOp, a, b):
    """Evaluate an IR binary op on concrete values."""
    fn, conv = binop_impl(op)
    return fn(conv(a), conv(b))


def eval_unop(op: IrOp, a):
    """Evaluate an IR unary op on a concrete value."""
    if op is IrOp.NEG:
        return wrap64(-int(a))
    if op is IrOp.FNEG:
        return -float(a)
    if op is IrOp.NOT:
        return int(int(a) == 0)
    if op is IrOp.ITOF:
        return float(int(a))
    if op is IrOp.FTOI:
        a = float(a)
        return wrap64(int(a)) if math.isfinite(a) else 0
    raise ValueError(f"{op} is not a unary op")
