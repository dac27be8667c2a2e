"""Decoded machine operations: the functional executors' op tables.

The executors decode the ops they fetch once — lazily, one fetch unit
or atomic block at a time, in a table local to a conventional capture
or shared by every capture of a block program — into plain tuples

    ``(kind, dest, srcs, imm, fn, aux)``

so the executors' hot loops dispatch on a small int instead of hashing
:class:`~repro.isa.opcodes.Opcode` members or calling the
``is_control``/``is_load``/``is_store`` properties, and apply the
function the decode picked from :mod:`repro.semantics` instead of
looking it up per op. The arithmetic still comes only from
:mod:`repro.semantics`. Nothing is cached on the program objects: they
are pickled into compile artifacts, so the block executor keys its
tables by program in a weak map instead.

This module decodes the non-control ops both ISAs share (table below)
and the static per-run columns (:func:`decode_run`); each executor
decodes its own control ops, whose meaning differs between the ISAs.

==========  ==========================================================
kind        effect (``R[r]`` is register *r*)
==========  ==========================================================
``BINI``    ``R[dest] = fn(aux(R[srcs[0]]), imm)``, ``imm`` pre-converted
``BIN``     ``R[dest] = fn(aux(R[srcs[0]]), aux(R[srcs[1]]))``
``MOV``     ``R[dest] = R[srcs[0]]``
``MOVI``    ``R[dest] = imm``
``SELECT``  ``R[dest] = R[srcs[1]] if R[srcs[0]] != 0 else R[srcs[2]]``
``UNARY``   ``R[dest] = fn(R[srcs[0]])``
``OUT``     append ``(imm, fn(R[srcs[0]]))`` to the program output
``LOAD``    ``R[dest] = M[ea]``, passed through ``fn`` unless it is None
``STORE``   ``M[ea] = R[srcs[0]]``
``BAD``     raise :class:`~repro.errors.ExecutionError` (message ``aux``)
==========  ==========================================================

Operand convention: binary ops may carry an immediate as their final
operand (``srcs`` one short). The effective address of a load or store
is ``(int(R[base]) + imm + (int(R[aux]) << 3)) & ~7``: ``base`` is
``srcs[0]`` for loads and ``srcs[1]`` for stores, ``imm`` the byte
offset, and ``aux`` the index register of the scaled forms (``None``
for the plain ones). Aligning down means the machine never traps,
which keeps speculative wrong-path execution harmless, and memory is
only ever touched at aligned addresses.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Callable

from repro.exec.trace import OP_LATENCY, OPF_LOAD, OPF_STORE
from repro.ir.instructions import IrOp
from repro.isa.opcodes import Opcode
from repro.isa.operation import MachineOp
from repro.semantics import binop_impl, eval_unop

# Kinds, most frequent first: the executors test them in this order.
BINI, MOV, STORE, LOAD, BIN, MOVI = range(6)
SELECT, UNARY, OUT, BAD = range(6, 10)
#: control kinds (decoded by the executors)
BR, JMP, CALL, RET, HALT, TRAP, FAULT = range(10, 17)

_BIN_IR = {
    Opcode.ADD: IrOp.ADD,
    Opcode.SUB: IrOp.SUB,
    Opcode.AND: IrOp.AND,
    Opcode.OR: IrOp.OR,
    Opcode.XOR: IrOp.XOR,
    Opcode.SLT: IrOp.SLT,
    Opcode.SLE: IrOp.SLE,
    Opcode.SEQ: IrOp.SEQ,
    Opcode.SNE: IrOp.SNE,
    Opcode.SHL: IrOp.SHL,
    Opcode.SHR: IrOp.SHR,
    Opcode.SRA: IrOp.SRA,
    Opcode.MUL: IrOp.MUL,
    Opcode.DIV: IrOp.DIV,
    Opcode.REM: IrOp.REM,
    Opcode.FADD: IrOp.FADD,
    Opcode.FSUB: IrOp.FSUB,
    Opcode.FMUL: IrOp.FMUL,
    Opcode.FDIV: IrOp.FDIV,
    Opcode.FSLT: IrOp.FSLT,
    Opcode.FSLE: IrOp.FSLE,
    Opcode.FSEQ: IrOp.FSEQ,
    Opcode.FSNE: IrOp.FSNE,
}

_UNARY_IR = {Opcode.CVTIF: IrOp.ITOF, Opcode.CVTFI: IrOp.FTOI}

#: output op -> (output kind tag, value conversion)
_OUTPUTS = {
    Opcode.PUTINT: ("i", int),
    Opcode.PUTFLT: ("f", float),
    Opcode.PUTCH: ("i", lambda v: int(v) & 0xFF),
}

#: load op -> conversion of the loaded word (None: keep it as stored)
_LOADS = {
    Opcode.LD: None, Opcode.LDX: None, Opcode.FLD: float, Opcode.FLDX: float,
}
_STORES = frozenset({Opcode.ST, Opcode.FST, Opcode.STX, Opcode.FSTX})
_INDEXED = frozenset({Opcode.LDX, Opcode.FLDX, Opcode.STX, Opcode.FSTX})


def decode(op: MachineOp) -> tuple:
    """The decoded tuple of one non-control op."""
    oc = op.opcode
    srcs = op.srcs
    ir = _BIN_IR.get(oc)
    if ir is not None:
        fn, conv = binop_impl(ir)
        if len(srcs) > 1:
            return (BIN, op.dest, srcs, None, fn, conv)
        # A missing immediate stays None: fn raises when the op runs,
        # not when a unit that merely contains it is decoded.
        imm = op.imm if op.imm is None else conv(op.imm)
        return (BINI, op.dest, srcs, imm, fn, conv)
    if oc is Opcode.MOV or oc is Opcode.FMOV:
        return (MOV, op.dest, srcs, None, None, None)
    if oc is Opcode.MOVI or oc is Opcode.FMOVI:
        return (MOVI, op.dest, srcs, op.imm, None, None)
    if oc is Opcode.SELECT or oc is Opcode.FSELECT:
        return (SELECT, op.dest, srcs, None, None, None)
    if oc in _LOADS:
        index = srcs[1] if oc in _INDEXED else None
        return (LOAD, op.dest, srcs, op.imm or 0, _LOADS[oc], index)
    if oc in _STORES:
        index = srcs[2] if oc in _INDEXED else None
        return (STORE, None, srcs, op.imm or 0, None, index)
    if oc in _UNARY_IR:
        fn = partial(eval_unop, _UNARY_IR[oc])
        return (UNARY, op.dest, srcs, None, fn, None)
    if oc in _OUTPUTS:
        tag, conv = _OUTPUTS[oc]
        return (OUT, None, srcs, tag, conv, None)
    return (BAD, None, srcs, None, None, f"cannot evaluate {op.asm()!r}")


def decode_run(
    ops: list[MachineOp], control: Callable[[MachineOp, int], tuple]
) -> tuple:
    """Decode a run of ops that is always fetched whole.

    Returns ``(decoded, lat, flags, mem, loads, stores)``: the decoded
    tuples (control ops through *control*, which also gets the op's
    index in the run), the run's static ``op_lat``/``op_flags``
    columns, an ``op_mem`` column of ``-1`` for the executor to fill in
    at the memory ops, and the run's load and store counts.
    """
    decoded = []
    for index, op in enumerate(ops):
        decoded.append(control(op, index) if op.is_control else decode(op))
    flags = array("B", (
        OPF_LOAD if d[0] == LOAD else OPF_STORE if d[0] == STORE else 0
        for d in decoded
    ))
    return (
        tuple(decoded),
        array("q", (OP_LATENCY[op.opcode] for op in ops)),
        flags,
        array("q", [-1]) * len(ops),
        flags.count(OPF_LOAD),
        flags.count(OPF_STORE),
    )
