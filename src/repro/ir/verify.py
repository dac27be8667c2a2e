"""IR well-formedness checks.

The verifier is run after lowering and after every optimizer pass in
tests; it catches the classes of bug that otherwise surface as bizarre
simulator behaviour much later.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.cfg import reachable, successors
from repro.ir.instructions import (
    Bin,
    CallInstr,
    CondBr,
    Load,
    Select,
    Store,
    Un,
    IrOp,
    VReg,
)
from repro.ir.structure import Function, Module

_FLOAT_RESULT_OPS = {IrOp.FADD, IrOp.FSUB, IrOp.FMUL, IrOp.FDIV, IrOp.FNEG, IrOp.ITOF}
_FLOAT_OPERAND_OPS = {
    IrOp.FADD,
    IrOp.FSUB,
    IrOp.FMUL,
    IrOp.FDIV,
    IrOp.FSLT,
    IrOp.FSLE,
    IrOp.FSEQ,
    IrOp.FSNE,
    IrOp.FNEG,
    IrOp.FTOI,
}


def verify_function(fn: Function) -> None:
    """Raise :class:`IRError` if *fn* is malformed."""
    if not fn.blocks:
        raise IRError(f"{fn.name}: no blocks")
    seen_labels: set[str] = set()
    for block in fn.blocks:
        if block.label in seen_labels:
            raise IRError(f"{fn.name}: duplicate block label {block.label}")
        seen_labels.add(block.label)
        if block.term is None:
            raise IRError(f"{fn.name}: block {block.label} has no terminator")
        for target in successors(block):
            if target not in fn.block_map:
                raise IRError(
                    f"{fn.name}: block {block.label} targets unknown {target!r}"
                )
        for instr in block.instrs:
            _check_instr_types(fn, block.label, instr)
        if isinstance(block.term, CondBr) and block.term.cond.is_float:
            raise IRError(
                f"{fn.name}:{block.label}: branch condition must be an int vreg"
            )
    if fn.block_map.keys() != {b.label for b in fn.blocks}:
        raise IRError(f"{fn.name}: block map out of sync with block list")
    _check_defined_before_use(fn)


def _check_instr_types(fn: Function, label: str, instr) -> None:
    where = f"{fn.name}:{label}"
    if isinstance(instr, Bin):
        want_float = instr.op in _FLOAT_OPERAND_OPS
        if instr.a.is_float != want_float or instr.b.is_float != want_float:
            raise IRError(f"{where}: operand type mismatch in {instr!r}")
        result_float = instr.op in _FLOAT_RESULT_OPS
        if instr.dest.is_float != result_float:
            raise IRError(f"{where}: result type mismatch in {instr!r}")
    elif isinstance(instr, Un):
        want_float = instr.op in _FLOAT_OPERAND_OPS
        if instr.a.is_float != want_float:
            raise IRError(f"{where}: operand type mismatch in {instr!r}")
        result_float = instr.op in _FLOAT_RESULT_OPS
        if instr.dest.is_float != result_float:
            raise IRError(f"{where}: result type mismatch in {instr!r}")
    elif isinstance(instr, Select):
        if instr.cond.is_float:
            raise IRError(f"{where}: select condition must be int in {instr!r}")
        if instr.a.is_float != instr.dest.is_float or \
                instr.b.is_float != instr.dest.is_float:
            raise IRError(f"{where}: select operand types differ in {instr!r}")
    elif isinstance(instr, (Load, Store)):
        if instr.base.is_float:
            raise IRError(f"{where}: address must be an int vreg in {instr!r}")
    elif isinstance(instr, CallInstr):
        if fn.name and instr.func == "":
            raise IRError(f"{where}: call with empty callee")


def _check_defined_before_use(fn: Function) -> None:
    """Every use must be dominated by some def (approximated by a forward
    dataflow over 'maybe-defined' sets: a use of a register that is not
    maybe-defined on entry to its block and not defined earlier in the
    block is an error)."""
    params = set(fn.params)
    live = reachable(fn)
    blocks = [b for b in fn.blocks if b.label in live]
    preds: dict[str, list[str]] = {b.label: [] for b in fn.blocks}
    # each block's own definitions, collected once
    defs: dict[str, set[VReg]] = {}
    for block in blocks:
        for target in successors(block):
            preds[target].append(block.label)
        defs[block.label] = {
            d for d in (instr.defines() for instr in block.instrs)
            if d is not None
        }
    defined_out: dict[str, set[VReg]] = {}

    def incoming(label: str) -> set[VReg]:
        regs = set(params)
        for p in preds[label]:
            regs.update(defined_out.get(p, ()))
        return regs

    changed = True
    # 'may be defined' forward fixpoint (union over preds)
    while changed:
        changed = False
        for block in blocks:
            current = incoming(block.label)
            current |= defs[block.label]
            if defined_out.get(block.label) != current:
                defined_out[block.label] = current
                changed = True

    for block in blocks:
        label = block.label
        current = incoming(label)
        for instr in block.instrs:
            for use in instr.uses():
                if use not in current:
                    raise IRError(
                        f"{fn.name}:{label}: {use} used before any definition "
                        f"in {instr!r}"
                    )
            d = instr.defines()
            if d is not None:
                current.add(d)
        if block.term is not None:
            for use in block.term.uses():
                if use not in current:
                    raise IRError(
                        f"{fn.name}:{label}: {use} used before any definition "
                        f"in terminator {block.term!r}"
                    )


def verify_module(module: Module) -> None:
    """Verify every function and cross-function references."""
    names = set(module.functions)
    for fn in module.functions.values():
        verify_function(fn)
        for block in fn.blocks:
            for instr in block.instrs:
                if isinstance(instr, CallInstr) and instr.func not in names:
                    raise IRError(
                        f"{fn.name}: call to unknown function {instr.func!r}"
                    )
