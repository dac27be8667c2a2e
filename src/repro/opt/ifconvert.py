"""If-conversion to predicated execution (paper §3 / §6).

"Predicated execution eliminates program branches by converting their
control dependencies into data dependencies. Once a basic block's branch
has been eliminated, it can be combined with its control flow successors
to form a single basic block." — and larger basic blocks give the block
enlargement optimization more to work with (paper §6).

This pass converts small, side-effect-free if-diamonds and if-triangles::

        B: ... br c ? T : F          B: ...
        T: pure instrs; jmp J   =>      <T's instrs, renamed>
        F: pure instrs; jmp J           <F's instrs, renamed>
        J: ...                          v = select c ? vT : vF  (per var)
                                        jmp J

The paper also names the costs, which the timing model reproduces: both
arms' operations are always fetched and executed, and the select's data
dependence on the condition can lengthen the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import predecessors
from repro.ir.instructions import (
    Bin,
    CondBr,
    Const,
    Copy,
    FrameAddr,
    GlobalAddr,
    Instr,
    Jump,
    Select,
    Un,
    VReg,
)
from repro.ir.structure import BasicBlock, Function

_PURE_HOISTABLE = (Bin, Un, Const, Copy, GlobalAddr, FrameAddr, Select)


@dataclass(frozen=True)
class IfConvertConfig:
    enabled: bool = True
    #: max instructions per hoisted arm
    max_arm_instrs: int = 4


def _hoistable_arm(fn: Function, label: str, join: str, max_instrs: int) -> bool:
    block = fn.block(label)
    if not isinstance(block.term, Jump) or block.term.target != join:
        return False
    if len(block.instrs) > max_instrs:
        return False
    return all(isinstance(i, _PURE_HOISTABLE) for i in block.instrs)


def _clone_arm(
    fn: Function, arm: BasicBlock, out: list[Instr]
) -> dict[VReg, VReg]:
    """Append renamed copies of *arm*'s instrs to *out*; return the map
    from original destination registers to their final renamed values."""
    rename: dict[VReg, VReg] = {}

    def src(reg: VReg) -> VReg:
        return rename.get(reg, reg)

    for instr in arm.instrs:
        if isinstance(instr, Const):
            dest = fn.new_vreg(instr.dest.ty)
            out.append(Const(dest, instr.value))
        elif isinstance(instr, Bin):
            dest = fn.new_vreg(instr.dest.ty)
            out.append(Bin(instr.op, dest, src(instr.a), src(instr.b)))
        elif isinstance(instr, Un):
            dest = fn.new_vreg(instr.dest.ty)
            out.append(Un(instr.op, dest, src(instr.a)))
        elif isinstance(instr, Copy):
            dest = fn.new_vreg(instr.dest.ty)
            out.append(Copy(dest, src(instr.src)))
        elif isinstance(instr, GlobalAddr):
            dest = fn.new_vreg(instr.dest.ty)
            out.append(GlobalAddr(dest, instr.symbol))
        elif isinstance(instr, FrameAddr):
            dest = fn.new_vreg(instr.dest.ty)
            out.append(FrameAddr(dest, instr.slot))
        elif isinstance(instr, Select):
            dest = fn.new_vreg(instr.dest.ty)
            out.append(Select(dest, src(instr.cond), src(instr.a), src(instr.b)))
        else:  # pragma: no cover - guarded by _hoistable_arm
            raise AssertionError(f"non-hoistable {instr!r}")
        rename[instr.defines()] = dest
    return rename


def _defined_outside(fn: Function, var: VReg, arm_labels: set[str]) -> bool:
    """True if *var* has a definition outside the hoisted arms (so the
    one-sided select's fall-back value is always defined — arm-local
    temporaries fail this and simply get no select: they are dead at the
    join and DCE removes their hoisted copies)."""
    if var in fn.params:
        return True
    for other in fn.blocks:
        if other.label in arm_labels:
            continue
        for instr in other.instrs:
            if instr.defines() == var:
                return True
    return False


def _convert_site(
    fn: Function, block: BasicBlock, config: IfConvertConfig
) -> bool:
    term = block.term
    assert isinstance(term, CondBr)
    t_label, f_label = term.if_true, term.if_false
    if t_label == f_label:
        return False

    preds = predecessors(fn)

    def arm_ok(label: str, join: str) -> bool:
        return (
            label != block.label
            and len(preds.get(label, ())) == 1
            and _hoistable_arm(fn, label, join, config.max_arm_instrs)
        )

    t_block = fn.block(t_label)
    f_block = fn.block(f_label)

    # Diamond: both arms jump to a common join.
    if (
        isinstance(t_block.term, Jump)
        and isinstance(f_block.term, Jump)
        and t_block.term.target == f_block.term.target
        and arm_ok(t_label, t_block.term.target)
        and arm_ok(f_label, f_block.term.target)
    ):
        join = t_block.term.target
        if join in (t_label, f_label, block.label):
            return False
        arms = {t_label, f_label}
        t_map = _clone_arm(fn, t_block, block.instrs)
        f_map = _clone_arm(fn, f_block, block.instrs)
        for var in dict.fromkeys(list(t_map) + list(f_map)):
            if var not in t_map or var not in f_map:
                if not _defined_outside(fn, var, arms):
                    continue  # arm-local temporary: dead at the join
            block.instrs.append(
                Select(var, term.cond, t_map.get(var, var), f_map.get(var, var))
            )
        block.term = Jump(join)
        return True

    # Triangle: one arm, falling through to the other side's target.
    for arm_label, other_label, arm_is_true in (
        (t_label, f_label, True),
        (f_label, t_label, False),
    ):
        arm = fn.block(arm_label)
        if (
            isinstance(arm.term, Jump)
            and arm.term.target == other_label
            and arm_ok(arm_label, other_label)
        ):
            if other_label == block.label:
                continue
            arm_map = _clone_arm(fn, arm, block.instrs)
            for var, renamed in arm_map.items():
                if not _defined_outside(fn, var, {arm_label}):
                    continue  # arm-local temporary: dead at the join
                a, b = (renamed, var) if arm_is_true else (var, renamed)
                block.instrs.append(Select(var, term.cond, a, b))
            block.term = Jump(other_label)
            return True
    return False


def if_convert_function(
    fn: Function, config: IfConvertConfig | None = None
) -> int:
    """Convert eligible branches in *fn*; returns sites converted."""
    config = config or IfConvertConfig()
    if not config.enabled:
        return 0
    converted = 0
    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            if isinstance(block.term, CondBr):
                # A select feeding the converted region must not use a
                # register defined only on one path: _clone_arm's renames
                # plus the select of every defined var guarantee that.
                if _convert_site(fn, block, config):
                    converted += 1
                    changed = True
                    break
    return converted


def if_convert_module(module, config: IfConvertConfig | None = None) -> int:
    """Run if-conversion over every function; returns sites converted."""
    total = 0
    for fn in module.functions.values():
        total += if_convert_function(fn, config)
    return total
