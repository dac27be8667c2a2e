"""Function inlining (paper §6, future work).

"Inlining can increase the fetch bandwidth used by eliminating procedure
calls and returns, allowing the block enlargement optimization to
combine blocks that previously could not be combined."

IR-level inliner: a call to a small, non-recursive, non-library function
is replaced by a copy of its body (fresh virtual registers, fresh block
labels, fresh frame slots); parameter registers are bound by copies and
every ``ret`` becomes a copy-to-result + jump to the continuation block.
Call/return edges are enlargement condition 3's hard boundary, so each
inlined call site directly enlarges the enlargeable region.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.instructions import (
    Bin,
    CallInstr,
    CondBr,
    Const,
    Copy,
    FrameAddr,
    GlobalAddr,
    Instr,
    Jump,
    Load,
    Print,
    Ret,
    Store,
    Un,
    VReg,
)
from repro.ir.structure import BasicBlock, Function, Module


@dataclass(frozen=True)
class InlineConfig:
    """Inlining policy knobs."""

    enabled: bool = True
    #: max callee size in IR instructions (terminators included)
    max_callee_instrs: int = 24
    #: max call sites expanded per caller (bounds code growth)
    max_sites_per_caller: int = 8
    #: leave `library` functions out (their call boundary is the point)
    respect_libraries: bool = True


def _function_size(fn: Function) -> int:
    return sum(len(b.instrs) + 1 for b in fn.blocks)


def _direct_callees(fn: Function) -> set[str]:
    out = set()
    for block in fn.blocks:
        for instr in block.instrs:
            if isinstance(instr, CallInstr):
                out.add(instr.func)
    return out


def _recursive_functions(module: Module) -> set[str]:
    """Functions on any call-graph cycle (never inlined)."""
    graph = {name: _direct_callees(fn) for name, fn in module.functions.items()}
    recursive: set[str] = set()

    for root in graph:
        # DFS from root: root is recursive if reachable from itself.
        stack = list(graph.get(root, ()))
        seen = set()
        while stack:
            node = stack.pop()
            if node == root:
                recursive.add(root)
                break
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph.get(node, ()))
    return recursive


class _Cloner:
    """Clones a callee body into the caller with fresh names."""

    def __init__(self, caller: Function, callee: Function, site_id: int):
        self.caller = caller
        self.callee = callee
        self.site_id = site_id
        self.reg_map: dict[VReg, VReg] = {}
        self.block_map: dict[str, str] = {}
        self.slot_map: dict[str, str] = {}

    def reg(self, old: VReg) -> VReg:
        new = self.reg_map.get(old)
        if new is None:
            new = self.caller.new_vreg(old.ty)
            self.reg_map[old] = new
        return new

    def clone_into(
        self, args: list[VReg], result: VReg | None, continuation: str
    ) -> str:
        """Clone the callee; returns the label of its (cloned) entry."""
        for slot, size in self.callee.frame_slots.items():
            fresh = f"{slot}.inl{self.site_id}"
            while fresh in self.caller.frame_slots:
                fresh += "_"
            self.caller.add_frame_slot(fresh, size)
            self.slot_map[slot] = fresh

        # Create destination blocks first so branch targets resolve.
        for block in self.callee.blocks:
            new_block = self.caller.new_block(f"inl{self.site_id}")
            self.block_map[block.label] = new_block.label

        entry_label = self.block_map[self.callee.entry.label]
        entry_block = self.caller.block(entry_label)
        for param, arg in zip(self.callee.params, args):
            entry_block.append(Copy(self.reg(param), arg))

        for block in self.callee.blocks:
            target = self.caller.block(self.block_map[block.label])
            for instr in block.instrs:
                target.append(self._clone_instr(instr))
            term = block.term
            if isinstance(term, Ret):
                if result is not None:
                    if term.value is None:
                        raise AssertionError(
                            f"{self.callee.name}: void return feeding a value"
                        )
                    target.append(Copy(result, self.reg(term.value)))
                target.terminate(Jump(continuation))
            elif isinstance(term, Jump):
                target.terminate(Jump(self.block_map[term.target]))
            elif isinstance(term, CondBr):
                target.terminate(
                    CondBr(
                        self.reg(term.cond),
                        self.block_map[term.if_true],
                        self.block_map[term.if_false],
                    )
                )
            else:  # pragma: no cover
                raise AssertionError(f"unknown terminator {term!r}")
        return entry_label

    def _clone_instr(self, instr: Instr) -> Instr:
        r = self.reg
        if isinstance(instr, Const):
            return Const(r(instr.dest), instr.value)
        if isinstance(instr, Bin):
            return Bin(instr.op, r(instr.dest), r(instr.a), r(instr.b))
        if isinstance(instr, Un):
            return Un(instr.op, r(instr.dest), r(instr.a))
        if isinstance(instr, Copy):
            return Copy(r(instr.dest), r(instr.src))
        if isinstance(instr, Load):
            return Load(r(instr.dest), r(instr.base), instr.offset)
        if isinstance(instr, Store):
            return Store(r(instr.value), r(instr.base), instr.offset)
        if isinstance(instr, GlobalAddr):
            return GlobalAddr(r(instr.dest), instr.symbol)
        if isinstance(instr, FrameAddr):
            return FrameAddr(r(instr.dest), self.slot_map[instr.slot])
        if isinstance(instr, Print):
            return Print(instr.kind, r(instr.src))
        if isinstance(instr, CallInstr):
            return CallInstr(
                r(instr.dest) if instr.dest is not None else None,
                instr.func,
                [r(a) for a in instr.args],
            )
        raise AssertionError(f"unknown instruction {instr!r}")  # pragma: no cover


def _inline_one_site(
    caller: Function, block: BasicBlock, index: int, callee: Function,
    site_id: int,
) -> None:
    """Split *block* at the call and splice the cloned callee in."""
    call = block.instrs[index]
    assert isinstance(call, CallInstr)
    continuation = caller.new_block(f"cont{site_id}")
    continuation.instrs = block.instrs[index + 1 :]
    continuation.term = block.term
    block.instrs = block.instrs[:index]
    block.term = None

    cloner = _Cloner(caller, callee, site_id)
    entry_label = cloner.clone_into(call.args, call.dest, continuation.label)
    block.terminate(Jump(entry_label))


def remove_uncalled_functions(module: Module) -> int:
    """Drop functions unreachable from main (post-inlining cleanup)."""
    reachable = {"main"}
    work = ["main"]
    while work:
        fn = module.functions.get(work.pop())
        if fn is None:
            continue
        for callee in _direct_callees(fn):
            if callee not in reachable:
                reachable.add(callee)
                work.append(callee)
    dead = [name for name in module.functions if name not in reachable]
    for name in dead:
        del module.functions[name]
    return len(dead)


def inline_module(module: Module, config: InlineConfig | None = None) -> int:
    """Inline eligible call sites across *module*; returns sites expanded."""
    config = config or InlineConfig()
    if not config.enabled:
        return 0
    recursive = _recursive_functions(module)

    def eligible(name: str) -> bool:
        callee = module.functions.get(name)
        if callee is None or name in recursive:
            return False
        if config.respect_libraries and callee.is_library:
            return False
        return _function_size(callee) <= config.max_callee_instrs

    expanded = 0
    site_id = 0
    for caller in module.functions.values():
        budget = config.max_sites_per_caller
        # Worklist over the caller's own blocks. Splitting a block pushes
        # its continuation (caller code that may hold further calls);
        # cloned callee bodies are never pushed, so growth stays linear —
        # one expansion per original call site, no transitive inlining.
        worklist = list(caller.blocks)
        while worklist and budget > 0:
            block = worklist.pop(0)
            for index, instr in enumerate(block.instrs):
                if (
                    isinstance(instr, CallInstr)
                    and instr.func != caller.name
                    and eligible(instr.func)
                ):
                    continuation_index = len(caller.blocks)
                    _inline_one_site(
                        caller, block, index, module.functions[instr.func],
                        site_id,
                    )
                    # _inline_one_site appends the continuation first.
                    worklist.append(caller.blocks[continuation_index])
                    site_id += 1
                    expanded += 1
                    budget -= 1
                    break  # the block was split at the call
    return expanded
