"""Block-structured ISA code generation.

From the same register-allocated machine functions as the conventional
back end (:func:`~repro.backend.conventional.lower_and_allocate`), this
module:

1. builds *pre-blocks*: machine basic blocks split at ``CALL`` ops
   (condition 3 — call/return edges end atomic blocks) and at the
   16-op issue-width limit (condition 1 applies to un-enlarged blocks
   too);
2. runs the block enlargement pass (:mod:`repro.backend.enlarge`);
3. assembles each variant into an :class:`~repro.isa.program.AtomicBlock`
   — interior traps become ``FAULT`` ops (polarity immediate: the fault
   fires when the branch outcome differs from the direction the variant
   encodes), the final terminator becomes ``TRAP``/``JMP``/``CALL``/
   ``RET``/``HALT`` — and lays the blocks out contiguously.

``CALL`` inside an atomic block carries its continuation block label in
``target2``; the processor writes the continuation's address to ``RA``
when the block commits.
"""

from __future__ import annotations

from repro.backend.enlarge import (
    EnlargeConfig,
    FamilyResult,
    PreBlock,
    PreTerm,
    Variant,
    enlarge_function,
)
from repro.backend.conventional import lower_and_allocate
# lower_module and allocate_function run in lower_and_allocate; they stay
# importable here because perfbench/layers.py traces both names in each
# back end.
from repro.backend.machine_ir import MachineFunction, lower_module  # noqa: F401
from repro.errors import CompileError
from repro.ir.structure import Module
from repro.isa.opcodes import Opcode
from repro.isa.operation import MachineOp
from repro.isa.program import AtomicBlock, BlockProgram
from repro.isa.registers import RA
from repro.regalloc.linear_scan import allocate_function  # noqa: F401


def build_preblocks(
    mf: MachineFunction, max_ops: int = 16
) -> tuple[dict[str, PreBlock], str, set[str]]:
    """Split *mf*'s blocks into pre-blocks (call and size splitting).

    Returns ``(blocks, entry label, call-continuation labels)`` — the
    continuations (return targets) join the function entry as *restricted*
    enlargement roots (single-variant families, see enlarge.py).
    """
    if max_ops < 2:
        raise CompileError("atomic blocks need at least 2 op slots")
    blocks: dict[str, PreBlock] = {}
    continuations: set[str] = set()
    body_limit = max_ops - 1  # one slot for the terminator

    def flush(label: str, ops: list[MachineOp], term: PreTerm) -> None:
        """Add a pre-block, size-splitting the body if necessary."""
        chunk_index = 0
        current_label = label
        while len(ops) > body_limit:
            head, ops = ops[:body_limit], ops[body_limit:]
            next_label = f"{label}.s{chunk_index}"
            chunk_index += 1
            blocks[current_label] = PreBlock(
                current_label, head, PreTerm("jmp", if_true=next_label)
            )
            current_label = next_label
        blocks[current_label] = PreBlock(current_label, ops, term)

    for mblock in mf.blocks:
        label = mblock.label
        pending: list[MachineOp] = []
        call_index = 0
        for op in mblock.ops:
            if op.opcode is Opcode.CALL:
                cont = f"{mblock.label}.c{call_index}"
                call_index += 1
                continuations.add(cont)
                flush(
                    label,
                    pending,
                    PreTerm("call", callee=op.target, if_true=cont),
                )
                label = cont
                pending = []
            else:
                pending.append(op)
        mterm = mblock.term
        if mterm.kind == "br":
            term = PreTerm(
                "trap", cond=mterm.cond,
                if_true=mterm.if_true, if_false=mterm.if_false,
            )
        elif mterm.kind == "jmp":
            term = PreTerm("jmp", if_true=mterm.if_true)
        elif mterm.kind == "ret":
            term = PreTerm("ret")
        else:  # pragma: no cover
            raise CompileError(f"bad terminator kind {mterm.kind!r}")
        flush(label, pending, term)
    return blocks, mf.entry.label, continuations


def _assemble_variant(
    variant: Variant,
    canonical: dict[str, str],
    entry_of: dict[str, str],
) -> AtomicBlock:
    """Build the AtomicBlock for one enlarged variant."""
    ops: list[MachineOp] = []
    fault_index = 0
    for i, pre in enumerate(variant.blocks):
        ops.extend(op.copy() for op in pre.ops)
        is_last = i == len(variant.blocks) - 1
        term = pre.term
        if not is_last:
            if term.kind == "trap":
                ops.append(
                    MachineOp(
                        Opcode.FAULT,
                        srcs=(term.cond,),
                        target=variant.fault_targets[fault_index],
                        imm=variant.dirs[fault_index],
                    )
                )
                fault_index += 1
            elif term.kind == "jmp":
                pass  # merged away
            else:  # pragma: no cover
                raise CompileError(
                    f"variant {variant.label} crosses a {term.kind} edge"
                )
            continue
        # Final terminator.
        if term.kind == "trap":
            ops.append(
                MachineOp(
                    Opcode.TRAP,
                    srcs=(term.cond,),
                    target=canonical[term.if_true],
                    target2=canonical[term.if_false],
                    nbits=variant.nbits,
                )
            )
        elif term.kind == "jmp":
            ops.append(
                MachineOp(
                    Opcode.JMP,
                    target=canonical[term.if_true],
                    nbits=variant.nbits,
                )
            )
        elif term.kind == "call":
            callee_entry = entry_of.get(term.callee)
            if callee_entry is None:
                raise CompileError(f"call to unknown function {term.callee!r}")
            ops.append(
                MachineOp(
                    Opcode.CALL,
                    target=callee_entry,
                    target2=canonical[term.if_true],
                )
            )
        elif term.kind == "ret":
            ops.append(MachineOp(Opcode.RET, srcs=(RA,)))
        elif term.kind == "halt":
            ops.append(MachineOp(Opcode.HALT))
        else:  # pragma: no cover
            raise CompileError(f"bad terminator kind {term.kind!r}")
    block = AtomicBlock(
        variant.label, ops, tuple(b.label for b in variant.blocks), variant.dirs
    )
    if block.num_ops > 16:
        raise CompileError(
            f"atomic block {variant.label} has {block.num_ops} ops"
        )
    return block


def generate_block_structured(
    module: Module,
    name: str = "",
    config: EnlargeConfig | None = None,
    telemetry=None,
) -> BlockProgram:
    """Compile an (already optimized) IR module to a BS-ISA image."""
    functions, data = lower_and_allocate(module, telemetry)
    return emit_block_structured(
        functions, data, name or module.name, config, telemetry
    )


def emit_block_structured(
    functions: dict[str, MachineFunction],
    data,
    name: str = "",
    config: EnlargeConfig | None = None,
    telemetry=None,
    profile=None,
) -> BlockProgram:
    """The BS-ISA image of allocated *functions*; *profile* is the
    training run's branch profile of a profile-guided compile
    (:func:`~repro.backend.enlarge.enlarge_function`)."""
    from repro.obs.telemetry import get_telemetry

    config = config or EnlargeConfig()
    tel = telemetry if telemetry is not None else get_telemetry()
    prog = BlockProgram(data, "_start", name)

    results: dict[str, FamilyResult] = {}
    entry_pre: dict[str, str] = {}
    with tel.span("backend.enlarge", isa="block"):
        for fname, mf in functions.items():
            pre_blocks, entry, continuations = build_preblocks(
                mf, config.max_ops
            )
            entry_pre[fname] = entry
            results[fname] = enlarge_function(
                pre_blocks,
                entry,
                config,
                is_library=mf.is_library,
                restricted=continuations | {entry},
                profile=profile,
            )
            if mf.is_library:
                prog.library_functions.add(fname)
    if tel.enabled:
        for fname, result in results.items():
            tel.metrics.inc(
                "enlarge.variants", len(result.variants), module=name
            )
            tel.metrics.inc(
                "enlarge.families", len(result.families), module=name
            )

    with tel.span("backend.encode", isa="block"):
        # Function name -> canonical entry variant label.
        entry_of = {
            fname: results[fname].canonical[entry_pre[fname]]
            for fname in functions
        }

        # The program entry: `_start` calls main and halts.
        canonical_all: dict[str, str] = {"_halt": "_halt"}
        for result in results.values():
            canonical_all.update(result.canonical)

        start = AtomicBlock(
            "_start",
            [MachineOp(Opcode.CALL, target=entry_of["main"], target2="_halt")],
            ("_start",),
            (),
        )
        halt = AtomicBlock("_halt", [MachineOp(Opcode.HALT)], ("_halt",), ())
        prog.add_block(start)
        prog.add_block(halt)

        for fname, result in results.items():
            # Emit the canonical entry variant first for each family so
            # code layout keeps hot paths contiguous.
            for root, family in result.families.items():
                for label in family:
                    prog.add_block(
                        _assemble_variant(
                            result.variants[label], canonical_all, entry_of
                        )
                    )

        prog.finalize()
        for fname in functions:
            prog.label_addrs.setdefault(
                fname, prog.label_addrs[entry_of[fname]]
            )
    return prog
