"""Conventional-ISA code generation.

Linearizes the register-allocated machine CFG of every function (reverse
postorder, giving natural fall-throughs), emitting ``BR`` (with a
polarity immediate: branch taken when ``(cond != 0) == imm``), ``JMP``,
``CALL``, ``RET``, and a two-op ``_start`` stub (``call main; halt``).
"""

from __future__ import annotations

from repro.backend.machine_ir import MachineFunction, lower_module
from repro.errors import CompileError
from repro.ir.cfg import generic_reverse_postorder
from repro.ir.structure import Module
from repro.isa.opcodes import Opcode
from repro.isa.operation import OP_BYTES, MachineOp
from repro.isa.program import CODE_BASE, ConventionalProgram, DataSegment
from repro.isa.registers import RA
from repro.regalloc.linear_scan import allocate_function


def _layout_order(mf: MachineFunction) -> list[str]:
    order = generic_reverse_postorder(
        mf.entry.label, lambda label: mf.block_map[label].term.targets()
    )
    seen = set(order)
    order.extend(b.label for b in mf.blocks if b.label not in seen)
    return order


def lower_and_allocate(
    module: Module, telemetry=None
) -> tuple[dict[str, MachineFunction], DataSegment]:
    """Machine-lower and register-allocate *module* once.

    The shared step of both back ends: the conventional emitter uses the
    allocated functions' ops as they are, and the block-structured
    emitter copies every op it places, so one result feeds both.
    """
    from repro.obs.telemetry import get_telemetry

    tel = telemetry if telemetry is not None else get_telemetry()
    with tel.span("backend.lower"):
        functions, data = lower_module(module)
    with tel.span("backend.regalloc"):
        for mf in functions.values():
            allocate_function(mf)
    return functions, data


def emit_conventional(
    functions: dict[str, MachineFunction], data, name: str = "", telemetry=None
) -> ConventionalProgram:
    """Emit an executable from register-allocated machine functions."""
    from repro.obs.telemetry import get_telemetry

    tel = telemetry if telemetry is not None else get_telemetry()
    with tel.span("backend.encode", isa="conventional"):
        prog = ConventionalProgram(data, "_start", name)
        ops = prog.ops

        def place_label(label: str) -> None:
            if label in prog.label_addrs:
                raise CompileError(f"duplicate code label {label!r}")
            prog.label_addrs[label] = CODE_BASE + len(ops) * OP_BYTES

        place_label("_start")
        ops.append(MachineOp(Opcode.CALL, target="main"))
        ops.append(MachineOp(Opcode.HALT))

        for fname, mf in functions.items():
            order = _layout_order(mf)
            if mf.is_library:
                prog.library_functions.add(fname)
            place_label(fname)
            for i, label in enumerate(order):
                place_label(label)
                block = mf.block_map[label]
                ops.extend(block.ops)
                term = block.term
                next_label = order[i + 1] if i + 1 < len(order) else None
                if term.kind == "jmp":
                    if term.if_true != next_label:
                        ops.append(MachineOp(Opcode.JMP, target=term.if_true))
                elif term.kind == "br":
                    if term.if_false == next_label:
                        ops.append(
                            MachineOp(Opcode.BR, srcs=(term.cond,),
                                      target=term.if_true, imm=1)
                        )
                    elif term.if_true == next_label:
                        ops.append(
                            MachineOp(Opcode.BR, srcs=(term.cond,),
                                      target=term.if_false, imm=0)
                        )
                    else:
                        ops.append(
                            MachineOp(Opcode.BR, srcs=(term.cond,),
                                      target=term.if_true, imm=1)
                        )
                        ops.append(MachineOp(Opcode.JMP, target=term.if_false))
                elif term.kind == "ret":
                    ops.append(MachineOp(Opcode.RET, srcs=(RA,)))
                else:  # pragma: no cover
                    raise CompileError(f"bad terminator kind {term.kind!r}")

        prog.finalize()
        return prog


def generate_conventional(
    module: Module, name: str = "", telemetry=None
) -> ConventionalProgram:
    """Compile an (already optimized) IR module to a conventional image."""
    functions, data = lower_and_allocate(module, telemetry)
    return emit_conventional(functions, data, name or module.name, telemetry)
