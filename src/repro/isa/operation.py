"""The :class:`MachineOp` record — one operation in either ISA.

A ``MachineOp`` corresponds to one conventional-ISA instruction or one
operation inside a BS-ISA atomic block. Operations are 4 bytes
(:data:`OP_BYTES`) for the purpose of code layout and icache modelling.

Branch-like fields:

``target`` / ``target2``
    Label strings during code generation, resolved to byte addresses
    (``taddr`` / ``taddr2``) by the layout pass. ``target2`` is only used
    by ``TRAP`` (the false-path explicit target).
``nbits``
    For ``TRAP``: ``ceil(log2(total successor count))`` — the number of
    history bits the block predictor shifts in for this block (paper
    §4.1/§4.3 modification 3).
"""

from __future__ import annotations

from repro.isa.latencies import InstrClass
from repro.isa.opcodes import OPCODE_INFO, Opcode
from repro.isa.registers import reg_name

#: Size of one operation in bytes (used for layout and icache addressing).
OP_BYTES = 4


class MachineOp:
    """One machine operation (mutable: layout fills in addresses)."""

    __slots__ = (
        "opcode",
        "dest",
        "srcs",
        "imm",
        "target",
        "target2",
        "nbits",
        "addr",
        "taddr",
        "taddr2",
    )

    def __init__(
        self,
        opcode: Opcode,
        dest: int | None = None,
        srcs: tuple[int, ...] = (),
        imm: int | float | None = None,
        target: str | None = None,
        target2: str | None = None,
        nbits: int = 0,
    ):
        self.opcode = opcode
        self.dest = dest
        self.srcs = srcs
        self.imm = imm
        self.target = target
        self.target2 = target2
        self.nbits = nbits
        self.addr: int = -1
        self.taddr: int = -1
        self.taddr2: int = -1

    @property
    def info(self):
        return OPCODE_INFO[self.opcode]

    @property
    def klass(self) -> InstrClass:
        return OPCODE_INFO[self.opcode].klass

    @property
    def is_control(self) -> bool:
        return OPCODE_INFO[self.opcode].is_control

    @property
    def is_load(self) -> bool:
        return OPCODE_INFO[self.opcode].is_load

    @property
    def is_store(self) -> bool:
        return OPCODE_INFO[self.opcode].is_store

    def copy(self) -> "MachineOp":
        """A fresh copy with the same fields (addresses reset)."""
        return MachineOp(
            self.opcode,
            dest=self.dest,
            srcs=self.srcs,
            imm=self.imm,
            target=self.target,
            target2=self.target2,
            nbits=self.nbits,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MachineOp {self.asm()}>"

    def asm(self) -> str:
        """Assembly-like rendering, e.g. ``add r3, r4, r5``."""
        parts = []
        if self.dest is not None:
            parts.append(reg_name(self.dest))
        parts.extend(reg_name(s) for s in self.srcs)
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(self.target)
        if self.target2 is not None:
            parts.append(self.target2)
        if self.opcode is Opcode.TRAP:
            parts.append(f"nbits={self.nbits}")
        operands = ", ".join(parts)
        return f"{self.opcode.value} {operands}".rstrip()
