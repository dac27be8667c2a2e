"""Executable program images for both ISAs.

Memory map (shared by both ISAs)::

    0x0000_1000   code segment (operations, 4 bytes each)
    0x0100_0000   data segment (globals, 8-byte words)
    0x0400_0000   initial stack pointer (stack grows down)

A :class:`ConventionalProgram` is a flat list of operations; a
:class:`BlockProgram` is a list of :class:`AtomicBlock`\\ s laid out
contiguously. Atomic blocks are the BS-ISA's architectural unit: all of a
block's operations commit together or not at all (paper §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CompileError
from repro.isa.opcodes import Opcode
from repro.isa.operation import OP_BYTES, MachineOp

#: icache line size in bytes (64 B = 16 operations; the paper's 16-wide
#: issue means one maximal atomic block spans at most two lines).
LINE_BYTES = 64

CODE_BASE = 0x1000
DATA_BASE = 0x0100_0000
STACK_BASE = 0x0400_0000


@dataclass
class DataSegment:
    """Static global-variable layout.

    ``symbols`` maps a global's name to ``(byte address, size in bytes)``;
    ``init`` maps byte addresses to initial word values (everything else
    starts as zero).
    """

    symbols: dict[str, tuple[int, int]] = field(default_factory=dict)
    init: dict[int, int | float] = field(default_factory=dict)
    next_addr: int = DATA_BASE

    def allocate(self, name: str, size_bytes: int) -> int:
        """Allocate *size_bytes* (8-byte aligned) for *name*; return addr."""
        if name in self.symbols:
            raise CompileError(f"duplicate global {name!r}")
        size = (size_bytes + 7) & ~7
        addr = self.next_addr
        self.symbols[name] = (addr, size)
        self.next_addr += size
        return addr

    def address_of(self, name: str) -> int:
        return self.symbols[name][0]

    def copy(self) -> "DataSegment":
        return DataSegment(dict(self.symbols), dict(self.init), self.next_addr)


class ProgramBase:
    """Fields shared by both program images."""

    def __init__(self, data: DataSegment, entry_label: str, name: str = ""):
        self.data = data
        self.entry_label = entry_label
        self.name = name
        self.label_addrs: dict[str, int] = {}
        #: function name -> True if it was compiled as a library function.
        self.library_functions: set[str] = set()

    @property
    def entry_addr(self) -> int:
        return self.label_addrs[self.entry_label]


class ConventionalProgram(ProgramBase):
    """A conventional-ISA executable: a flat, contiguous list of ops."""

    def __init__(self, data: DataSegment, entry_label: str, name: str = ""):
        super().__init__(data, entry_label, name)
        self.ops: list[MachineOp] = []

    def finalize(self) -> None:
        """Assign addresses and resolve branch targets."""
        for i, op in enumerate(self.ops):
            op.addr = CODE_BASE + i * OP_BYTES
        for op in self.ops:
            if op.target is not None:
                op.taddr = self.label_addrs[op.target]
            if op.target2 is not None:
                op.taddr2 = self.label_addrs[op.target2]

    def op_at(self, addr: int) -> MachineOp:
        index = (addr - CODE_BASE) // OP_BYTES
        if not 0 <= index < len(self.ops):
            raise CompileError(f"code address {addr:#x} out of range")
        return self.ops[index]

    def index_of(self, addr: int) -> int:
        return (addr - CODE_BASE) // OP_BYTES

    @property
    def code_bytes(self) -> int:
        return len(self.ops) * OP_BYTES

    def disassemble(self) -> str:
        addr_labels: dict[int, list[str]] = {}
        for label, addr in self.label_addrs.items():
            addr_labels.setdefault(addr, []).append(label)
        lines = []
        for op in self.ops:
            for label in sorted(addr_labels.get(op.addr, ())):
                lines.append(f"{label}:")
            lines.append(f"  {op.addr:#08x}  {op.asm()}")
        return "\n".join(lines)


class AtomicBlock:
    """One BS-ISA atomic block.

    ``path`` records which original machine basic blocks were merged into
    this enlarged block (a single-element path means no enlargement);
    ``path_dirs`` records, for each interior (faulted) control transfer,
    the branch direction this variant encodes — these are the bits a
    correct prediction of this variant implies, and together with the
    predecessor's trap direction they form the successor signature used
    by the block predictor's BTB (paper §4.3 modification 1).
    """

    __slots__ = ("label", "ops", "path", "path_dirs", "addr", "fault_indices")

    def __init__(
        self,
        label: str,
        ops: list[MachineOp],
        path: tuple[str, ...],
        path_dirs: tuple[int, ...],
    ):
        self.label = label
        self.ops = ops
        self.path = path
        self.path_dirs = path_dirs
        self.addr: int = -1
        self.fault_indices: tuple[int, ...] = tuple(
            i for i, op in enumerate(ops) if op.opcode is Opcode.FAULT
        )

    @property
    def terminator(self) -> MachineOp:
        return self.ops[-1]

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def size_bytes(self) -> int:
        return len(self.ops) * OP_BYTES

    @property
    def num_faults(self) -> int:
        return len(self.fault_indices)

    def lines_touched(self, line_bytes: int = LINE_BYTES) -> range:
        """Icache line numbers this block occupies."""
        first = self.addr // line_bytes
        last = (self.addr + self.size_bytes - 1) // line_bytes
        return range(first, last + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AtomicBlock {self.label} ops={len(self.ops)}>"


class BlockProgram(ProgramBase):
    """A BS-ISA executable: contiguous atomic blocks."""

    def __init__(self, data: DataSegment, entry_label: str, name: str = ""):
        super().__init__(data, entry_label, name)
        self.blocks: list[AtomicBlock] = []
        self.by_label: dict[str, AtomicBlock] = {}
        self.by_addr: dict[int, AtomicBlock] = {}

    def add_block(self, block: AtomicBlock) -> None:
        if block.label in self.by_label:
            raise CompileError(f"duplicate atomic block label {block.label!r}")
        self.blocks.append(block)
        self.by_label[block.label] = block

    def finalize(self) -> None:
        """Assign addresses to blocks and ops, resolve targets."""
        addr = CODE_BASE
        for block in self.blocks:
            block.addr = addr
            self.label_addrs[block.label] = addr
            for op in block.ops:
                op.addr = addr
                addr += OP_BYTES
            self.by_addr[block.addr] = block
        for block in self.blocks:
            for op in block.ops:
                if op.target is not None:
                    op.taddr = self.label_addrs[op.target]
                if op.target2 is not None:
                    op.taddr2 = self.label_addrs[op.target2]

    def block_at(self, addr: int) -> AtomicBlock:
        try:
            return self.by_addr[addr]
        except KeyError:
            raise CompileError(f"{addr:#x} is not an atomic block address")

    @property
    def code_bytes(self) -> int:
        return sum(b.size_bytes for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def static_block_size_avg(self) -> float:
        if not self.blocks:
            return 0.0
        return sum(b.num_ops for b in self.blocks) / len(self.blocks)

    def disassemble(self) -> str:
        lines = []
        for block in self.blocks:
            path = "+".join(block.path)
            lines.append(f"{block.label}:  ; path={path} dirs={block.path_dirs}")
            for op in block.ops:
                lines.append(f"  {op.addr:#08x}  {op.asm()}")
        return "\n".join(lines)
