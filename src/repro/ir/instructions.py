"""IR instruction set.

Every instruction can report the virtual registers it ``uses()`` and the
one it ``defines()`` (or ``None``); the optimizer and register allocator
are written entirely against that interface plus ``isinstance`` checks.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class VReg(NamedTuple):
    """A typed virtual register. ``ty`` is ``"i"`` (int) or ``"f"`` (float).

    A named tuple, so hashing and equality run in C: the optimizer, the
    verifier and machine lowering key sets and dicts by registers.
    """

    id: int
    ty: str = "i"

    def __repr__(self) -> str:
        return f"%{self.id}{'f' if self.ty == 'f' else ''}"

    @property
    def is_float(self) -> bool:
        return self.ty == "f"


class IrOp(enum.Enum):
    # integer
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SRA = "sra"
    SLT = "slt"
    SLE = "sle"
    SEQ = "seq"
    SNE = "sne"
    # float
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FSLT = "fslt"
    FSLE = "fsle"
    FSEQ = "fseq"
    FSNE = "fsne"
    # unary
    NEG = "neg"
    FNEG = "fneg"
    NOT = "not"  # logical not: dest = (src == 0)
    ITOF = "itof"
    FTOI = "ftoi"


#: Binary ops whose operands commute (used by local CSE).
COMMUTATIVE = frozenset(
    {IrOp.ADD, IrOp.MUL, IrOp.AND, IrOp.OR, IrOp.XOR, IrOp.SEQ, IrOp.SNE,
     IrOp.FADD, IrOp.FMUL, IrOp.FSEQ, IrOp.FSNE}
)

#: Compare ops (produce 0/1 ints).
COMPARES = frozenset(
    {IrOp.SLT, IrOp.SLE, IrOp.SEQ, IrOp.SNE,
     IrOp.FSLT, IrOp.FSLE, IrOp.FSEQ, IrOp.FSNE}
)


class Instr:
    """Base class for non-terminator IR instructions."""

    __slots__ = ()

    def uses(self) -> tuple[VReg, ...]:
        return ()

    def defines(self) -> VReg | None:
        return None

    @property
    def has_side_effects(self) -> bool:
        return False

    def replace_uses(self, mapping: dict[VReg, VReg]) -> None:
        """Rewrite used registers through *mapping* (in place)."""


class Bin(Instr):
    __slots__ = ("op", "dest", "a", "b")

    def __init__(self, op: IrOp, dest: VReg, a: VReg, b: VReg):
        self.op = op
        self.dest = dest
        self.a = a
        self.b = b

    def uses(self):
        return (self.a, self.b)

    def defines(self):
        return self.dest

    def replace_uses(self, mapping):
        self.a = mapping.get(self.a, self.a)
        self.b = mapping.get(self.b, self.b)

    def __repr__(self):
        return f"{self.dest} = {self.op.value} {self.a}, {self.b}"


class Un(Instr):
    __slots__ = ("op", "dest", "a")

    def __init__(self, op: IrOp, dest: VReg, a: VReg):
        self.op = op
        self.dest = dest
        self.a = a

    def uses(self):
        return (self.a,)

    def defines(self):
        return self.dest

    def replace_uses(self, mapping):
        self.a = mapping.get(self.a, self.a)

    def __repr__(self):
        return f"{self.dest} = {self.op.value} {self.a}"


class Const(Instr):
    __slots__ = ("dest", "value")

    def __init__(self, dest: VReg, value: int | float):
        self.dest = dest
        self.value = value

    def defines(self):
        return self.dest

    def __repr__(self):
        return f"{self.dest} = const {self.value!r}"


class Copy(Instr):
    __slots__ = ("dest", "src")

    def __init__(self, dest: VReg, src: VReg):
        self.dest = dest
        self.src = src

    def uses(self):
        return (self.src,)

    def defines(self):
        return self.dest

    def replace_uses(self, mapping):
        self.src = mapping.get(self.src, self.src)

    def __repr__(self):
        return f"{self.dest} = copy {self.src}"


class Load(Instr):
    __slots__ = ("dest", "base", "offset")

    def __init__(self, dest: VReg, base: VReg, offset: int = 0):
        self.dest = dest
        self.base = base
        self.offset = offset

    def uses(self):
        return (self.base,)

    def defines(self):
        return self.dest

    def replace_uses(self, mapping):
        self.base = mapping.get(self.base, self.base)

    def __repr__(self):
        return f"{self.dest} = load [{self.base}+{self.offset}]"


class Store(Instr):
    __slots__ = ("value", "base", "offset")

    def __init__(self, value: VReg, base: VReg, offset: int = 0):
        self.value = value
        self.base = base
        self.offset = offset

    def uses(self):
        return (self.value, self.base)

    @property
    def has_side_effects(self):
        return True

    def replace_uses(self, mapping):
        self.value = mapping.get(self.value, self.value)
        self.base = mapping.get(self.base, self.base)

    def __repr__(self):
        return f"store {self.value} -> [{self.base}+{self.offset}]"


class Select(Instr):
    """Predicated move: ``dest = a if cond != 0 else b``.

    Produced by the if-conversion pass (paper §3/§6 predicated
    execution); turns a control dependence into a data dependence.
    """

    __slots__ = ("dest", "cond", "a", "b")

    def __init__(self, dest: VReg, cond: VReg, a: VReg, b: VReg):
        self.dest = dest
        self.cond = cond
        self.a = a
        self.b = b

    def uses(self):
        return (self.cond, self.a, self.b)

    def defines(self):
        return self.dest

    def replace_uses(self, mapping):
        self.cond = mapping.get(self.cond, self.cond)
        self.a = mapping.get(self.a, self.a)
        self.b = mapping.get(self.b, self.b)

    def __repr__(self):
        return f"{self.dest} = select {self.cond} ? {self.a} : {self.b}"


class GlobalAddr(Instr):
    __slots__ = ("dest", "symbol")

    def __init__(self, dest: VReg, symbol: str):
        self.dest = dest
        self.symbol = symbol

    def defines(self):
        return self.dest

    def __repr__(self):
        return f"{self.dest} = &{self.symbol}"


class FrameAddr(Instr):
    __slots__ = ("dest", "slot")

    def __init__(self, dest: VReg, slot: str):
        self.dest = dest
        self.slot = slot

    def defines(self):
        return self.dest

    def __repr__(self):
        return f"{self.dest} = frame &{self.slot}"


class CallInstr(Instr):
    __slots__ = ("dest", "func", "args")

    def __init__(self, dest: VReg | None, func: str, args: list[VReg]):
        self.dest = dest
        self.func = func
        self.args = args

    def uses(self):
        return tuple(self.args)

    def defines(self):
        return self.dest

    @property
    def has_side_effects(self):
        return True

    def replace_uses(self, mapping):
        self.args = [mapping.get(a, a) for a in self.args]

    def __repr__(self):
        args = ", ".join(map(repr, self.args))
        if self.dest is None:
            return f"call {self.func}({args})"
        return f"{self.dest} = call {self.func}({args})"


class Print(Instr):
    __slots__ = ("kind", "src")

    def __init__(self, kind: str, src: VReg):
        if kind not in ("int", "float", "char"):
            raise ValueError(f"bad print kind {kind!r}")
        self.kind = kind
        self.src = src

    def uses(self):
        return (self.src,)

    @property
    def has_side_effects(self):
        return True

    def replace_uses(self, mapping):
        self.src = mapping.get(self.src, self.src)

    def __repr__(self):
        return f"print_{self.kind} {self.src}"


# --------------------------------------------------------------------------
# Terminators
# --------------------------------------------------------------------------


class Terminator:
    """Base class for block terminators."""

    __slots__ = ()

    def uses(self) -> tuple[VReg, ...]:
        return ()

    def targets(self) -> tuple[str, ...]:
        return ()

    def replace_uses(self, mapping: dict[VReg, VReg]) -> None:
        pass

    def retarget(self, old: str, new: str) -> None:
        pass


class CondBr(Terminator):
    __slots__ = ("cond", "if_true", "if_false")

    def __init__(self, cond: VReg, if_true: str, if_false: str):
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    def uses(self):
        return (self.cond,)

    def targets(self):
        return (self.if_true, self.if_false)

    def replace_uses(self, mapping):
        self.cond = mapping.get(self.cond, self.cond)

    def retarget(self, old, new):
        if self.if_true == old:
            self.if_true = new
        if self.if_false == old:
            self.if_false = new

    def __repr__(self):
        return f"br {self.cond} ? {self.if_true} : {self.if_false}"


class Jump(Terminator):
    __slots__ = ("target",)

    def __init__(self, target: str):
        self.target = target

    def targets(self):
        return (self.target,)

    def retarget(self, old, new):
        if self.target == old:
            self.target = new

    def __repr__(self):
        return f"jmp {self.target}"


class Ret(Terminator):
    __slots__ = ("value",)

    def __init__(self, value: VReg | None = None):
        self.value = value

    def uses(self):
        return (self.value,) if self.value is not None else ()

    def replace_uses(self, mapping):
        if self.value is not None:
            self.value = mapping.get(self.value, self.value)

    def __repr__(self):
        return f"ret {self.value}" if self.value is not None else "ret"
