"""Conventional-ISA functional executor and trace generator.

Executes a :class:`~repro.isa.program.ConventionalProgram` architecturally
and (optionally) records the dynamic fetch-unit stream for the timing
model straight into a :class:`~repro.sim.packed.PackedTrace`. A fetch
unit is the run of operations up to and including the first control
operation (the machine makes one branch prediction per cycle — the
paper's single-basic-block fetch limit), or 16 operations, whichever
comes first. A unit's extent therefore depends only on its start
address, so each is decoded once per capture (:mod:`repro.exec.opsem`)
and its static columns are appended whole.

Branch direction prediction comes from the supplied predictor; direct
targets, calls and returns are modelled as always predicted correctly
(BTB/RAS hits — both machines get the same idealization, see DESIGN.md).
With ``predictor=None`` prediction is perfect (Figure 4's configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import ExecutionError
from repro.exec.memory import Memory, STACK_BASE
from repro.exec.opsem import (
    BAD, BIN, BINI, BR, CALL, HALT, JMP, LOAD, MOV, MOVI, OUT, RET,
    SELECT, STORE, UNARY, decode_run,
)
from repro.exec.trace import F_MISPREDICT, FetchUnit
from repro.isa.opcodes import Opcode
from repro.isa.operation import OP_BYTES, MachineOp
from repro.isa.program import ConventionalProgram
from repro.isa.registers import RA, SP

if TYPE_CHECKING:
    from repro.sim.packed import PackedTrace

_FETCH_LIMIT = 16
_DEFAULT_OP_LIMIT = 500_000_000


@dataclass
class ConventionalStats:
    """Architectural counters from one conventional-ISA run."""

    dyn_ops: int = 0
    units: int = 0
    branches: int = 0
    mispredicts: int = 0
    calls: int = 0
    returns: int = 0
    loads: int = 0
    stores: int = 0
    outputs: list = field(default_factory=list)

    @property
    def avg_unit_size(self) -> float:
        return self.dyn_ops / self.units if self.units else 0.0


def _control(op: MachineOp, index: int) -> tuple:
    """Decoded tuple of a conventional-ISA control op (see opsem)."""
    oc = op.opcode
    if oc is Opcode.BR:
        return (BR, None, op.srcs, op.imm == 1, None, (op.addr, op.taddr))
    if oc is Opcode.JMP:
        return (JMP, None, op.srcs, None, None, op.taddr)
    if oc is Opcode.CALL:
        return (CALL, RA, op.srcs, op.addr + OP_BYTES, None, op.taddr)
    if oc is Opcode.RET:
        return (RET, None, op.srcs, None, None, None)
    if oc is Opcode.HALT:
        return (HALT, None, op.srcs, None, None, None)
    return (BAD, None, op.srcs, None, None, f"illegal control op {op.asm()!r}")


def _decode_unit(prog: ConventionalProgram, pc: int) -> tuple:
    ops = []
    while len(ops) < _FETCH_LIMIT:
        op = prog.op_at(pc + len(ops) * OP_BYTES)
        ops.append(op)
        if op.is_control:
            break
    return decode_run(ops, _control)


class ConventionalExecutor:
    """Executes one program; each :meth:`capture` (or :meth:`run`) runs
    it from the start and replaces :attr:`stats`."""

    def __init__(
        self,
        prog: ConventionalProgram,
        predictor=None,
        trace: bool = True,
        op_limit: int = _DEFAULT_OP_LIMIT,
    ):
        self.prog = prog
        self.predictor = predictor
        self.trace = trace
        self.op_limit = op_limit
        self.stats = ConventionalStats()
        #: optional callable(addr, taken) invoked at every executed BR
        #: (used by repro.profile's training runs)
        self.branch_hook = None

    @property
    def outputs(self) -> list:
        return self.stats.outputs

    def run(self) -> ConventionalStats:
        """Run to completion; returns stats."""
        self.capture()
        return self.stats

    def units(self) -> Iterator[FetchUnit]:
        """The captured stream as :class:`FetchUnit` objects."""
        return self.capture().units()

    def capture(self) -> "PackedTrace":
        """Run the program to completion, recording its fetch units.

        The trace is empty when the executor was built with
        ``trace=False``; every recording step sits behind ``if trace``,
        so architectural results do not depend on it.
        """
        # repro.sim imports this module, so the trace type comes late.
        from repro.sim.packed import PackedTrace

        out = PackedTrace.empty()
        prog = self.prog
        trace = self.trace
        predictor = self.predictor
        hook = self.branch_hook
        op_limit = self.op_limit
        outputs: list = []

        regs: list[int | float] = [0] * 32 + [0.0] * 32
        regs[SP] = STACK_BASE
        words = Memory(prog.data).words
        #: register -> position of its last producer in the op columns
        writer = [-1] * len(regs)
        store_writer: dict[int, int] = {}
        decoded: dict[int, tuple] = {}

        unit_op_start = out.unit_op_start
        op_uid = out.op_uid
        op_lat = out.op_lat
        op_mem = out.op_mem
        op_flags = out.op_flags
        deps = out.deps
        deps_append = deps.append
        dep_start_append = out.op_dep_start.append

        #: ops executed so far, which is also the position (and uid) of
        #: the next one: every executed op is recorded
        dyn = units = branches = mispredicts = calls = returns = 0
        loads = stores = 0
        pc = prog.entry_addr
        try:
            while pc is not None:
                unit = decoded.get(pc)
                if unit is None:
                    unit = decoded[pc] = _decode_unit(prog, pc)
                ops, lat, flags, mem, n_loads, n_stores = unit
                n = len(ops)
                if dyn + n > op_limit:
                    raise ExecutionError("conventional executor op limit hit")
                nxt = pc + n * OP_BYTES
                mispredict = False
                if trace:
                    op_uid.extend(range(dyn, dyn + n))
                    op_lat += lat
                    op_flags += flags
                    op_mem += mem
                pos = dyn
                for kind, dest, srcs, imm, fn, aux in ops:
                    if trace:
                        for r in srcs:
                            w = writer[r]
                            if w >= 0:
                                deps_append(w)
                    if kind == BINI:
                        regs[dest] = fn(aux(regs[srcs[0]]), imm)
                    elif kind == MOV:
                        regs[dest] = regs[srcs[0]]
                    elif kind == STORE:
                        addr = int(regs[srcs[1]]) + imm
                        if aux is not None:
                            addr += int(regs[aux]) << 3
                        addr &= ~7
                        words[addr] = regs[srcs[0]]
                        if trace:
                            op_mem[pos] = addr
                            store_writer[addr] = pos
                    elif kind == LOAD:
                        addr = int(regs[srcs[0]]) + imm
                        if aux is not None:
                            addr += int(regs[aux]) << 3
                        addr &= ~7
                        value = words.get(addr, 0)
                        regs[dest] = value if fn is None else fn(value)
                        if trace:
                            op_mem[pos] = addr
                            w = store_writer.get(addr)
                            if w is not None:
                                deps_append(w)
                    elif kind == BIN:
                        regs[dest] = fn(
                            aux(regs[srcs[0]]), aux(regs[srcs[1]])
                        )
                    elif kind == MOVI:
                        regs[dest] = imm
                    elif kind == BR:
                        taken = (regs[srcs[0]] != 0) == imm
                        branches += 1
                        addr, target = aux
                        if hook is not None:
                            hook(addr, taken)
                        if predictor is not None:
                            predicted = predictor.predict_branch(addr)
                            predictor.update_branch(addr, taken)
                            if predicted != taken:
                                mispredicts += 1
                                mispredict = True
                        if taken:
                            nxt = target
                    elif kind == JMP:
                        nxt = aux
                    elif kind == CALL:
                        calls += 1
                        regs[dest] = imm
                        nxt = aux
                    elif kind == RET:
                        returns += 1
                        nxt = int(regs[srcs[0]])
                    elif kind == HALT:
                        nxt = None
                    elif kind == SELECT:
                        cond, a, b = srcs
                        regs[dest] = regs[a] if regs[cond] != 0 else regs[b]
                    elif kind == UNARY:
                        regs[dest] = fn(regs[srcs[0]])
                    elif kind == OUT:
                        outputs.append((imm, fn(regs[srcs[0]])))
                    else:
                        raise ExecutionError(aux)
                    if trace:
                        if dest is not None:
                            writer[dest] = pos
                        dep_start_append(len(deps))
                        pos += 1
                dyn += n
                units += 1
                loads += n_loads
                stores += n_stores
                if trace:
                    out.unit_addr.append(pc)
                    out.unit_size.append(n * OP_BYTES)
                    out.unit_resolve.append(n - 1 if mispredict else -1)
                    out.unit_flags.append(F_MISPREDICT if mispredict else 0)
                    unit_op_start.append(dyn)
                pc = nxt
        finally:
            self.stats = ConventionalStats(
                dyn_ops=dyn, units=units, branches=branches,
                mispredicts=mispredicts, calls=calls, returns=returns,
                loads=loads, stores=stores, outputs=outputs,
            )
        return out


def run_conventional(
    prog: ConventionalProgram, predictor=None, op_limit: int = _DEFAULT_OP_LIMIT
) -> ConventionalStats:
    """Functionally execute *prog* (no trace); returns stats with outputs."""
    executor = ConventionalExecutor(
        prog, predictor=predictor, trace=False, op_limit=op_limit
    )
    return executor.run()
