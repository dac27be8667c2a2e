"""Block-structured ISA functional executor and trace generator.

Implements the BS-ISA's architectural semantics (paper §2/§4.1):

* an atomic block's effects (registers, stores, output) are buffered and
  commit only if no fault fires — otherwise *everything* is discarded and
  fetch redirects to the fault's target (a sibling enlarged variant that
  re-executes the shared prefix);
* the trap at the end of a committed block picks the successor *family*;
  the dynamic block predictor picks which enlarged *variant* of that
  family to fetch (paper §4.3) — a wrong family is a trap misprediction
  (redirect at trap resolution), a right family but wrong variant shows
  up later as a firing fault (squash + redirect at fault resolution);
* ``CALL`` writes the continuation block's address to RA at commit;
  call/return/jump successors are modelled as always predicted correctly
  (same idealization as the conventional executor).

With ``predictor=None`` prediction is perfect: the executor silently
resolves the fault chain and fetches the correct variant directly, so no
faults fire and no squashed units are emitted (Figure 4's configuration).
That mode stays the reference, but a traced real-prediction capture
also records what a perfect machine would roll back
(:attr:`BlockExecutor.perfect_rollback`), so
:func:`repro.sim.run.derive_perfect_bp` builds the perfect run from it
without executing the program again. Both machines commit the same
blocks: a perfect machine fetches the successor the committed block
names, and the enlarged variants it rolls back on the way follow from
the block structure alone (:func:`_rollback_uids`).

The trace is recorded straight into a
:class:`~repro.sim.packed.PackedTrace`: each block is decoded once per
program object, for all its captures (:mod:`repro.exec.opsem`), its
static columns are appended whole, and a silently resolved variant's
columns are rolled back while its uids stay consumed, because
``op_uid`` is part of the trace bytes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator
from weakref import WeakKeyDictionary

from repro.errors import ExecutionError
from repro.exec.memory import Memory, STACK_BASE
from repro.exec.opsem import (
    BAD, BIN, BINI, CALL, FAULT, HALT, JMP, LOAD, MOV, MOVI, OUT, RET,
    SELECT, STORE, TRAP, UNARY, decode_run,
)
from repro.exec.trace import F_ATOMIC, F_MISPREDICT, F_SQUASHED, FetchUnit
from repro.isa.opcodes import Opcode
from repro.isa.operation import MachineOp
from repro.isa.program import AtomicBlock, BlockProgram
from repro.isa.registers import RA, SP

if TYPE_CHECKING:
    from repro.sim.packed import PackedTrace

_DEFAULT_OP_LIMIT = 500_000_000

#: program -> its decode table (block address -> :func:`decode_run`
#: result), shared by every capture of that program object. It lives
#: here, not on the program, so it is never pickled into a compile
#: artifact: a program loaded from one decodes afresh.
_DECODED: WeakKeyDictionary = WeakKeyDictionary()

#: program -> {(fetched, committed) block address: the uids a
#: perfect-prediction machine rolls back between them, or None when a
#: step is unproven}, beside :data:`_DECODED` and kept the same way
_WALKS: WeakKeyDictionary = WeakKeyDictionary()


@dataclass
class BlockStats:
    """Architectural counters from one BS-ISA run."""

    fetched_ops: int = 0
    committed_ops: int = 0
    blocks_fetched: int = 0
    blocks_committed: int = 0
    blocks_squashed: int = 0
    trap_predictions: int = 0
    trap_mispredicts: int = 0
    fault_mispredicts: int = 0
    calls: int = 0
    returns: int = 0
    loads: int = 0
    stores: int = 0
    outputs: list = field(default_factory=list)

    @property
    def avg_block_size(self) -> float:
        """Average *retired* block size (Figure 5's metric)."""
        if not self.blocks_committed:
            return 0.0
        return self.committed_ops / self.blocks_committed

    @property
    def total_mispredicts(self) -> int:
        return self.trap_mispredicts + self.fault_mispredicts


def _control(op: MachineOp, index: int) -> tuple:
    """Decoded tuple of a BS-ISA control op (see opsem)."""
    oc = op.opcode
    if oc is Opcode.FAULT:
        return (FAULT, None, op.srcs, bool(op.imm), None, (index, op.taddr))
    if oc is Opcode.TRAP:
        return (TRAP, None, op.srcs, None, None, None)
    if oc is Opcode.CALL:
        return (CALL, RA, op.srcs, op.taddr2, None, op.taddr)
    if oc is Opcode.RET:
        return (RET, None, op.srcs, None, None, None)
    if oc is Opcode.JMP:
        return (JMP, None, op.srcs, None, None, op.taddr)
    if oc is Opcode.HALT:
        return (HALT, None, op.srcs, None, None, None)
    return (BAD, None, op.srcs, None, None, f"illegal control op {op.asm()!r}")


def _mirrored_fault(
    ops: list[MachineOp], committed: list[MachineOp]
) -> int | None:
    """The target of the fault that rolls *ops* back, proven against
    the *committed* block's ops from the same state, or None.

    The proof: both blocks hold equal ops (opcode, dest, srcs, imm) up
    to some index *i*, and at *i* a ``FAULT`` on the same source with
    opposite polarity. The equal prefix computes equal values, so the
    committed block's faults up to *i* did not fire, nor do their
    copies, and the mirrored fault at *i* does.
    """
    for op, ref in zip(ops, committed):
        if (
            op.opcode is ref.opcode and op.dest == ref.dest
            and op.srcs == ref.srcs and op.imm == ref.imm
        ):
            continue
        if (
            op.opcode is Opcode.FAULT and ref.opcode is Opcode.FAULT
            and op.srcs == ref.srcs and bool(op.imm) != bool(ref.imm)
        ):
            return op.taddr
        return None
    return None


def _rollback_uids(
    prog: BlockProgram, addr: int, committed: AtomicBlock
) -> int | None:
    """The uids a perfect-prediction machine consumes on the variants it
    rolls back between fetching *addr* and committing *committed*, or
    None when a step is unproven (:func:`_mirrored_fault`).

    A rolled-back variant runs whole, so its whole length is consumed.
    The walk does not run it: an op past the fault that raises (a
    malformed op) would stop a direct perfect-prediction capture, but
    not this walk. A walk longer than the program's block count
    revisits a block, so it stops there.
    """
    uids = 0
    for _ in range(len(prog.by_addr)):
        if addr == committed.addr:
            return uids
        block = prog.by_addr.get(addr)
        if block is None:
            return None
        addr = _mirrored_fault(block.ops, committed.ops)
        if addr is None:
            return None
        uids += len(block.ops)
    return None


class BlockExecutor:
    """Executes one BS-ISA program; each :meth:`capture` (or
    :meth:`run`) runs it from the start and replaces :attr:`stats`."""

    def __init__(
        self,
        prog: BlockProgram,
        predictor=None,
        trace: bool = True,
        op_limit: int = _DEFAULT_OP_LIMIT,
    ):
        self.prog = prog
        self.predictor = predictor
        self.trace = trace
        self.op_limit = op_limit
        self.stats = BlockStats()
        #: set by a traced real-prediction :meth:`capture`: for each
        #: committed block before which a perfect-prediction machine
        #: rolls back variants, the pair (index among committed blocks,
        #: uids those variants consume), flattened. None when a step is
        #: unproven or the perfect machine would exceed ``op_limit``.
        self.perfect_rollback: array | None = None

    @property
    def outputs(self) -> list:
        return self.stats.outputs

    def run(self) -> BlockStats:
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
        so architectural results do not depend on it. A traced
        real-prediction capture also sets :attr:`perfect_rollback`.
        """
        # repro.sim imports this module, so the trace type comes late.
        from repro.sim.packed import PackedTrace

        out = PackedTrace.empty()
        prog = self.prog
        trace = self.trace
        predictor = self.predictor
        perfect = predictor is None
        op_limit = self.op_limit
        outputs: list = []
        self.perfect_rollback = None
        #: where a perfect-prediction machine fetches next, and what it
        #: rolls back (see perfect_rollback; None once unproven)
        fetch_addr = prog.entry_addr
        rollback = array("q") if trace and not perfect else None
        walks: dict[tuple[int, int], int | None]
        walks = _WALKS.setdefault(prog, {})

        regs: list[int | float] = [0] * 32 + [0.0] * 32
        regs[SP] = STACK_BASE
        words = Memory(prog.data).words
        #: register -> position of its last committed producer
        writer = [-1] * len(regs)
        store_writer: dict[int, int] = {}
        decoded: dict[int, tuple] = _DECODED.setdefault(prog, {})

        op_uid = out.op_uid
        op_lat = out.op_lat
        op_mem = out.op_mem
        op_flags = out.op_flags
        op_dep_start = out.op_dep_start
        deps = out.deps
        deps_append = deps.append
        dep_start_append = op_dep_start.append

        #: next executor uid; it runs ahead of the op position when
        #: perfect prediction rolls a variant back
        uid = executed = 0
        fetched_ops = committed_ops = blocks_fetched = blocks_committed = 0
        blocks_squashed = trap_predictions = trap_mispredicts = 0
        fault_mispredicts = calls = returns = loads = stores = 0
        pending: tuple[AtomicBlock, bool] | None = None
        current = prog.block_at(prog.entry_addr)
        try:
            while True:
                block_decoded = decoded.get(current.addr)
                if block_decoded is None:
                    block_decoded = decoded[current.addr] = decode_run(
                        current.ops, _control
                    )
                ops, lat, flags, mem, n_loads, n_stores = block_decoded
                n = len(ops)
                executed += n
                if executed > op_limit:
                    raise ExecutionError("block executor op limit hit")

                # Speculatively execute the block against buffered state:
                # registers (and their producers) in copies, stores and
                # output in buffers, all dropped unless the block commits.
                bregs = regs.copy()
                sbuf: dict[int, int | float] = {}
                obuf = None
                fault_index = -1
                fault_target = next_addr = trap_outcome = None
                halted = False
                if trace:
                    bwriter = writer.copy()
                    bstore: dict[int, int] = {}
                    start = pos = len(op_uid)
                    dep_mark = len(deps)
                    op_uid.extend(range(uid, uid + n))
                    uid += n
                    op_lat += lat
                    op_flags += flags
                    op_mem += mem
                for kind, dest, srcs, imm, fn, aux in ops:
                    if trace:
                        for r in srcs:
                            w = bwriter[r]
                            if w >= 0:
                                deps_append(w)
                    if kind == BINI:
                        bregs[dest] = fn(aux(bregs[srcs[0]]), imm)
                    elif kind == MOV:
                        bregs[dest] = bregs[srcs[0]]
                    elif kind == STORE:
                        addr = int(bregs[srcs[1]]) + imm
                        if aux is not None:
                            addr += int(bregs[aux]) << 3
                        addr &= ~7
                        sbuf[addr] = bregs[srcs[0]]
                        if trace:
                            op_mem[pos] = addr
                            bstore[addr] = pos
                    elif kind == LOAD:
                        addr = int(bregs[srcs[0]]) + imm
                        if aux is not None:
                            addr += int(bregs[aux]) << 3
                        addr &= ~7
                        if addr in sbuf:
                            value = sbuf[addr]
                        else:
                            value = words.get(addr, 0)
                        bregs[dest] = value if fn is None else fn(value)
                        if trace:
                            op_mem[pos] = addr
                            w = bstore.get(addr)
                            if w is None:
                                w = store_writer.get(addr)
                            if w is not None:
                                deps_append(w)
                    elif kind == BIN:
                        bregs[dest] = fn(
                            aux(bregs[srcs[0]]), aux(bregs[srcs[1]])
                        )
                    elif kind == MOVI:
                        bregs[dest] = imm
                    elif kind == FAULT:
                        if (bregs[srcs[0]] != 0) != imm and fault_index < 0:
                            fault_index, fault_target = aux
                    elif kind == TRAP:
                        trap_outcome = bregs[srcs[0]] != 0
                    elif kind == JMP:
                        next_addr = aux
                    elif kind == CALL:
                        bregs[dest] = imm
                        next_addr = aux
                    elif kind == RET:
                        next_addr = int(bregs[srcs[0]])
                    elif kind == HALT:
                        halted = True
                    elif kind == SELECT:
                        cond, a, b = srcs
                        bregs[dest] = (
                            bregs[a] if bregs[cond] != 0 else bregs[b]
                        )
                    elif kind == UNARY:
                        bregs[dest] = fn(bregs[srcs[0]])
                    elif kind == OUT:
                        if obuf is None:
                            obuf = []
                        obuf.append((imm, fn(bregs[srcs[0]])))
                    else:
                        raise ExecutionError(aux)
                    if trace:
                        if dest is not None:
                            bwriter[dest] = pos
                        dep_start_append(len(deps))
                        pos += 1

                if fault_index >= 0:
                    if perfect:
                        # Perfect prediction never fetches a faulting
                        # variant: drop its columns and silently resolve
                        # the chain to the correct sibling.
                        if trace:
                            del op_uid[start:], op_lat[start:]
                            del op_mem[start:], op_flags[start:]
                            del op_dep_start[start + 1:], deps[dep_mark:]
                        current = prog.block_at(fault_target)
                        continue
                    blocks_fetched += 1
                    blocks_squashed += 1
                    fetched_ops += n
                    fault_mispredicts += 1
                    if trace:
                        out.unit_addr.append(current.addr)
                        out.unit_size.append(current.size_bytes)
                        out.unit_resolve.append(fault_index)
                        out.unit_flags.append(F_SQUASHED | F_ATOMIC)
                        out.unit_op_start.append(pos)
                    current = prog.block_at(fault_target)
                    continue

                # Commit.
                if rollback is not None and fetch_addr != current.addr:
                    walk = (fetch_addr, current.addr)
                    if walk not in walks:
                        walks[walk] = _rollback_uids(prog, fetch_addr, current)
                    uids = walks[walk]
                    if uids is None:
                        rollback = None
                    else:
                        rollback.extend((blocks_committed, uids))
                regs = bregs
                words.update(sbuf)
                if trace:
                    writer = bwriter
                    store_writer.update(bstore)
                if obuf is not None:
                    outputs.extend(obuf)
                committed_ops += n
                blocks_committed += 1
                loads += n_loads
                stores += n_stores
                blocks_fetched += 1
                fetched_ops += n

                if pending is not None and predictor is not None:
                    prev_block, prev_outcome = pending
                    predictor.notify_actual(prev_block, prev_outcome, current)
                    pending = None

                term = current.terminator
                mispredict = False
                next_block: AtomicBlock | None = None

                if halted:
                    pass
                elif term.opcode is Opcode.TRAP or (
                    term.opcode is Opcode.JMP and term.nbits > 0
                ):
                    if term.opcode is Opcode.TRAP:
                        explicit = term.taddr if trap_outcome else term.taddr2
                        outcome = bool(trap_outcome)
                    else:
                        # Jump into a multi-variant family: the predictor
                        # selects the variant (direction is fixed/true).
                        explicit = term.taddr
                        outcome = True
                    fetch_addr = explicit
                    if perfect:
                        next_block = prog.block_at(explicit)
                    else:
                        trap_predictions += 1
                        predicted_addr = predictor.predict(current)
                        actual_root = prog.block_at(explicit).path[0]
                        predicted = (
                            prog.by_addr.get(predicted_addr)
                            if predicted_addr is not None
                            else None
                        )
                        if (
                            predicted is not None
                            and predicted.path[0] == actual_root
                        ):
                            next_block = predicted
                        else:
                            # Redirect: re-access the predictor with the
                            # corrected trap direction to pick the variant.
                            repredicted = predictor.predict_with_outcome(
                                current, outcome
                            )
                            candidate = prog.by_addr.get(repredicted)
                            if (
                                candidate is not None
                                and candidate.path[0] == actual_root
                            ):
                                next_block = candidate
                            else:
                                next_block = prog.block_at(explicit)
                            mispredict = True
                            trap_mispredicts += 1
                        pending = (current, outcome)
                else:
                    if term.opcode is Opcode.CALL:
                        calls += 1
                    elif term.opcode is Opcode.RET:
                        returns += 1
                    if next_addr is None:
                        raise ExecutionError(
                            f"block {current.label} has no successor"
                        )
                    fetch_addr = next_addr
                    next_block = prog.block_at(next_addr)

                if trace:
                    out.unit_addr.append(current.addr)
                    out.unit_size.append(current.size_bytes)
                    if mispredict:
                        out.unit_resolve.append(n - 1)
                        out.unit_flags.append(F_MISPREDICT | F_ATOMIC)
                    else:
                        out.unit_resolve.append(-1)
                        out.unit_flags.append(F_ATOMIC)
                    out.unit_op_start.append(pos)
                if halted:
                    if (
                        rollback is not None
                        and committed_ops + sum(rollback[1::2]) <= op_limit
                    ):
                        self.perfect_rollback = rollback
                    return out
                current = next_block
        finally:
            self.stats = BlockStats(
                fetched_ops=fetched_ops, committed_ops=committed_ops,
                blocks_fetched=blocks_fetched,
                blocks_committed=blocks_committed,
                blocks_squashed=blocks_squashed,
                trap_predictions=trap_predictions,
                trap_mispredicts=trap_mispredicts,
                fault_mispredicts=fault_mispredicts, calls=calls,
                returns=returns, loads=loads, stores=stores, outputs=outputs,
            )


def run_block_structured(
    prog: BlockProgram, predictor=None, op_limit: int = _DEFAULT_OP_LIMIT
) -> BlockStats:
    """Functionally execute *prog* (no trace); returns stats with outputs."""
    executor = BlockExecutor(
        prog, predictor=predictor, trace=False, op_limit=op_limit
    )
    return executor.run()
