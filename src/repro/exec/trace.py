"""Dynamic-trace records produced by the functional executors.

The executors record the dynamic fetch-unit stream straight into the
flat columns of a :class:`~repro.sim.packed.PackedTrace` as they run;
the flag bits of those columns are defined here, next to the object
form of the same stream. That object form — :class:`FetchUnit`\\ s
holding :class:`DynOp`\\ s, rebuilt by
:meth:`~repro.sim.packed.PackedTrace.units` and packed back by
:meth:`~repro.sim.packed.PackedTrace.capture` — is what the trace-cache
fetch model and hand-built test streams use. A ``DynOp``
carries everything timing needs: latency class, dataflow predecessors
(dynamic op ids of the producers of its source registers, plus the
producing store for loads), and the memory address for cache modelling.
Functional values never reach the timing model.
"""

from __future__ import annotations

from repro.isa.latencies import LATENCY
from repro.isa.opcodes import OPCODE_INFO

#: ``unit_flags`` bits
F_MISPREDICT = 1
F_SQUASHED = 2
F_ATOMIC = 4

#: ``op_flags`` bits
OPF_LOAD = 1
OPF_STORE = 2


class DynOp:
    """One dynamic operation instance.

    ``uid`` is the executor-assigned dynamic id; ``deps`` holds the uids
    of the producers of this op's source registers (plus, for loads, the
    producing store).
    """

    __slots__ = ("lat", "deps", "mem_addr", "is_load", "is_store", "uid")

    def __init__(
        self,
        lat: int,
        deps: tuple[int, ...],
        mem_addr: int = -1,
        is_load: bool = False,
        is_store: bool = False,
        uid: int = -1,
    ):
        self.lat = lat
        self.deps = deps
        self.mem_addr = mem_addr
        self.is_load = is_load
        self.is_store = is_store
        self.uid = uid

    def __eq__(self, other) -> bool:
        """Structural equality (packed-trace round-trip tests)."""
        if not isinstance(other, DynOp):
            return NotImplemented
        return (
            self.lat == other.lat
            and self.deps == other.deps
            and self.mem_addr == other.mem_addr
            and self.is_load == other.is_load
            and self.is_store == other.is_store
            and self.uid == other.uid
        )

    __hash__ = None  # mutable record


#: opcode -> execution latency (precomputed from Table 1)
OP_LATENCY = {op: LATENCY[info.klass] for op, info in OPCODE_INFO.items()}


class FetchUnit:
    """One fetch unit: a basic-block run (conventional) or an atomic block.

    ``mispredict``  — the control op at ``resolve_index`` was mispredicted;
                      the next unit's fetch is delayed until it resolves
                      plus the refill penalty.
    ``squashed``    — BS-ISA only: a fault fired at ``resolve_index``; the
                      whole unit's work is discarded at resolve time and
                      fetch redirects (the unit still consumed fetch,
                      window and FU resources — the paper's extra fault
                      penalty).
    ``atomic``      — retires as a unit (BS-ISA atomic blocks).
    """

    __slots__ = ("addr", "size_bytes", "ops", "mispredict", "squashed",
                 "resolve_index", "atomic")

    def __init__(
        self,
        addr: int,
        size_bytes: int,
        ops: list[DynOp],
        mispredict: bool = False,
        squashed: bool = False,
        resolve_index: int = -1,
        atomic: bool = False,
    ):
        self.addr = addr
        self.size_bytes = size_bytes
        self.ops = ops
        self.mispredict = mispredict
        self.squashed = squashed
        self.resolve_index = resolve_index
        self.atomic = atomic

    def __eq__(self, other) -> bool:
        """Structural equality (packed-trace round-trip tests)."""
        if not isinstance(other, FetchUnit):
            return NotImplemented
        return (
            self.addr == other.addr
            and self.size_bytes == other.size_bytes
            and self.mispredict == other.mispredict
            and self.squashed == other.squashed
            and self.resolve_index == other.resolve_index
            and self.atomic == other.atomic
            and self.ops == other.ops
        )

    __hash__ = None  # mutable record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.mispredict:
            flags.append("mispredict")
        if self.squashed:
            flags.append("squashed")
        return (
            f"<FetchUnit @{self.addr:#x} n={len(self.ops)} "
            f"{' '.join(flags)}>"
        )
