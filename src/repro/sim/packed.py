"""Packed fetch-unit traces: capture a dynamic stream once, replay it fast.

The dynamic fetch-unit stream depends only on the program and the
predictor configuration — *not* on icache geometry, latencies, or
window sizes — so it is captured once and replayed under every machine
config of a sweep. :class:`PackedTrace` holds one stream as flat
``array`` columns (structure of arrays):

==================  ====  =====================================================
column              type  meaning
==================  ====  =====================================================
``unit_addr``       q     fetch-unit start address
``unit_size``       q     unit size in bytes
``unit_resolve``    q     resolve op index within the unit (-1: none)
``unit_flags``      B     bit 0 mispredict, bit 1 squashed, bit 2 atomic
``unit_op_start``   q     prefix: ops of unit *u* are ``[s[u], s[u+1])``
``op_uid``          q     executor-assigned dynamic id (lossless round-trip)
``op_lat``          q     execution latency
``op_mem``          q     memory address (-1: not a memory op)
``op_flags``        B     bit 0 load, bit 1 store
``op_dep_start``    q     prefix: deps of op *i* are ``[d[i], d[i+1])``
``deps``            q     producer references as **dense op indices**
==================  ====  =====================================================

Capture writes the columns directly: the functional executors
(:meth:`~repro.exec.conventional.ConventionalExecutor.capture`,
:meth:`~repro.exec.block.BlockExecutor.capture`) start from
:meth:`PackedTrace.empty` and append each op and unit as they execute
it, with no per-op objects in between. Dependences are written as dense
positions in the op column, so the replay loop keeps completion times
in a flat list indexed by position instead of a dict keyed by uid. The
executor uids are kept in ``op_uid``: they equal the positions except
under perfect prediction on the BS-ISA, where a silently resolved
variant's columns are rolled back but its uids stay consumed.

The object form — :class:`~repro.exec.trace.FetchUnit` holding
:class:`~repro.exec.trace.DynOp`\\ s — survives as a view:
:meth:`units` rebuilds it losslessly, and :meth:`capture` packs such a
stream (hand-built or transformed ones, e.g. in tests). Icache line
spans (first/last line per unit) are precomputed per line size and
cached on the trace.

The serialized form (:meth:`to_bytes`/:meth:`from_bytes`) is a small
struct header plus the raw little-endian columns — deterministic for a
given stream, which makes packed traces content-addressable artifacts
(see :func:`repro.engine.spec.trace_key`). Pickling goes through the
same bytes, so a trace costs its serialized size in the artifact
cache.

See docs/performance.md for the capture/replay contract.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Iterable, Iterator

from repro.errors import SimulationError
from repro.exec.trace import (
    F_ATOMIC,
    F_MISPREDICT,
    F_SQUASHED,
    OPF_LOAD,
    OPF_STORE,
    DynOp,
    FetchUnit,
)

MAGIC = b"BPTR"
FORMAT_VERSION = 1

#: (attribute, array typecode) in serialization order.
_COLUMNS = (
    ("unit_addr", "q"),
    ("unit_size", "q"),
    ("unit_resolve", "q"),
    ("unit_flags", "B"),
    ("unit_op_start", "q"),
    ("op_uid", "q"),
    ("op_lat", "q"),
    ("op_mem", "q"),
    ("op_flags", "B"),
    ("op_dep_start", "q"),
    ("deps", "q"),
)

_HEADER = struct.Struct("<4sHHqqq")


def _native(arr: array) -> array:
    """A little-endian copy of *arr* (no-op copy avoidance on LE hosts)."""
    if sys.byteorder == "little":
        return arr
    swapped = array(arr.typecode, arr)
    swapped.byteswap()
    return swapped


class PackedTrace:
    """One captured fetch-unit stream as flat columns."""

    __slots__ = tuple(name for name, _ in _COLUMNS) + (
        "_spans", "_vprep", "_vflags",
    )

    def __init__(
        self,
        unit_addr: array,
        unit_size: array,
        unit_resolve: array,
        unit_flags: array,
        unit_op_start: array,
        op_uid: array,
        op_lat: array,
        op_mem: array,
        op_flags: array,
        op_dep_start: array,
        deps: array,
    ):
        self.unit_addr = unit_addr
        self.unit_size = unit_size
        self.unit_resolve = unit_resolve
        self.unit_flags = unit_flags
        self.unit_op_start = unit_op_start
        self.op_uid = op_uid
        self.op_lat = op_lat
        self.op_mem = op_mem
        self.op_flags = op_flags
        self.op_dep_start = op_dep_start
        self.deps = deps
        #: line_bytes -> (first_line array, last_line array)
        self._spans: dict[int, tuple[array, array]] = {}
        #: repro.sim.vector's prep read only from the op columns and the
        #: unit geometry (op decodings, per-geometry cache outcomes);
        #: same lifecycle as _spans, and shared with them by
        #: :meth:`with_unit_flags`
        self._vprep: dict = {}
        #: repro.sim.vector's prep read from unit_flags/unit_resolve,
        #: and its memos of the spine runs over them; never shared
        self._vflags: dict = {}

    # -- capture -------------------------------------------------------

    @classmethod
    def empty(cls) -> "PackedTrace":
        """A trace of no units, for a capture to append to."""
        return cls(*(
            array(code, [0] if name.endswith("_start") else [])
            for name, code in _COLUMNS
        ))

    @classmethod
    def capture(cls, units: Iterable[FetchUnit]) -> "PackedTrace":
        """Pack a stream of :class:`FetchUnit` objects, consuming it once.

        The executors write their columns directly; this packs object
        streams built or transformed outside them.
        """
        trace = cls.empty()
        op_uid = trace.op_uid
        deps = trace.deps
        #: executor uid -> dense position in the op columns
        dense: dict[int, int] = {}

        for unit in units:
            trace.unit_addr.append(unit.addr)
            trace.unit_size.append(unit.size_bytes)
            trace.unit_resolve.append(unit.resolve_index)
            trace.unit_flags.append(
                (F_MISPREDICT if unit.mispredict else 0)
                | (F_SQUASHED if unit.squashed else 0)
                | (F_ATOMIC if unit.atomic else 0)
            )
            for op in unit.ops:
                dense[op.uid] = len(op_uid)
                op_uid.append(op.uid)
                trace.op_lat.append(op.lat)
                trace.op_mem.append(op.mem_addr)
                trace.op_flags.append(
                    (OPF_LOAD if op.is_load else 0)
                    | (OPF_STORE if op.is_store else 0)
                )
                try:
                    deps.extend(dense[d] for d in op.deps)
                except KeyError as exc:
                    raise SimulationError(
                        f"op {op.uid} depends on {exc.args[0]}, which is "
                        f"not an earlier op of the captured stream"
                    ) from None
                trace.op_dep_start.append(len(deps))
            trace.unit_op_start.append(len(op_uid))
        return trace

    # -- sizes ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.unit_addr)

    @property
    def num_units(self) -> int:
        return len(self.unit_addr)

    @property
    def num_ops(self) -> int:
        return len(self.op_uid)

    @property
    def num_deps(self) -> int:
        return len(self.deps)

    @property
    def nbytes(self) -> int:
        """In-memory column footprint in bytes."""
        return sum(
            len(getattr(self, name)) * getattr(self, name).itemsize
            for name, _ in _COLUMNS
        )

    # -- derived columns -----------------------------------------------

    def line_spans(self, line_bytes: int) -> tuple[array, array]:
        """Per-unit ``(first_line, last_line)`` icache spans for a line
        size, computed once per geometry and cached on the trace."""
        cached = self._spans.get(line_bytes)
        if cached is not None:
            return cached
        addr = self.unit_addr
        first = array("q", [a // line_bytes for a in addr])
        # a zero-size unit still occupies its first line
        last = array("q", [
            (a + (s if s > 1 else 1) - 1) // line_bytes
            for a, s in zip(addr, self.unit_size)
        ])
        self._spans[line_bytes] = (first, last)
        return first, last

    def with_unit_flags(
        self, unit_resolve: array, unit_flags: array
    ) -> "PackedTrace":
        """This stream under new ``unit_resolve``/``unit_flags`` columns.

        Every other column is shared read-only, and so is everything
        cached from those columns alone: the line spans and
        :mod:`repro.sim.vector`'s column prep (``_vprep``). The prep
        read from the flags (``_vflags``) starts empty.
        """
        trace = PackedTrace(
            self.unit_addr, self.unit_size, unit_resolve, unit_flags,
            self.unit_op_start, self.op_uid, self.op_lat, self.op_mem,
            self.op_flags, self.op_dep_start, self.deps,
        )
        trace._spans = self._spans
        trace._vprep = self._vprep
        return trace

    # -- lossless round-trip -------------------------------------------

    def units(self) -> Iterator[FetchUnit]:
        """Reconstruct the original :class:`FetchUnit` stream."""
        unit_op_start = self.unit_op_start
        unit_resolve = self.unit_resolve
        unit_flags = self.unit_flags
        op_uid = self.op_uid
        op_lat = self.op_lat
        op_mem = self.op_mem
        op_flags = self.op_flags
        op_dep_start = self.op_dep_start
        deps = self.deps
        for u in range(len(self.unit_addr)):
            ops = []
            for i in range(unit_op_start[u], unit_op_start[u + 1]):
                flags = op_flags[i]
                ops.append(
                    DynOp(
                        op_lat[i],
                        tuple(
                            op_uid[deps[d]]
                            for d in range(op_dep_start[i], op_dep_start[i + 1])
                        ),
                        mem_addr=op_mem[i],
                        is_load=bool(flags & OPF_LOAD),
                        is_store=bool(flags & OPF_STORE),
                        uid=op_uid[i],
                    )
                )
            uflags = unit_flags[u]
            yield FetchUnit(
                self.unit_addr[u],
                self.unit_size[u],
                ops,
                mispredict=bool(uflags & F_MISPREDICT),
                squashed=bool(uflags & F_SQUASHED),
                resolve_index=unit_resolve[u],
                atomic=bool(uflags & F_ATOMIC),
            )

    # -- serialization -------------------------------------------------

    def to_bytes(self) -> bytes:
        """Deterministic compact form: header + raw LE columns."""
        parts = [
            _HEADER.pack(
                MAGIC, FORMAT_VERSION, 0,
                self.num_units, self.num_ops, self.num_deps,
            )
        ]
        parts.extend(
            _native(getattr(self, name)).tobytes() for name, _ in _COLUMNS
        )
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PackedTrace":
        if len(data) < _HEADER.size:
            raise SimulationError("packed trace: truncated header")
        magic, version, _, n_units, n_ops, n_deps = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise SimulationError(f"packed trace: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise SimulationError(
                f"packed trace: unsupported format version {version}"
            )
        lengths = {
            "unit_addr": n_units,
            "unit_size": n_units,
            "unit_resolve": n_units,
            "unit_flags": n_units,
            "unit_op_start": n_units + 1,
            "op_uid": n_ops,
            "op_lat": n_ops,
            "op_mem": n_ops,
            "op_flags": n_ops,
            "op_dep_start": n_ops + 1,
            "deps": n_deps,
        }
        offset = _HEADER.size
        columns = []
        for name, code in _COLUMNS:
            arr = array(code)
            nbytes = lengths[name] * arr.itemsize
            chunk = data[offset:offset + nbytes]
            if len(chunk) != nbytes:
                raise SimulationError(
                    f"packed trace: column {name} truncated "
                    f"({len(chunk)}/{nbytes} bytes)"
                )
            arr.frombytes(chunk)
            if sys.byteorder == "big":
                arr.byteswap()
            offset += nbytes
            columns.append(arr)
        if offset != len(data):
            raise SimulationError(
                f"packed trace: {len(data) - offset} trailing bytes"
            )
        return cls(*columns)

    # Pickle through the compact form: the artifact cache pays
    # serialized size, not per-element object overhead.

    def __getstate__(self) -> bytes:
        return self.to_bytes()

    def __setstate__(self, state: bytes) -> None:
        other = PackedTrace.from_bytes(state)
        for name, _ in _COLUMNS:
            setattr(self, name, getattr(other, name))
        self._spans = {}
        self._vprep = {}
        self._vflags = {}

    # -- comparison / debugging ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name, _ in _COLUMNS
        )

    __hash__ = None  # mutable columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PackedTrace units={self.num_units} ops={self.num_ops} "
            f"deps={self.num_deps} ({self.nbytes:,d} bytes)>"
        )
