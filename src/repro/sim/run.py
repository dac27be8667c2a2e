"""Glue: compile-level program → executor → timing engine → SimResult.

One simulation is two phases (docs/performance.md):

* **capture** — run the functional executor (with its predictor) once;
  it writes the dynamic fetch-unit stream straight into a
  :class:`~repro.sim.packed.PackedTrace`, bundled with the architectural
  counters as a :class:`CapturedRun`. The stream depends only on the
  program and the predictor configuration
  (:func:`predictor_key`) — never on icache geometry, latencies, or
  window sizes. A perfect-prediction stream is derived from a real one
  without executing again (:func:`derive_perfect_bp`);
* **replay** — push the packed trace through the vector kernel
  (:mod:`repro.sim.vector`) or the scalar reference
  :meth:`~repro.sim.engine.TimingEngine.run_packed` under any machine
  config and assemble the :class:`SimResult`.

The experiment engine (:mod:`repro.engine`) does both: it captures
once per program, ISA and predictor configuration and replays the whole
group of machine configs through
:func:`repro.engine.executor.replay_group`, which runs
:func:`prepare_sweep` once for it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.errors import SimulationError
from repro.exec.block import BlockExecutor, BlockStats
from repro.exec.conventional import ConventionalExecutor, ConventionalStats
from repro.exec.trace import F_ATOMIC, F_SQUASHED
from repro.isa.program import BlockProgram, ConventionalProgram
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.sim import vector
from repro.sim.config import MachineConfig
from repro.sim.engine import TimingEngine, TimingStats
from repro.sim.packed import PackedTrace
from repro.sim.predictors import BlockPredictor, GsharePredictor

#: Replay kernel names accepted by :func:`replay_captured` (and the
#: CLI's ``--kernel``). ``auto`` uses the vectorized kernel when numpy
#: is importable and the trace/config shape is covered, silently
#: falling back to the Python replayer otherwise; ``numpy`` insists on
#: numpy being present (unsupported shapes still fall back — the two
#: paths are bit-identical, so the fallback is a speed matter only);
#: ``python`` never touches numpy.
VALID_KERNELS = ("auto", "python", "numpy")


@dataclass
class SimResult:
    """Uniform result record for one timed simulation."""

    name: str
    isa: str  # "conventional" | "block"
    cycles: int
    #: committed architectural op count (Table 2's metric for conventional)
    committed_ops: int
    #: committed fetch units / atomic blocks
    committed_units: int
    #: average retired unit/block size (Figure 5's metric)
    avg_block_size: float
    mispredicts: int
    branch_events: int
    bp_accuracy: float
    timing: TimingStats = field(repr=False)
    outputs: list = field(repr=False, default_factory=list)
    squashed_blocks: int = 0
    fault_mispredicts: int = 0
    trap_mispredicts: int = 0
    static_code_bytes: int = 0

    @property
    def ipc(self) -> float:
        return self.committed_ops / self.cycles if self.cycles else 0.0

    @property
    def icache_miss_rate(self) -> float:
        # TimingStats guards the zero-access case (returns 0.0).
        return self.timing.icache_miss_rate

    @property
    def dcache_miss_rate(self) -> float:
        return self.timing.dcache_miss_rate

    @property
    def mispredict_rate(self) -> float:
        if not self.branch_events:
            return 0.0
        return self.mispredicts / self.branch_events


def predictor_key(config: MachineConfig) -> tuple:
    """The part of a machine config the dynamic stream depends on.

    Two configs with equal keys produce bit-identical fetch-unit
    streams, so one captured trace serves both. Perfect prediction
    ignores the table geometry entirely. The perfect stream of either
    ISA is also a function of a real one (:func:`derive_perfect_bp`),
    so the engine captures it under the real key of the same geometry.
    The two keys still name different streams: on the BS-ISA the
    predictor picks the fetched variants, so the real stream holds
    squashed units the perfect one never fetches.
    """
    if config.perfect_bp:
        return ("perfect",)
    return ("real", config.bp_history_bits, config.bp_table_bits)


@dataclass(frozen=True)
class PredictorSnapshot:
    """Predictor counters frozen at capture time.

    Replays publish these instead of re-running the predictor: its
    state depends only on the captured stream.
    """

    predictions: int
    hits: int
    accuracy: float
    btb_entries: int | None = None

    @classmethod
    def of(cls, predictor) -> "PredictorSnapshot | None":
        if predictor is None:
            return None
        return cls(
            predictions=predictor.predictions,
            hits=predictor.hits,
            accuracy=predictor.accuracy,
            btb_entries=(
                len(predictor.btb) if hasattr(predictor, "btb") else None
            ),
        )

    def publish(self, metrics, **labels) -> None:
        """Publish the ``bp.*`` series under *labels*."""
        metrics.inc("bp.predictions", self.predictions, **labels)
        metrics.inc("bp.hits", self.hits, **labels)
        metrics.gauge("bp.accuracy", self.accuracy, **labels)
        if self.btb_entries is not None:
            metrics.gauge("bp.btb_entries", self.btb_entries, **labels)


@dataclass
class CapturedRun:
    """One functional execution, packed for repeated timing replays.

    Self-contained: replaying needs no program object, so a captured
    run persists whole in the artifact cache
    (:func:`repro.engine.spec.trace_key`).
    """

    name: str
    isa: str  # "conventional" | "block"
    trace: PackedTrace
    stats: ConventionalStats | BlockStats
    predictor: PredictorSnapshot | None
    bp_accuracy: float
    static_code_bytes: int
    #: a real-prediction block capture's
    #: :attr:`~repro.exec.block.BlockExecutor.perfect_rollback`, from
    #: which :func:`derive_perfect_bp` builds the perfect run. None
    #: elsewhere.
    perfect_rollback: array | None = None

    @property
    def derives_perfect_bp(self) -> bool:
        """Whether :func:`derive_perfect_bp` accepts this run."""
        return self.isa == "conventional" or self.perfect_rollback is not None


def _publish(
    tel: Telemetry,
    result: SimResult,
    engine: TimingEngine,
    predictor: PredictorSnapshot | None,
) -> None:
    """Publish one simulation's counters into the session registry."""
    labels = {"benchmark": result.name, "isa": result.isa}
    result.timing.publish(tel.metrics, **labels)
    engine.icache.publish(tel.metrics, cache="icache", **labels)
    engine.dcache.publish(tel.metrics, cache="dcache", **labels)
    if predictor is not None:
        predictor.publish(tel.metrics, **labels)
    tel.metrics.inc("sim.committed_ops", result.committed_ops, **labels)
    tel.metrics.inc("sim.committed_units", result.committed_units, **labels)
    tel.metrics.inc("sim.mispredicts", result.mispredicts, **labels)
    tel.metrics.inc("sim.branch_events", result.branch_events, **labels)
    tel.metrics.gauge("sim.avg_block_size", result.avg_block_size, **labels)
    tel.metrics.gauge(
        "sim.static_code_bytes", result.static_code_bytes, **labels
    )
    if result.isa == "block":
        tel.metrics.inc("sim.squashed_blocks", result.squashed_blocks, **labels)
        tel.metrics.inc(
            "sim.fault_mispredicts", result.fault_mispredicts, **labels
        )
        tel.metrics.inc(
            "sim.trap_mispredicts", result.trap_mispredicts, **labels
        )
    tel.metrics.observe(
        "sim.unit_size", result.avg_block_size, isa=result.isa
    )
    path, reason = engine.kernel_path
    reason_label = {"reason": reason} if reason is not None else {}
    tel.metrics.inc(
        "sim.kernel_path", isa=result.isa, path=path, **reason_label
    )


def _conventional_result(
    name: str,
    timing: TimingStats,
    stats: ConventionalStats,
    bp_accuracy: float,
    code_bytes: int,
) -> SimResult:
    return SimResult(
        name=name,
        isa="conventional",
        cycles=timing.cycles,
        committed_ops=stats.dyn_ops,
        committed_units=stats.units,
        avg_block_size=stats.avg_unit_size,
        mispredicts=stats.mispredicts,
        branch_events=stats.branches,
        bp_accuracy=bp_accuracy,
        timing=timing,
        outputs=stats.outputs,
        static_code_bytes=code_bytes,
    )


def _block_result(
    name: str,
    timing: TimingStats,
    stats: BlockStats,
    bp_accuracy: float,
    code_bytes: int,
) -> SimResult:
    return SimResult(
        name=name,
        isa="block",
        cycles=timing.cycles,
        committed_ops=stats.committed_ops,
        committed_units=stats.blocks_committed,
        avg_block_size=stats.avg_block_size,
        mispredicts=stats.total_mispredicts,
        branch_events=stats.trap_predictions,
        bp_accuracy=bp_accuracy,
        timing=timing,
        outputs=stats.outputs,
        squashed_blocks=stats.blocks_squashed,
        fault_mispredicts=stats.fault_mispredicts,
        trap_mispredicts=stats.trap_mispredicts,
        static_code_bytes=code_bytes,
    )


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------


def _conventional_executor(prog: ConventionalProgram, config: MachineConfig):
    predictor = None
    if not config.perfect_bp:
        predictor = GsharePredictor(config.bp_history_bits, config.bp_table_bits)
    return ConventionalExecutor(prog, predictor=predictor, trace=True), predictor


def _block_executor(prog: BlockProgram, config: MachineConfig):
    predictor = None
    if not config.perfect_bp:
        predictor = BlockPredictor(
            prog, config.bp_history_bits, config.bp_table_bits
        )
    return BlockExecutor(prog, predictor=predictor, trace=True), predictor


def capture_conventional(
    prog: ConventionalProgram,
    config: MachineConfig | None = None,
    telemetry: Telemetry | None = None,
) -> CapturedRun:
    """One functional execution of *prog*, packed for replay."""
    config = config or MachineConfig()
    tel = telemetry if telemetry is not None else get_telemetry()
    executor, predictor = _conventional_executor(prog, config)
    with tel.span("sim.capture", benchmark=prog.name, isa="conventional"):
        trace = executor.capture()
    return CapturedRun(
        name=prog.name,
        isa="conventional",
        trace=trace,
        stats=executor.stats,
        predictor=PredictorSnapshot.of(predictor),
        bp_accuracy=predictor.accuracy if predictor is not None else 1.0,
        static_code_bytes=prog.code_bytes,
    )


def capture_block_structured(
    prog: BlockProgram,
    config: MachineConfig | None = None,
    telemetry: Telemetry | None = None,
) -> CapturedRun:
    """One functional execution of the BS-ISA *prog*, packed for replay."""
    config = config or MachineConfig()
    tel = telemetry if telemetry is not None else get_telemetry()
    executor, predictor = _block_executor(prog, config)
    with tel.span("sim.capture", benchmark=prog.name, isa="block"):
        trace = executor.capture()
    return CapturedRun(
        name=prog.name,
        isa="block",
        trace=trace,
        stats=executor.stats,
        predictor=PredictorSnapshot.of(predictor),
        bp_accuracy=predictor.accuracy if predictor is not None else 1.0,
        static_code_bytes=prog.code_bytes,
        perfect_rollback=executor.perfect_rollback,
    )


def derive_perfect_bp(
    captured: CapturedRun, telemetry: Telemetry | None = None
) -> CapturedRun:
    """The perfect-prediction run of a program, derived from a
    real-prediction capture of it without executing again; equal field
    for field to a ``predictor=None`` capture. Runs in a
    ``sim.derive{benchmark,isa}`` span.

    * **Conventional.** The predictor only decides *when* fetch
      redirects, never *what* is fetched: control follows the actual
      branch outcomes, and a fetch unit's extent depends only on its
      start address. The perfect stream is the real one with its
      mispredict marks cleared. The new trace gets its own
      ``unit_flags`` and ``unit_resolve`` columns and shares every
      other column with *captured* read-only, together with the replay
      prep computed from those columns
      (:meth:`~repro.sim.packed.PackedTrace.with_unit_flags`).
    * **BS-ISA.** Both machines commit the same blocks; the perfect one
      never fetches a squashed unit, but the variants it rolls back
      still consume uids. The real capture records those uids
      (:attr:`CapturedRun.perfect_rollback`), so the perfect stream is
      the real one's committed units, renumbered
      (:func:`_perfect_block_trace`). A block capture that carries no
      rollback record raises :class:`SimulationError`
      (:attr:`CapturedRun.derives_perfect_bp`).
    """
    if not captured.derives_perfect_bp:
        raise SimulationError(
            f"the {captured.isa!r} capture of {captured.name!r} carries no "
            "perfect-prediction rollback record to derive from"
        )
    tel = telemetry if telemetry is not None else get_telemetry()
    with tel.span("sim.derive", benchmark=captured.name, isa=captured.isa):
        if captured.isa == "conventional":
            n = captured.trace.num_units
            trace = captured.trace.with_unit_flags(
                unit_resolve=array("q", [-1]) * n,
                unit_flags=array("B", bytes(n)),
            )
            stats = replace(
                captured.stats, mispredicts=0,
                outputs=list(captured.stats.outputs),
            )
        else:
            trace = _perfect_block_trace(
                captured.trace, captured.perfect_rollback
            )
            real = captured.stats
            stats = BlockStats(
                fetched_ops=real.committed_ops,
                committed_ops=real.committed_ops,
                blocks_fetched=real.blocks_committed,
                blocks_committed=real.blocks_committed,
                calls=real.calls, returns=real.returns,
                loads=real.loads, stores=real.stores,
                outputs=list(real.outputs),
            )
    return CapturedRun(
        name=captured.name,
        isa=captured.isa,
        trace=trace,
        stats=stats,
        predictor=None,
        bp_accuracy=1.0,
        static_code_bytes=captured.static_code_bytes,
    )


def _perfect_block_trace(trace: PackedTrace, rollback: array) -> PackedTrace:
    """The perfect-prediction stream of a real-prediction BS-ISA *trace*.

    Its units are the committed units of *trace*, in order and unmarked.
    The columns are copied one run of consecutive committed units at a
    time, each op moving down by the squashed ops before its run; the
    dependences name committed ops only, so they move the same way. The
    uids run on from the positions, except that before each committed
    block *k* of a ``(k, uids)`` pair in *rollback* they skip the *uids*
    that the rolled-back variants consumed.
    """
    out = PackedTrace.empty()
    op_start = trace.unit_op_start
    dep_start = trace.op_dep_start
    #: first op position of each run so far, and how far its ops move
    firsts: list[int] = []
    shifts: list[int] = []
    for u0, u1 in _committed_runs(trace.unit_flags):
        first, end = op_start[u0], op_start[u1]
        shift = first - len(out.op_lat)
        dep_shift = dep_start[first] - len(out.deps)
        firsts.append(first)
        shifts.append(shift)
        out.unit_addr += trace.unit_addr[u0:u1]
        out.unit_size += trace.unit_size[u0:u1]
        out.unit_op_start.fromlist(
            [s - shift for s in op_start[u0 + 1:u1 + 1]]
        )
        out.op_lat += trace.op_lat[first:end]
        out.op_mem += trace.op_mem[first:end]
        out.op_flags += trace.op_flags[first:end]
        out.op_dep_start.fromlist(
            [d - dep_shift for d in dep_start[first + 1:end + 1]]
        )
        out.deps.fromlist([
            p - shift if p >= first
            else p - shifts[bisect_right(firsts, p) - 1]
            for p in trace.deps[dep_start[first]:dep_start[end]]
        ])
    n = len(out.unit_addr)
    out.unit_resolve = array("q", [-1]) * n
    out.unit_flags = array("B", [F_ATOMIC]) * n
    pos = skipped = 0
    pairs = iter(rollback)
    for k, uids in zip(pairs, pairs):
        start = out.unit_op_start[k]
        out.op_uid.extend(range(pos + skipped, start + skipped))
        pos, skipped = start, skipped + uids
    out.op_uid.extend(range(pos + skipped, len(out.op_lat) + skipped))
    return out


def _committed_runs(unit_flags: array) -> Iterator[tuple[int, int]]:
    """``(first, end)`` unit ranges of the maximal runs of units that
    committed (no ``F_SQUASHED`` flag)."""
    first = 0
    for u, flags in enumerate(unit_flags):
        if flags & F_SQUASHED:
            if u > first:
                yield first, u
            first = u + 1
    if len(unit_flags) > first:
        yield first, len(unit_flags)


def capture_run(
    program: ConventionalProgram | BlockProgram,
    isa: str,
    config: MachineConfig | None = None,
    telemetry: Telemetry | None = None,
) -> CapturedRun:
    """ISA-dispatching capture (the experiment engine's entry point)."""
    if isa == "conventional":
        return capture_conventional(program, config, telemetry)
    if isa == "block":
        return capture_block_structured(program, config, telemetry)
    raise SimulationError(f"cannot capture unknown isa {isa!r}")


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def _validate_kernel(kernel: str | None) -> str:
    kern = kernel if kernel is not None else "auto"
    if kern not in VALID_KERNELS:
        raise SimulationError(
            f"unknown replay kernel {kernel!r}; choose from "
            f"{', '.join(VALID_KERNELS)}"
        )
    if kern == "numpy" and not vector.HAVE_NUMPY:
        raise SimulationError(
            "replay kernel 'numpy' requested but numpy is not "
            "importable; install numpy or use the 'python' kernel"
        )
    return kern


def prepare_sweep(
    captured: CapturedRun,
    configs,
    kernel: str = "auto",
    telemetry: Telemetry | None = None,
) -> int:
    """Shared precompute for replaying *captured* under every *config*.

    On the vectorized kernel this primes the trace's prep caches
    with one Mattson stack-distance traversal per
    ``(line_bytes, num_sets)`` geometry group — covering every
    associativity in the group — plus the config-independent column
    decodings, so the subsequent per-config replays only pay vectorized
    comparisons and the timing spine. On the ``python`` kernel (or when
    numpy is absent) it is a no-op: the batch degrades to grouped
    scalar replay, still bit-identical, just without the shared work.

    Counts ``sweep.configs_batched`` on *telemetry* and returns the
    number of geometry groups traversed (0 on the scalar path).
    """
    kern = _validate_kernel(kernel)
    configs = list(configs)
    tel = telemetry if telemetry is not None else get_telemetry()
    tel.count("sweep.configs_batched", len(configs))
    if kern == "python" or not vector.HAVE_NUMPY:
        return 0
    return vector.prepare_sweep(captured.trace, configs)


def replay_captured(
    captured: CapturedRun,
    config: MachineConfig | None = None,
    telemetry: Telemetry | None = None,
    insight=None,
    kernel: str = "auto",
) -> SimResult:
    """Replay a captured run under *config* (any config sharing the
    capture's :func:`predictor_key`). Pass an
    :class:`~repro.insight.InsightCollector` as *insight* to accumulate
    cycle-accounting and fetch-rate analytics alongside.

    *kernel* selects the replay implementation (:data:`VALID_KERNELS`):
    the vectorized column kernel (:mod:`repro.sim.vector`) and the
    scalar :meth:`~repro.sim.engine.TimingEngine.run_packed` loop
    produce bit-identical results — all integer fields, no tolerance —
    so the choice only affects speed (docs/performance.md)."""
    config = config or MachineConfig()
    kern = _validate_kernel(kernel)
    tel = telemetry if telemetry is not None else get_telemetry()
    atomic = captured.isa == "block"
    engine = TimingEngine(
        config, atomic_window=atomic, telemetry=tel, insight=insight
    )
    with tel.span("sim.simulate", benchmark=captured.name, isa=captured.isa):
        timing = None
        if kern != "python":
            timing = vector.replay_packed_vector(engine, captured.trace)
        else:
            engine.kernel_path = ("scalar", "kernel_python")
        if timing is None:
            timing = engine.run_packed(captured.trace)
    build = _block_result if atomic else _conventional_result
    result = build(
        captured.name,
        timing,
        captured.stats,
        captured.bp_accuracy,
        captured.static_code_bytes,
    )
    if tel.enabled:
        _publish(tel, result, engine, captured.predictor)
    return result
