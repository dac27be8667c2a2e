"""Cosimulation oracle: timing simulator vs. functional executors.

Every headline number in this reproduction comes out of
:class:`~repro.sim.engine.TimingEngine`, which consumes the dynamic
fetch-unit stream produced by the functional executors. The oracle runs
the whole stack in lockstep for one source program and cross-checks
every layer against every other:

* the **IR interpreter** is the golden reference for program output;
* both **functional executors** (conventional, block-structured with
  perfect *and* real prediction) must reproduce the golden output;
* each **timed simulation** must (a) reproduce the golden output — the
  timing engine consumes the same executor, so a divergence means the
  trace generator corrupted architectural state; (b) agree with an
  independent predictor-matched functional run on every architectural
  counter (committed ops/units, mispredicts, squashes) — the
  "retired-op stream" check; and (c) satisfy every identity in
  :mod:`repro.check.invariants`;
* the **perfect-prediction derivation**
  (:func:`~repro.sim.run.derive_perfect_bp`) builds the BS-ISA's
  perfect run from each real-prediction block capture; its trace
  bytes and counters must equal a direct ``predictor=None`` capture
  (``cosim.perfect_derivation``), so ``bsisa fuzz`` shrinks derivation
  bugs too;
* the **vectorized replay kernel** (:mod:`repro.sim.vector`) replays
  the same captured trace as a third implementation whenever numpy is
  importable: its ``SimResult`` must be bit-identical to the scalar
  replay (``cosim.kernel_divergence``), its :class:`InsightReport`
  path-independent (``cosim.insight_divergence``), and it must satisfy
  the same invariant library — so ``bsisa fuzz`` shrinks kernel bugs
  exactly like engine bugs;
* the whole matrix repeats across **enlargement configurations** and
  **machine configurations** (real and perfect prediction by default).

Telemetry: one ``check.cosim{program=}`` span per checked program,
``check.programs`` counting programs, and
``check.violations{invariant=}`` counting failures by invariant name.
The oracle's own simulations run under the disabled session and
publish no ``sim.*`` series: a fuzz run checks hundreds of throwaway
programs, and per-program labels would grow the caller's registry
without bound.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.backend.enlarge import EnlargeConfig
from repro.check.invariants import Violation, check_invariants
from repro.core.toolchain import Toolchain
from repro.errors import SourceError
from repro.exec import interpret_module, run_block_structured, run_conventional
from repro.insight import InsightCollector
from repro.obs.telemetry import DISABLED, Telemetry, get_telemetry
from repro.sim import vector
from repro.sim.config import MachineConfig
from repro.sim.predictors import BlockPredictor, GsharePredictor
from repro.sim.run import capture_run, derive_perfect_bp, replay_captured

#: Enlargement matrix: the paper's default, enlargement off, and a
#: deliberately tight budget that forces many small families.
DEFAULT_ENLARGE_VARIANTS: tuple[EnlargeConfig, ...] = (
    EnlargeConfig(),
    EnlargeConfig(enabled=False),
    EnlargeConfig(max_ops=8, max_faults=1),
)

#: Machine matrix: real prediction (faults and squashes exercised) and
#: perfect prediction (no speculation at all).
DEFAULT_MACHINE_CONFIGS: tuple[MachineConfig, ...] = (
    MachineConfig(),
    MachineConfig(perfect_bp=True),
)

@dataclass
class CosimReport:
    """Outcome of one program's trip through the oracle."""

    name: str
    source: str
    violations: list[Violation] = field(default_factory=list)
    #: (enlarge, machine) combinations actually checked
    configurations: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"{self.name}: ok ({self.configurations} configurations)"
        lines = [f"{self.name}: {len(self.violations)} violation(s)"]
        lines += [f"  {v.invariant}: {v.message}" for v in self.violations]
        return "\n".join(lines)


def _counter_checks(result, stats, isa: str) -> list[tuple[str, int, int]]:
    """(field, timed value, functional value) triples that must agree."""
    if isa == "conventional":
        return [
            ("committed_ops", result.committed_ops, stats.dyn_ops),
            ("committed_units", result.committed_units, stats.units),
            ("mispredicts", result.mispredicts, stats.mispredicts),
            ("branch_events", result.branch_events, stats.branches),
        ]
    return [
        ("committed_ops", result.committed_ops, stats.committed_ops),
        ("committed_units", result.committed_units, stats.blocks_committed),
        ("mispredicts", result.mispredicts, stats.total_mispredicts),
        ("branch_events", result.branch_events, stats.trap_predictions),
        ("squashed_blocks", result.squashed_blocks, stats.blocks_squashed),
        ("fault_mispredicts", result.fault_mispredicts,
         stats.fault_mispredicts),
        ("trap_mispredicts", result.trap_mispredicts, stats.trap_mispredicts),
    ]


class CosimChecker:
    """Runs one program through the full lockstep matrix."""

    def __init__(
        self,
        enlarge_variants: tuple[EnlargeConfig, ...] | None = None,
        machine_configs: tuple[MachineConfig, ...] | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.enlarge_variants = (
            tuple(enlarge_variants)
            if enlarge_variants is not None
            else DEFAULT_ENLARGE_VARIANTS
        )
        self.machine_configs = (
            tuple(machine_configs)
            if machine_configs is not None
            else DEFAULT_MACHINE_CONFIGS
        )
        self.telemetry = telemetry

    def _tel(self) -> Telemetry:
        return self.telemetry if self.telemetry is not None else get_telemetry()

    # ------------------------------------------------------------------

    def check_source(self, source: str, name: str = "cosim") -> CosimReport:
        """Full oracle over *source*; never raises — failures (including
        compile errors and crashes) land in the report's violations."""
        tel = self._tel()
        report = CosimReport(name=name, source=source)
        tel.count("check.programs")
        with tel.span("check.cosim", program=name):
            try:
                self._check(source, name, report)
            except SourceError as exc:
                report.violations.append(
                    Violation("cosim.invalid_program", str(exc))
                )
            except Exception as exc:  # noqa: BLE001 — the oracle must
                # survive any toolchain/simulator crash and report it as
                # a finding; a fuzz run dying on program #17 of 200 is
                # useless.
                report.violations.append(
                    Violation(
                        "cosim.crash", f"{type(exc).__name__}: {exc}"
                    )
                )
        if tel.enabled:
            for v in report.violations:
                tel.count("check.violations", invariant=v.invariant)
            if report.violations:
                tel.count("check.failed_programs")
        return report

    # ------------------------------------------------------------------

    def _check(self, source: str, name: str, report: CosimReport) -> None:
        fail = report.violations.append
        golden = None
        for enlarge in self.enlarge_variants:
            pair = Toolchain(enlarge=enlarge).compile(source, name)
            interp = interpret_module(pair.module)
            if golden is None:
                golden = interp
            elif interp != golden:
                fail(Violation(
                    "cosim.interpreter_outputs",
                    f"IR interpreter output changed across enlargement "
                    f"configs under {enlarge}",
                ))
                continue

            conv_stats = run_conventional(pair.conventional)
            if conv_stats.outputs != golden:
                fail(Violation(
                    "cosim.conventional_outputs",
                    f"functional conventional run diverged from the "
                    f"interpreter under {enlarge}",
                ))
            perfect_stats = run_block_structured(pair.block)
            if perfect_stats.outputs != golden:
                fail(Violation(
                    "cosim.block_outputs",
                    f"functional BS run (perfect prediction) diverged "
                    f"from the interpreter under {enlarge}",
                ))

            for machine in self.machine_configs:
                report.configurations += 1
                self._check_timed(pair, machine, golden, enlarge, fail)

    def _check_timed(self, pair, machine, golden, enlarge, fail) -> None:
        # Predictor-matched functional references: identical predictor
        # geometry means bit-identical dynamics, so every architectural
        # counter must agree exactly with the timed run.
        conv_pred = (
            None
            if machine.perfect_bp
            else GsharePredictor(machine.bp_history_bits, machine.bp_table_bits)
        )
        conv_ref = run_conventional(pair.conventional, predictor=conv_pred)
        block_pred = (
            None
            if machine.perfect_bp
            else BlockPredictor(
                pair.block, machine.bp_history_bits, machine.bp_table_bits
            )
        )
        block_ref = run_block_structured(pair.block, predictor=block_pred)

        for ref_stats, ref_outputs, prog, isa in (
            (conv_ref, conv_ref.outputs, pair.conventional, "conventional"),
            (block_ref, block_ref.outputs, pair.block, "block"),
        ):
            where = (
                f"[isa={isa} perfect_bp={machine.perfect_bp} "
                f"enlarge(max_ops={enlarge.max_ops} "
                f"max_faults={enlarge.max_faults} "
                f"enabled={enlarge.enabled})]"
            )
            if ref_outputs != golden:
                fail(Violation(
                    "cosim.functional_outputs",
                    f"{where} predictor-driven functional run diverged "
                    f"from the interpreter",
                ))
                continue
            # One capture, replayed once per kernel: the sharpest
            # differential — both implementations consume the same
            # packed columns.
            captured = capture_run(prog, isa, machine, DISABLED)
            if isa == "block" and not machine.perfect_bp:
                self._check_perfect_derivation(
                    captured, prog, machine, where, fail
                )
            collector = InsightCollector()
            result = replay_captured(
                captured, machine, DISABLED,
                insight=collector, kernel="python",
            )
            if result.outputs != golden:
                fail(Violation(
                    "cosim.timed_outputs",
                    f"{where} timed simulation's architectural output "
                    f"diverged from the interpreter",
                ))
            for fname, timed, functional in _counter_checks(
                result, ref_stats, isa
            ):
                if timed != functional:
                    fail(Violation(
                        "cosim.retired_stream",
                        f"{where} {fname}: timed={timed} != "
                        f"functional={functional}",
                    ))
            for violation in check_invariants(
                result, machine, insight=collector
            ):
                fail(Violation(
                    violation.invariant, f"{where} {violation.message}"
                ))
            if vector.HAVE_NUMPY:
                self._check_vector_kernel(
                    captured, machine, result, collector, isa, where, fail
                )

    def _check_perfect_derivation(
        self, captured, prog, machine, where, fail
    ) -> None:
        """Derive the perfect-prediction run from the real-prediction
        block capture *captured* and pin it to a direct
        ``predictor=None`` capture: trace bytes and counters equal."""
        if not captured.derives_perfect_bp:
            fail(Violation(
                "cosim.perfect_derivation",
                f"{where} the real-prediction capture proved no "
                f"perfect-prediction rollbacks to derive from",
            ))
            return
        derived = derive_perfect_bp(captured, DISABLED)
        direct = capture_run(
            prog, "block", machine.with_perfect_bp(), DISABLED
        )
        mismatched = [
            name for name, got, want in (
                ("trace", derived.trace.to_bytes(), direct.trace.to_bytes()),
                ("stats", dataclasses.asdict(derived.stats),
                 dataclasses.asdict(direct.stats)),
            ) if got != want
        ]
        if mismatched:
            fail(Violation(
                "cosim.perfect_derivation",
                f"{where} the derived perfect-prediction run differs from "
                f"a direct capture in: {', '.join(mismatched)}",
            ))

    def _check_vector_kernel(
        self, captured, machine, result, collector, isa, where, fail
    ) -> None:
        """Replay *captured* through the vectorized kernel and pin it
        to the scalar replay: SimResult bit-identical, InsightReport
        path-independent, invariants all green."""
        vec_collector = InsightCollector()
        vec_result = replay_captured(
            captured, machine, DISABLED,
            insight=vec_collector, kernel="numpy",
        )
        scalar = dataclasses.asdict(result)
        vectored = dataclasses.asdict(vec_result)
        if vectored != scalar:
            fields = sorted(
                k for k in scalar if vectored.get(k) != scalar[k]
            )
            fail(Violation(
                "cosim.kernel_divergence",
                f"{where} vectorized replay diverged from the scalar "
                f"replay on: {', '.join(fields)}",
            ))
        if vec_collector.report("cosim", isa, machine) != collector.report(
            "cosim", isa, machine
        ):
            fail(Violation(
                "cosim.insight_divergence",
                f"{where} vectorized replay produced a different "
                f"InsightReport than the scalar replay",
            ))
        for violation in check_invariants(
            vec_result, machine, insight=vec_collector
        ):
            fail(Violation(
                violation.invariant,
                f"{where} [kernel=numpy] {violation.message}",
            ))
