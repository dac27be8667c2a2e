"""Run specifications and their canonical cache keys.

A :class:`RunSpec` names one simulation — *(benchmark, isa, machine
config)*, plus the program's source text when it is not the registered
workload and the compile options when they are not the paper's —
declaratively, so experiments can state the runs they need up front
instead of performing them imperatively. Specs are frozen and hashable
over the **entire** :class:`MachineConfig` and
:class:`~repro.core.toolchain.Toolchain`, which makes them the
deduplication unit of a :class:`~repro.engine.plan.RunPlan` and the
memo key of the engine (two configs differing in any field — e.g. only
``mispredict_penalty`` — are distinct runs).

Compiled artifacts are keyed by content: the cache key of a compile is
a digest over the workload source text, every ``Toolchain`` option and
:data:`SCHEMA_VERSION`; the key of a run adds the ISA and the full
machine config. Bumping :data:`SCHEMA_VERSION` invalidates every
on-disk artifact at once (the rules are documented in
docs/experiment-engine.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass

from repro.core.toolchain import Toolchain
from repro.errors import ConfigError
from repro.sim.config import MachineConfig

#: Version of the cached-artifact layout. Bump when SimResult,
#: CompiledPair, or any pickled structure changes shape, or when a
#: cached artifact of the old layout must never be read (3: every real
#: BS-ISA trace carries ``perfect_rollback``).
SCHEMA_VERSION = 3

ISAS = ("conventional", "block")


@dataclass(frozen=True)
class RunSpec:
    """One required simulation: benchmark × ISA × full machine config,
    compiled by *toolchain*."""

    benchmark: str
    isa: str
    config: MachineConfig = field(default_factory=MachineConfig)
    #: the MiniC text, when the program is not the registered workload
    #: *benchmark* at the engine's scale (a synthesis attempt, a sweep
    #: cell); part of the run's identity, never of its labels
    source: str | None = field(default=None, repr=False)
    #: the compile options (the paper's by default); like *source*, part
    #: of the run's identity, never of its labels
    toolchain: Toolchain = Toolchain()

    def __post_init__(self):
        if self.isa not in ISAS:
            raise ConfigError(
                f"isa must be one of {ISAS}, got {self.isa!r}"
            )

    def labels(self) -> dict[str, str]:
        """Telemetry labels identifying this run."""
        return {"benchmark": self.benchmark, "isa": self.isa}


def canonical_json(obj) -> str:
    """Deterministic JSON rendering used for every cache key."""
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = asdict(obj)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_key(config: MachineConfig) -> str:
    """Full-fidelity digest of a machine configuration."""
    return _digest(canonical_json(config))


def _artifact_key(kind: str, **identity) -> str:
    """Digest of one artifact's *identity* under its *kind* and
    :data:`SCHEMA_VERSION`."""
    return _digest(
        canonical_json({"schema": SCHEMA_VERSION, "kind": kind, **identity})
    )


def compile_key(benchmark: str, source: str, toolchain: Toolchain) -> str:
    """Content address of one compiled pair."""
    return _artifact_key(
        "compile",
        benchmark=benchmark,
        source_sha=_digest(source),
        toolchain=asdict(toolchain),
    )


def run_key(compile_digest: str, spec: RunSpec) -> str:
    """Content address of one simulation result (compile key + run spec)."""
    return _artifact_key(
        "run", compile=compile_digest, isa=spec.isa, config=asdict(spec.config)
    )


def insight_key(compile_digest: str, spec: RunSpec) -> str:
    """Content address of one run's ``InsightReport``.

    Same granularity as :func:`run_key` (the analytics depend on the
    full machine config) but a distinct artifact kind, so insight-less
    sessions pay nothing and enabling insight later only replays runs
    whose reports are missing.
    """
    return _artifact_key(
        "insight",
        compile=compile_digest,
        isa=spec.isa,
        config=asdict(spec.config),
    )


def trace_key(compile_digest: str, isa: str, config: MachineConfig) -> str:
    """Content address of one captured packed trace.

    Deliberately coarser than :func:`run_key`: the dynamic fetch-unit
    stream depends only on the program and the predictor configuration
    (:func:`repro.sim.run.predictor_key`), so every machine config of an
    icache/latency/window sweep shares one trace artifact. Perfect
    prediction collapses the predictor geometry entirely. The engine
    stores no perfect-prediction trace: it derives that one from the
    real-prediction trace (:func:`repro.sim.run.derive_perfect_bp`).
    """
    if config.perfect_bp:
        predictor: dict = {"perfect_bp": True}
    else:
        predictor = {
            "perfect_bp": False,
            "bp_history_bits": config.bp_history_bits,
            "bp_table_bits": config.bp_table_bits,
        }
    return _artifact_key(
        "trace", compile=compile_digest, isa=isa, predictor=predictor
    )
