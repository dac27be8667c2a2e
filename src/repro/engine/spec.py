"""Run/compile specifications and their canonical cache keys.

A :class:`RunSpec` names one simulation — *(benchmark, isa, machine
config)* — declaratively, so experiments can state the runs they need
up front instead of performing them imperatively. Specs are frozen and
hashable over the **entire** :class:`MachineConfig`, which makes them
the deduplication unit of a :class:`~repro.engine.plan.RunPlan` and the
memo key of the engine (two configs differing in any field — e.g. only
``mispredict_penalty`` — are distinct runs).

A :class:`ToolchainSpec` captures every compilation option that affects
generated code, so compiled artifacts can be keyed by content: the
cache key of a compile is a digest over the workload source text, the
toolchain options, and :data:`SCHEMA_VERSION`; the key of a run adds
the ISA and the full machine config. Bumping :data:`SCHEMA_VERSION`
invalidates every on-disk artifact at once (the rules are documented in
docs/experiment-engine.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from repro.backend import EnlargeConfig
from repro.core.toolchain import Toolchain
from repro.errors import ConfigError
from repro.opt import IfConvertConfig, InlineConfig
from repro.sim.config import MachineConfig

#: Version of the cached-artifact layout. Bump when SimResult,
#: CompiledPair, or any pickled structure changes shape.
SCHEMA_VERSION = 2

ISAS = ("conventional", "block")


@dataclass(frozen=True)
class RunSpec:
    """One required simulation: benchmark × ISA × full machine config."""

    benchmark: str
    isa: str
    config: MachineConfig = field(default_factory=MachineConfig)

    def __post_init__(self):
        if self.isa not in ISAS:
            raise ConfigError(
                f"isa must be one of {ISAS}, got {self.isa!r}"
            )

    def labels(self) -> dict[str, str]:
        """Telemetry labels identifying this run."""
        return {"benchmark": self.benchmark, "isa": self.isa}


@dataclass(frozen=True)
class ToolchainSpec:
    """Every compilation option that affects generated code."""

    opt_level: int = 2
    enlarge: EnlargeConfig = field(default_factory=EnlargeConfig)
    inline: InlineConfig = field(
        default_factory=lambda: InlineConfig(enabled=False)
    )
    if_convert: IfConvertConfig = field(
        default_factory=lambda: IfConvertConfig(enabled=False)
    )

    @classmethod
    def from_toolchain(cls, toolchain: Toolchain) -> "ToolchainSpec":
        return cls(
            opt_level=toolchain.opt_level,
            enlarge=toolchain.enlarge,
            inline=toolchain.inline,
            if_convert=toolchain.if_convert,
        )

    def build(self, telemetry=None) -> Toolchain:
        return Toolchain(
            opt_level=self.opt_level,
            enlarge=self.enlarge,
            inline=self.inline,
            if_convert=self.if_convert,
            telemetry=telemetry,
        )

    @property
    def cacheable(self) -> bool:
        """An attached branch profile is a training-run artifact, not a
        config value — profile-guided compiles bypass the disk cache."""
        return self.enlarge.profile is None

    def canonical(self) -> dict:
        enlarge = self.enlarge
        if enlarge.profile is not None:
            enlarge = replace(enlarge, profile=None)
        return {
            "opt_level": self.opt_level,
            "enlarge": asdict(enlarge),
            "inline": asdict(self.inline),
            "if_convert": asdict(self.if_convert),
        }


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


def compile_key(
    benchmark: str, source: str, toolchain: ToolchainSpec
) -> str:
    """Content address of one compiled pair."""
    return _digest(
        canonical_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "compile",
                "benchmark": benchmark,
                "source_sha": _digest(source),
                "toolchain": toolchain.canonical(),
            }
        )
    )


def run_key(compile_digest: str, spec: RunSpec) -> str:
    """Content address of one simulation result (compile key + run spec)."""
    return _digest(
        canonical_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "run",
                "compile": compile_digest,
                "isa": spec.isa,
                "config": asdict(spec.config),
            }
        )
    )


def insight_key(compile_digest: str, spec: RunSpec) -> str:
    """Content address of one run's ``InsightReport``.

    Same granularity as :func:`run_key` (the analytics depend on the
    full machine config) but a distinct artifact kind, so insight-less
    sessions pay nothing and enabling insight later only replays runs
    whose reports are missing.
    """
    return _digest(
        canonical_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "insight",
                "compile": compile_digest,
                "isa": spec.isa,
                "config": asdict(spec.config),
            }
        )
    )


def trace_key(compile_digest: str, isa: str, config: MachineConfig) -> str:
    """Content address of one captured packed trace.

    Deliberately coarser than :func:`run_key`: the dynamic fetch-unit
    stream depends only on the program and the predictor configuration
    (:func:`repro.sim.run.predictor_key`), so every machine config of an
    icache/latency/window sweep shares one trace artifact. Perfect
    prediction collapses the predictor geometry entirely. The engine
    stores no conventional perfect-prediction trace: it derives that
    one from the real-prediction trace.
    """
    if config.perfect_bp:
        predictor: dict = {"perfect_bp": True}
    else:
        predictor = {
            "perfect_bp": False,
            "bp_history_bits": config.bp_history_bits,
            "bp_table_bits": config.bp_table_bits,
        }
    return _digest(
        canonical_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "trace",
                "compile": compile_digest,
                "isa": isa,
                "predictor": predictor,
            }
        )
    )


def describe_key_fields(spec: RunSpec) -> tuple[str, ...]:
    """The MachineConfig fields that participate in *spec*'s identity
    (all of them — exposed so tests can assert full fidelity)."""
    return tuple(f.name for f in fields(spec.config))
