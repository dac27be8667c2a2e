"""Named, seed-reproducible scenario families.

Each family is a :class:`~repro.scenario.spec.ScenarioSpec` whose
canonical ``family_name`` is the registry key (``synthetic/<axes>``,
docs/scenarios.md). Families resolve through
:func:`repro.workloads.get_workload` like any suite benchmark, so
``bsisa run``, the experiment engine's ``RunSpec``/``ArtifactCache``
machinery, and the benchmarks tier consume them unchanged.

Reproducibility contract: a family's source is a pure function of its
spec — regenerating from the name is byte-identical — and its realized
axis values ship in the synthesis report, never in the name (the name
encodes *targets*).
"""

from __future__ import annotations

from repro.scenario.spec import ScenarioSpec
from repro.scenario.synth import family_source
from repro.workloads.base import Workload

#: the registered axis points: small/large blocks x weak/strong bias x
#: footprints on both sides of the small icache geometries.
_SPECS = (
    ScenarioSpec(bb_size=3, bias=0.60, hot_bytes=2048),
    ScenarioSpec(bb_size=5, bias=0.75, hot_bytes=8192),
    ScenarioSpec(bb_size=8, bias=0.90, hot_bytes=16384),
    ScenarioSpec(bb_size=12, bias=0.97, hot_bytes=4096),
)

FAMILIES: dict[str, ScenarioSpec] = {
    spec.family_name: spec for spec in _SPECS
}


def _workload(spec: ScenarioSpec) -> Workload:
    return Workload(
        name=spec.family_name,
        description=(
            f"synthetic scenario family (targets: mean bb "
            f"{spec.bb_size} ops, branch bias {spec.bias:.2f}, hot "
            f"region {spec.hot_bytes} bytes)"
        ),
        paper_input="synthetic (scenario engine, docs/scenarios.md)",
        source_fn=lambda scale, _spec=spec: family_source(_spec, scale),
    )


WORKLOADS: dict[str, Workload] = {
    name: _workload(spec) for name, spec in FAMILIES.items()
}


def get_family(name: str) -> ScenarioSpec:
    """The spec registered under *name* (KeyError with the roster)."""
    try:
        return FAMILIES[name]
    except KeyError:
        roster = ", ".join(sorted(FAMILIES))
        raise KeyError(
            f"unknown scenario family {name!r}; registered: {roster}"
        ) from None
