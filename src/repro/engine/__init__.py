"""Plan/execute experiment engine.

The engine splits "regenerate the paper's figures" into three explicit
stages (docs/experiment-engine.md):

1. **plan** — experiments declare their required runs as
   :class:`RunSpec` values; :func:`build_plan` deduplicates them by
   full-fidelity identity into one :class:`RunPlan`;
2. **execute** — :class:`ExperimentEngine` runs the deduplicated plan
   one program at a time, in-process or across a process pool,
   memoizing every result;
3. **cache** — an optional :class:`ArtifactCache` persists compiled
   pairs and simulation results content-addressed on disk, so repeated
   invocations skip unchanged work entirely.
"""

from repro.engine.cache import ArtifactCache, default_cache_root
from repro.engine.core import ExperimentEngine
from repro.engine.executor import replay_group
from repro.engine.plan import RunPlan, build_plan
from repro.engine.spec import (
    SCHEMA_VERSION,
    RunSpec,
    ToolchainSpec,
    compile_key,
    config_key,
    insight_key,
    run_key,
    trace_key,
)

__all__ = [
    "ArtifactCache",
    "ExperimentEngine",
    "RunPlan",
    "RunSpec",
    "SCHEMA_VERSION",
    "ToolchainSpec",
    "build_plan",
    "compile_key",
    "config_key",
    "default_cache_root",
    "insight_key",
    "replay_group",
    "run_key",
    "trace_key",
]
