"""The experiment engine: memoized compiles + planned, cached runs.

One :class:`ExperimentEngine` owns every artifact of an experiment
session:

* **compiles** — each program is compiled at most once per session
  (and at most once *ever* for unchanged source/toolchain when an
  :class:`~repro.engine.cache.ArtifactCache` is attached). A program is
  a registered workload at the engine's scale, or the MiniC text a
  :class:`~repro.engine.spec.RunSpec` carries as ``source`` (synthesis
  attempts, sweep cells); memos are keyed by *(name, source)*, disk
  keys by the source text itself;
* **traces** — the functional executor runs at most once per
  *(program, isa, predictor-config)* group per session: the packed
  fetch-unit stream (:class:`~repro.sim.run.CapturedRun`) is memoized
  by :func:`~repro.sim.run.predictor_key` and disk-cached by
  :func:`~repro.engine.spec.trace_key`, then *replayed* for every
  machine config that shares it (docs/performance.md). A program
  executes only under real prediction, once per ISA: its
  perfect-prediction trace is derived from the real one
  (:func:`~repro.sim.run.derive_perfect_bp`) in a
  ``sim.derive{benchmark,isa}`` span;
* **runs** — simulation results are memoized by full-fidelity
  :class:`~repro.engine.spec.RunSpec` (the entire machine config
  participates in the key) and disk-cached by content address;
* **plans** — :meth:`execute` takes a deduplicated
  :class:`~repro.engine.plan.RunPlan` and replays the missing runs one
  trace group at a time through
  :func:`~repro.engine.executor.replay_group`, serially or — with
  ``jobs > 1`` and at least two groups — across a process pool,
  merging worker telemetry back into the session in deterministic plan
  order. :meth:`run` is the same path for one spec.

Plan-level telemetry: ``plan.runs_total`` / ``plan.runs_deduped``
counters per execution,
``plan.cache_hits{kind=run|compile|trace|insight}`` /
``plan.cache_misses{kind=run|compile|trace|insight}``,
``plan.trace_captures`` / ``plan.trace_replays`` /
``plan.trace_reuse`` counters for the capture/replay split,
``plan.sweep_groups`` / ``plan.trace_ship_bytes`` /
``sweep.configs_batched`` counters for the sweep-batched distribution
(docs/experiment-engine.md), and a ``plan.run{benchmark,isa}`` span
around every simulation (worker-side when parallel).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.toolchain import CompiledPair, Toolchain
from repro.engine.cache import ArtifactCache
from repro.engine.executor import execute_parallel_groups, replay_group
from repro.engine.plan import RunPlan
from repro.engine.spec import (
    RunSpec,
    ToolchainSpec,
    compile_key,
    insight_key,
    run_key,
    trace_key,
)
from repro.insight import InsightReport
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.sim.run import (
    CapturedRun,
    SimResult,
    capture_run,
    derive_perfect_bp,
    predictor_key,
)
from repro.workloads import SUITE, default_scale, get_workload


class ExperimentEngine:
    """Compile/simulate orchestrator behind :class:`SuiteRunner`."""

    def __init__(
        self,
        scale: float | None = None,
        benchmarks: list[str] | None = None,
        toolchain: Toolchain | None = None,
        telemetry: Telemetry | None = None,
        cache: ArtifactCache | None = None,
        jobs: int = 1,
        insight: bool = False,
        kernel: str = "auto",
    ):
        self.scale = scale if scale is not None else default_scale()
        self.benchmarks = list(benchmarks) if benchmarks else list(SUITE)
        self.telemetry = telemetry
        if toolchain is None:
            toolchain = Toolchain(telemetry=telemetry)
        self.toolchain = toolchain
        self.toolchain_spec = ToolchainSpec.from_toolchain(self.toolchain)
        self.cache = cache
        self.jobs = max(1, int(jobs))
        #: collect an InsightReport (cycle accounting + fetch-rate
        #: analytics) for every executed run
        self.insight = bool(insight)
        #: replay kernel (repro.sim.run.VALID_KERNELS). Deliberately NOT
        #: part of RunSpec / the cache keys: both kernels are bit-exact,
        #: so cached results are kernel-independent.
        self.kernel = kernel
        self._sources: dict[str, str] = {}
        #: keyed by program, *(name, source)*, so two programs under
        #: one name never share an entry
        self._pairs: dict[tuple[str, str | None], CompiledPair] = {}
        self._compile_keys: dict[tuple[str, str | None], str] = {}
        self._results: dict[RunSpec, SimResult] = {}
        self._traces: dict[tuple, CapturedRun] = {}
        self._insights: dict[RunSpec, InsightReport] = {}

    # -- session state -------------------------------------------------

    def _tel(self) -> Telemetry:
        return self.telemetry if self.telemetry is not None else get_telemetry()

    @property
    def executed_specs(self) -> frozenset[RunSpec]:
        """Every run this session has produced (memoized or computed)."""
        return frozenset(self._results)

    @property
    def insights(self) -> dict[RunSpec, InsightReport]:
        """Every InsightReport collected this session (insight mode)."""
        return dict(self._insights)

    def _source(self, name: str, source: str | None = None) -> str:
        if source is not None:
            return source
        if name not in self._sources:
            # get_workload (not SUITE) so registered scenario
            # families flow through RunSpec/cache/replay unchanged
            self._sources[name] = get_workload(name).source(self.scale)
        return self._sources[name]

    def _compile_key(self, name: str, source: str | None = None) -> str | None:
        """Disk-cache key of the compile of *name* (its registered
        source, or *source*), or None without a cache."""
        if self.cache is None:
            return None
        if (name, source) not in self._compile_keys:
            self._compile_keys[name, source] = compile_key(
                name, self._source(name, source), self.toolchain_spec
            )
        return self._compile_keys[name, source]

    def _key(self, kind: str, spec: RunSpec) -> str | None:
        """Disk-cache key of *spec*'s ``trace``, ``run`` or ``insight``
        artifact, or None without a cache."""
        ckey = self._compile_key(spec.benchmark, spec.source)
        if ckey is None:
            return None
        if kind == "trace":
            return trace_key(ckey, spec.isa, spec.config)
        if kind == "run":
            return run_key(ckey, spec)
        return insight_key(ckey, spec)

    def _load(self, kind: str, key: str | None):
        """The artifact cached under *key* (None on a miss or without a
        cache), counted as a ``plan.cache_hits``/``misses`` of
        *kind*."""
        if key is None:
            return None
        value = self.cache.load(key)
        outcome = "plan.cache_misses" if value is None else "plan.cache_hits"
        self._tel().count(outcome, kind=kind)
        return value

    def _save(self, key: str | None, value) -> None:
        if key is not None:
            self.cache.store(key, value)

    # -- compiles ------------------------------------------------------

    def compiled(self, name: str, source: str | None = None) -> CompiledPair:
        """The compiled pair of *name*: its registered workload at the
        engine's scale, or the MiniC *source* when given."""
        memo = (name, source)
        if memo not in self._pairs:
            ckey = self._compile_key(name, source)
            pair = self._load("compile", ckey)
            if pair is None:
                with self._tel().span("suite.compile", benchmark=name):
                    pair = self.toolchain.compile(
                        self._source(name, source), name
                    )
                self._save(ckey, pair)
            self._pairs[memo] = pair
        return self._pairs[memo]

    # -- captured traces -----------------------------------------------

    def captured_run(self, spec: RunSpec) -> CapturedRun:
        """The packed trace serving *spec*.

        The memo key is *(benchmark, source, isa, predictor_key(config))*
        — one functional execution serves every machine config of an
        icache / latency / window sweep. A real-prediction trace comes
        from the memo, the disk cache or a capture, counted by the tier
        that served it. A perfect-prediction trace of either ISA is
        derived (:func:`~repro.sim.run.derive_perfect_bp`) from the
        real-prediction trace of the same predictor geometry; it is
        never captured or cached on its own. A block real run without a
        rollback record (a step was unproven, or the perfect machine
        would exceed the op limit) makes the derivation raise
        :class:`~repro.errors.SimulationError`.
        """
        memo = _trace_memo(spec)
        tel = self._tel()
        if memo in self._traces:
            tel.count("plan.trace_reuse")
            return self._traces[memo]
        if spec.config.perfect_bp:
            real = self.captured_run(
                replace(spec, config=spec.config.with_perfect_bp(False))
            )
            captured = derive_perfect_bp(real, tel)
        else:
            tkey = self._key("trace", spec)
            captured = self._load("trace", tkey)
            if captured is None:
                pair = self.compiled(spec.benchmark, spec.source)
                captured = capture_run(
                    getattr(pair, spec.isa), spec.isa, spec.config, tel
                )
                tel.count("plan.trace_captures")
                self._save(tkey, captured)
        self._traces[memo] = captured
        return captured

    # -- single runs (serial path / facade API) ------------------------

    def run(self, spec: RunSpec) -> SimResult:
        """One simulation: :meth:`execute`'s memo → disk cache →
        capture/replay path applied to *spec* alone (a one-spec trace
        group)."""
        self._produce([spec], self._tel())
        return self._results[spec]

    # -- plan execution ------------------------------------------------

    def execute(self, plan: RunPlan) -> dict[RunSpec, SimResult]:
        """Execute every run of *plan* exactly once; returns spec→result."""
        tel = self._tel()
        tel.count("plan.runs_total", plan.runs_total)
        tel.count("plan.runs_deduped", plan.runs_deduped)
        with tel.span(
            "plan.execute",
            experiments=",".join(plan.experiments),
            jobs=str(self.jobs),
        ):
            self._produce(plan.runs, tel)
        return {spec: self._results[spec] for spec in plan.runs}

    def _produce(self, specs, tel: Telemetry) -> None:
        """Satisfy every spec from the memo, then the disk cache, and
        replay the rest trace group by trace group.

        In insight mode a run only counts as satisfied when both the
        result and its InsightReport are available; a cached result
        with a missing report triggers a (cheap) re-replay. A pool
        starts only when ``jobs > 1`` and at least two trace groups are
        missing; otherwise each group is captured just before it
        replays.
        """
        missing: list[RunSpec] = []
        for spec in specs:
            if spec not in self._results:
                cached = self._load("run", self._key("run", spec))
                if cached is not None:
                    self._results[spec] = cached
            if self.insight and spec not in self._insights:
                report = self._load("insight", self._key("insight", spec))
                if report is not None:
                    self._insights[spec] = report
            if spec not in self._results or (
                self.insight and spec not in self._insights
            ):
                missing.append(spec)
        groups = self._sweep_groups(missing)
        if self.jobs > 1 and len(groups) > 1:
            # Capture every group up front, then ship each trace once.
            captured = [self._capture_group(specs, tel) for specs in groups]
            for run in captured:
                tel.count("plan.trace_ship_bytes", run.trace.nbytes)
            replayed = execute_parallel_groups(
                list(zip(captured, groups)),
                self.jobs, tel.enabled, self.insight, self.kernel,
            )
            for specs, (payloads, snapshot) in zip(groups, replayed):
                tel.merge_snapshot(snapshot)
                self._store(specs, payloads, tel)
        else:
            for specs in groups:
                payloads = replay_group(
                    self._capture_group(specs, tel), specs, tel,
                    self.insight, self.kernel,
                )
                self._store(specs, payloads, tel)

    def _sweep_groups(self, missing: list[RunSpec]) -> list[list[RunSpec]]:
        """Partition *missing* into trace-sharing config groups.

        Group key = the trace memo key *(benchmark, source, isa,
        predictor_key(config))*: every spec of a group replays the same
        :class:`CapturedRun`, so its precompute is amortized
        (:func:`~repro.engine.executor.replay_group`) and — in pool
        mode — the trace ships to a worker once per group, not once per
        spec. Plan order is preserved within and across groups.
        """
        groups: dict[tuple, list[RunSpec]] = {}
        for spec in missing:
            groups.setdefault(_trace_memo(spec), []).append(spec)
        return list(groups.values())

    def _capture_group(
        self, specs: list[RunSpec], tel: Telemetry
    ) -> CapturedRun:
        """The trace every spec of one group replays."""
        captured = self.captured_run(specs[0])
        tel.count("plan.sweep_groups")
        if len(specs) > 1:
            tel.count("plan.trace_reuse", len(specs) - 1)
        return captured

    def _store(self, specs: list[RunSpec], payloads, tel: Telemetry) -> None:
        """Memoize and disk-cache one group's replayed payloads."""
        for spec, (result, report) in zip(specs, payloads):
            tel.count("plan.trace_replays")
            self._save(self._key("run", spec), result)
            self._results[spec] = result
            if report is not None:
                self._save(self._key("insight", spec), report)
                self._insights[spec] = report


def _trace_memo(spec: RunSpec) -> tuple:
    """The identity of the trace *spec* replays."""
    return (spec.benchmark, spec.source, spec.isa, predictor_key(spec.config))
