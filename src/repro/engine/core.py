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
  :class:`~repro.engine.plan.RunPlan` and partitions the missing runs
  by program *(benchmark, source)*. One program is one unit of work
  (:meth:`ExperimentEngine._produce_program`): compile, capture, derive
  and replay, one trace group at a time through
  :func:`~repro.engine.executor.replay_group`. Units run in-process,
  or — with ``jobs > 1`` and at least two programs missing — in a
  process pool whose workers each build their own engine; the parent
  merges worker telemetry back into the session in deterministic plan
  order. :meth:`run` is the same path for one spec, and :meth:`compare`
  runs it once per ISA: the public API's controlled comparison.

Plan-level telemetry: ``plan.runs_total`` / ``plan.runs_deduped``
counters per execution,
``plan.cache_hits{kind=run|compile|trace|insight}`` /
``plan.cache_misses{kind=run|compile|trace|insight}``,
``plan.trace_captures`` / ``plan.trace_replays`` /
``plan.trace_reuse`` counters for the capture/replay split,
``plan.sweep_groups`` / ``sweep.configs_batched`` counters for the
sweep-batched replay (docs/experiment-engine.md), and a
``plan.run{benchmark,isa}`` span around every simulation. When a pool
runs, the compile, capture, derive and run spans are recorded in the
workers and merged.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from repro.core.toolchain import CompiledPair, Comparison, Toolchain
from repro.engine.cache import ArtifactCache
from repro.engine.executor import replay_group
from repro.engine.plan import RunPlan
from repro.engine.spec import (
    ISAS,
    RunSpec,
    ToolchainSpec,
    compile_key,
    insight_key,
    run_key,
    trace_key,
)
from repro.errors import ConfigError
from repro.insight import InsightReport
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.sim import vector
from repro.sim.config import MachineConfig
from repro.sim.run import (
    VALID_KERNELS,
    CapturedRun,
    SimResult,
    capture_run,
    derive_perfect_bp,
    predictor_key,
)
from repro.workloads import SUITE, default_scale, get_workload, parse_scale

#: Worker trace buffers stay small: the parent merges one buffer per
#: program and its own ring already bounds total retention.
WORKER_TRACE_CAPACITY = 1024


class ExperimentEngine:
    """Compile/simulate orchestrator behind :class:`SuiteRunner`.

    Raises :class:`~repro.errors.ConfigError` before any work for a
    *scale* that is not a positive finite number, a *jobs* that is not
    an integer of at least 1, a *kernel* outside
    :data:`~repro.sim.run.VALID_KERNELS`, or ``kernel="numpy"`` where
    numpy is not importable.
    """

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
        self.scale = (
            default_scale() if scale is None else parse_scale(scale, "scale")
        )
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ConfigError(f"jobs must be an integer >= 1, got {jobs!r}")
        if kernel not in VALID_KERNELS:
            raise ConfigError(
                f"kernel must be one of {', '.join(VALID_KERNELS)}, "
                f"got {kernel!r}"
            )
        if kernel == "numpy" and not vector.HAVE_NUMPY:
            raise ConfigError(
                "kernel 'numpy' needs numpy, which is not importable; "
                "use 'python' or 'auto' (the kernels are bit-identical)"
            )
        self.benchmarks = list(benchmarks) if benchmarks else list(SUITE)
        self.telemetry = telemetry
        if toolchain is None:
            toolchain = Toolchain(telemetry=telemetry)
        self.toolchain = toolchain
        self.toolchain_spec = ToolchainSpec.from_toolchain(self.toolchain)
        self.cache = cache
        self.jobs = jobs
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

    def compare(
        self,
        name: str,
        config: MachineConfig | None = None,
        source: str | None = None,
    ) -> Comparison:
        """Both ISAs' runs of one program (see :meth:`compiled`) under
        *config*, the paper's machine by default: two :meth:`run` calls,
        so a pair never starts a pool. A perfect-prediction comparison
        derives both traces from the real captures
        (:meth:`captured_run`)."""
        config = config or MachineConfig()
        runs = {
            isa: self.run(RunSpec(name, isa, config, source)) for isa in ISAS
        }
        return Comparison(**runs)

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
        produce the rest program by program.

        In insight mode a run only counts as satisfied when both the
        result and its InsightReport are available; a cached result
        with a missing report triggers a (cheap) re-replay. A pool
        starts only when ``jobs > 1`` and at least two programs are
        missing; otherwise each program is produced in-process.
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
        programs = _partition(missing, lambda s: (s.benchmark, s.source))
        if self.jobs > 1 and len(programs) > 1:
            self._produce_pooled(programs, tel)
        else:
            for specs in programs:
                self._store(self._produce_program(specs, tel), tel)

    def _produce_program(self, specs: list[RunSpec], tel: Telemetry) -> list:
        """Compile, capture, derive and replay one program's missing
        *specs*, one trace group at a time; returns ``(spec, result,
        report)`` items.

        The unit of work in-process and in a pool worker alike. Group
        key = the trace memo key *(benchmark, source, isa,
        predictor_key(config))*: every spec of a group replays the same
        :class:`CapturedRun`, so its precompute is amortized
        (:func:`~repro.engine.executor.replay_group`). Plan order is
        preserved within and across groups.
        """
        items = []
        for group in _partition(specs, _trace_memo):
            captured = self.captured_run(group[0])
            tel.count("plan.sweep_groups")
            if len(group) > 1:
                tel.count("plan.trace_reuse", len(group) - 1)
            payloads = replay_group(
                captured, group, tel, self.insight, self.kernel
            )
            items += [(s, *payload) for s, payload in zip(group, payloads)]
        return items

    def _produce_pooled(self, programs, tel: Telemetry) -> None:
        """Produce each program in a pool worker (:func:`_pooled_program`)
        and merge the items, telemetry and cache counts in plan order."""
        root = None if self.cache is None else self.cache.root
        settings = (
            self.scale, self.toolchain_spec, root,
            self.insight, self.kernel, tel.enabled,
        )
        with ProcessPoolExecutor(min(self.jobs, len(programs))) as pool:
            futures = [
                pool.submit(_pooled_program, settings, specs)
                for specs in programs
            ]
            for future in futures:
                items, snapshot, (hits, misses) = future.result()
                tel.merge_snapshot(snapshot)
                if self.cache is not None:
                    self.cache.hits += hits
                    self.cache.misses += misses
                self._store(items, tel)

    def _store(self, items, tel: Telemetry) -> None:
        """Memoize and disk-cache produced ``(spec, result, report)``
        items."""
        for spec, result, report in items:
            tel.count("plan.trace_replays")
            self._save(self._key("run", spec), result)
            self._results[spec] = result
            if report is not None:
                self._save(self._key("insight", spec), report)
                self._insights[spec] = report


def _pooled_program(settings: tuple, specs: list[RunSpec]) -> tuple:
    """Pool entry for one program (module-level so the pool can pickle
    it): a fresh engine built from the parent's *settings*, under a
    fresh session enabled iff the parent's is, runs
    :meth:`ExperimentEngine._produce_program`. Returns the items, that
    session's snapshot and the worker cache's ``(hits, misses)``."""
    scale, toolchain, root, insight, kernel, enabled = settings
    tel = Telemetry(enabled=enabled, trace_capacity=WORKER_TRACE_CAPACITY)
    cache = None if root is None else ArtifactCache(root)
    engine = ExperimentEngine(
        scale,
        toolchain=Toolchain(
            toolchain.opt_level, toolchain.enlarge, toolchain.inline,
            toolchain.if_convert, tel,
        ),
        telemetry=tel, cache=cache, insight=insight, kernel=kernel,
    )
    items = engine._produce_program(specs, tel)
    counts = (0, 0) if cache is None else (cache.hits, cache.misses)
    return items, tel.worker_snapshot(), counts


def _partition(specs, key) -> list[list[RunSpec]]:
    """*specs* grouped by *key*, plan order kept within and across
    groups."""
    groups: dict = {}
    for spec in specs:
        groups.setdefault(key(spec), []).append(spec)
    return list(groups.values())


def _trace_memo(spec: RunSpec) -> tuple:
    """The identity of the trace *spec* replays."""
    return (spec.benchmark, spec.source, spec.isa, predictor_key(spec.config))
