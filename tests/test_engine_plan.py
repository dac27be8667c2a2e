"""Plan/execute engine: specs, planning, caching, parallel execution.

Everything runs at tiny scales on one or two benchmarks so the whole
file stays tier-1 fast; the parallel tests use a 2-process pool on a
two-run plan.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest

from repro.backend import EnlargeConfig
from repro.core.toolchain import Comparison, Toolchain
from repro.engine import (
    ArtifactCache,
    ExperimentEngine,
    RunSpec,
    build_plan,
    compile_key,
    config_key,
    run_key,
)
from repro.engine.spec import ISAS
from repro.errors import ConfigError, TelemetryError
from repro.harness import ALL_EXPERIMENTS, EXPERIMENT_RUNS, SuiteRunner
from repro.obs import Telemetry, use_telemetry
from repro.opt import IfConvertConfig, InlineConfig
from repro.sim.config import MachineConfig
from repro.sim.engine import TimingStats
from repro.sim.run import SimResult, capture_run, replay_captured
from repro.workloads import SUITE

from tests.test_cache_keys import (
    DEFAULT_COMPILE_KEY,
    GUIDED_COMPILE_KEY,
    SOURCE,
)

SCALE = 0.05
BENCHES = ["compress", "m88ksim"]

#: metric families published per run (deterministic, order-independent)
RUN_METRIC_PREFIXES = ("sim.", "cache.", "bp.")


@pytest.fixture(scope="module")
def serial_session():
    """A serial run of the fig3+fig5+table2 plan with telemetry."""
    tel = Telemetry()
    runner = SuiteRunner(scale=SCALE, benchmarks=BENCHES, telemetry=tel)
    plan = runner.execute(["fig3", "fig5", "table2"])
    return runner, plan, tel


# ---------------------------------------------------------------------------
# RunSpec / keys
# ---------------------------------------------------------------------------


class TestRunSpec:
    def test_rejects_unknown_isa(self):
        with pytest.raises(ConfigError):
            RunSpec("compress", "vliw", MachineConfig())

    def test_equal_configs_share_identity(self):
        a = RunSpec("compress", "block", MachineConfig())
        b = RunSpec("compress", "block", MachineConfig())
        assert a == b and hash(a) == hash(b)

    def test_every_config_field_is_significant(self):
        """Full-fidelity keys: changing ANY MachineConfig field changes
        the spec identity and the cache key (the old memo ignored
        everything but icache size and perfect_bp)."""
        base = MachineConfig()
        for f in dataclasses.fields(MachineConfig):
            if f.name == "icache":
                changed = base.with_icache_kb(16)
            elif f.name == "dcache":
                changed = dataclasses.replace(base, dcache=None)
            elif f.name == "perfect_bp":
                changed = dataclasses.replace(base, perfect_bp=True)
            else:
                changed = dataclasses.replace(
                    base, **{f.name: getattr(base, f.name) + 1}
                )
            assert RunSpec("c", "block", changed) != RunSpec("c", "block", base)
            assert config_key(changed) != config_key(base)

    def test_run_key_distinguishes_isa_and_config(self):
        ckey = compile_key("compress", "src", Toolchain())
        conv = run_key(ckey, RunSpec("compress", "conventional"))
        block = run_key(ckey, RunSpec("compress", "block"))
        tweaked = run_key(
            ckey,
            RunSpec("compress", "block", MachineConfig(mispredict_penalty=9)),
        )
        assert len({conv, block, tweaked}) == 3

    def test_compile_key_covers_source_and_toolchain(self):
        toolchain = Toolchain()
        base = compile_key("compress", "int main() {}", toolchain)
        assert compile_key("compress", "int main() { }", toolchain) != base
        assert (
            compile_key("compress", "int main() {}", Toolchain(opt_level=0))
            != base
        )


# ---------------------------------------------------------------------------
# Memo-key regression (the bug the old SuiteRunner had)
# ---------------------------------------------------------------------------


class TestMemoKeyRegression:
    def test_mispredict_penalty_no_longer_collides(self):
        """Two configs differing only in mispredict_penalty used to share
        one memo slot (key = name/isa/icache_kb/perfect_bp) and return
        stale results; they must be distinct runs."""
        runner = SuiteRunner(scale=SCALE, benchmarks=["compress"])
        fast = runner.run("compress", "block", MachineConfig())
        slow = runner.run(
            "compress", "block", MachineConfig(mispredict_penalty=40)
        )
        assert fast is not slow
        assert slow.cycles > fast.cycles

    def test_fetch_lines_no_longer_collides(self):
        runner = SuiteRunner(scale=SCALE, benchmarks=["compress"])
        wide = runner.run("compress", "block", MachineConfig())
        narrow = runner.run(
            "compress", "block", MachineConfig(fetch_lines=1)
        )
        assert narrow is not wide

    def test_equal_configs_still_share_one_run(self):
        runner = SuiteRunner(scale=SCALE, benchmarks=["compress"])
        r1 = runner.run("compress", "conventional", MachineConfig())
        r2 = runner.run("compress", "conventional", MachineConfig())
        assert r1 is r2


# ---------------------------------------------------------------------------
# Construction: bad input fails before any work
# ---------------------------------------------------------------------------


class TestEngineInputValidation:
    @pytest.mark.parametrize("cls", [ExperimentEngine, SuiteRunner])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("scale", 0),
            ("scale", -1),
            ("scale", float("nan")),
            ("scale", "abc"),
            ("jobs", 0),
            ("jobs", -3),
            ("jobs", 1.5),
            ("jobs", "2"),
            ("jobs", True),
            ("kernel", "cuda"),
        ],
    )
    def test_rejected_before_any_work(self, cls, field, value):
        tel = Telemetry()
        with pytest.raises(ConfigError, match=field):
            cls(benchmarks=["compress"], telemetry=tel, **{field: value})
        assert len(tel.spans) == 0
        assert len(tel.metrics) == 0

    @pytest.mark.parametrize("cls", [ExperimentEngine, SuiteRunner])
    def test_numpy_kernel_rejected_without_numpy(self, cls, monkeypatch):
        """kernel="numpy" where numpy is not importable fails up front,
        not at the first cold replay after a compile and a capture."""
        from repro.sim import vector

        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        tel = Telemetry()
        with pytest.raises(ConfigError, match="kernel 'numpy'"):
            cls(benchmarks=["compress"], telemetry=tel, kernel="numpy")
        assert len(tel.spans) == 0
        assert len(tel.metrics) == 0

    def test_bad_kernel_rejected_with_a_warm_cache(self, tmp_path):
        """The kernel is checked up front, not at the first cold replay
        (which a warm cache never reaches)."""
        cache = ArtifactCache(tmp_path / "cache")
        spec = RunSpec("compress", "block", MachineConfig())
        ExperimentEngine(scale=SCALE, cache=cache).run(spec)
        with pytest.raises(ConfigError, match="kernel"):
            ExperimentEngine(scale=SCALE, cache=cache, kernel="cuda")

    def test_valid_input_kept(self):
        engine = ExperimentEngine(scale=1, jobs=2, kernel="python")
        assert (engine.scale, engine.jobs, engine.kernel) == (
            1.0, 2, "python"
        )


# ---------------------------------------------------------------------------
# Planning / dedup
# ---------------------------------------------------------------------------


class TestPlanning:
    def test_plan_dedupes_overlapping_experiments(self):
        runner = SuiteRunner(scale=SCALE, benchmarks=BENCHES)
        plan = runner.plan(["fig3", "fig5", "table2"])
        # fig3: 2 benches x 2 isas; fig5 duplicates all of it; table2
        # duplicates the conventional half.
        assert plan.runs_total == 10
        assert plan.runs_deduped == 4
        assert plan.runs_saved == 6

    def test_full_suite_plan_unique_runs(self):
        runner = SuiteRunner(scale=SCALE, benchmarks=BENCHES)
        plan = runner.plan(list(ALL_EXPERIMENTS))
        # Per benchmark+isa: default(64KB), perfect-bp, perfect-icache,
        # 16KB, 32KB = 5 unique configs (the 64KB sweep point IS the
        # default config).
        assert plan.runs_deduped == len(BENCHES) * 2 * 5
        assert plan.runs_total > plan.runs_deduped
        assert set(plan.benchmarks()) == set(BENCHES)

    def test_declarations_match_execution(self):
        """EXPERIMENT_RUNS is a truthful contract: each builder performs
        exactly the runs its declaration names."""
        for name, fn in ALL_EXPERIMENTS.items():
            runner = SuiteRunner(scale=SCALE, benchmarks=["compress"])
            declared = frozenset(EXPERIMENT_RUNS[name](["compress"]))
            fn(runner)
            assert runner.engine.executed_specs == declared, name

    def test_execute_runs_each_unique_spec_once(self, serial_session):
        runner, plan, tel = serial_session
        assert tel.metrics.get("plan.runs_total") == plan.runs_total
        assert tel.metrics.get("plan.runs_deduped") == plan.runs_deduped
        # one plan.run span per unique spec, not per declared run
        runs = [s for s in tel.spans.records if s.name == "plan.run"]
        assert len(runs) == plan.runs_deduped

    def test_experiments_after_execute_add_no_runs(self, serial_session):
        runner, plan, tel = serial_session
        before = len([s for s in tel.spans.records if s.name == "plan.run"])
        ALL_EXPERIMENTS["fig3"](runner)
        ALL_EXPERIMENTS["fig5"](runner)
        after = len([s for s in tel.spans.records if s.name == "plan.run"])
        assert after == before


# ---------------------------------------------------------------------------
# Parallel execution determinism
# ---------------------------------------------------------------------------


def _run_metric_entries(tel: Telemetry) -> list[dict]:
    out = []
    for entry in tel.metrics.snapshot():
        if entry["name"].startswith(RUN_METRIC_PREFIXES):
            out.append(entry)
    return out


class TestParallelExecution:
    def test_parallel_results_bit_identical_to_serial(self, serial_session):
        serial_runner, plan, serial_tel = serial_session
        tel = Telemetry()
        parallel = SuiteRunner(
            scale=SCALE, benchmarks=BENCHES, telemetry=tel, jobs=2
        )
        parallel.execute(["fig3", "fig5", "table2"])
        for spec in plan.runs:
            a = serial_runner.engine.run(spec)
            b = parallel.engine.run(spec)
            assert dataclasses.asdict(a) == dataclasses.asdict(b), spec

    def test_parallel_merged_counters_equal_serial(self, serial_session):
        _, _, serial_tel = serial_session
        tel = Telemetry()
        parallel = SuiteRunner(
            scale=SCALE, benchmarks=BENCHES, telemetry=tel, jobs=2
        )
        parallel.execute(["fig3", "fig5", "table2"])
        assert _run_metric_entries(tel) == _run_metric_entries(serial_tel)

    def test_three_program_merge_matches_serial_registry(self):
        """Every merged series of a three-program pooled plan equals the
        serial registry's: counters, gauges, histogram counts, buckets,
        min and max exactly. A histogram's float sum (and so its mean)
        may differ in the last place, because float addition is not
        associative and a worker sums its own program's values first."""
        benches = ["compress", "gcc", "go"]
        experiments = ["fig3", "fig4", "fig6", "fig7", "table2"]
        registries = []
        for jobs in (1, 2):
            tel = Telemetry()
            runner = SuiteRunner(
                scale=SCALE, benchmarks=benches, telemetry=tel, jobs=jobs
            )
            runner.execute(experiments)
            assert (runner.engine._traces == {}) == (jobs == 2)
            registries.append(
                {
                    (e["name"], tuple(sorted(e["labels"].items()))): e
                    for e in tel.metrics.snapshot()
                }
            )
        serial, pooled = registries
        assert serial.keys() == pooled.keys()
        for key, entry in serial.items():
            got, want = dict(pooled[key]), dict(entry)
            if want["kind"] == "histogram":
                for field in ("sum", "mean"):
                    assert math.isclose(
                        got.pop(field), want.pop(field), rel_tol=1e-12
                    ), (key, field)
            assert got == want, key

    def test_parallel_merges_worker_spans(self):
        tel = Telemetry()
        runner = SuiteRunner(
            scale=SCALE, benchmarks=BENCHES, telemetry=tel, jobs=2
        )
        runner.execute(["fig3"])
        # the workers compiled and captured: no trace reached the parent
        assert runner.engine._traces == {}
        names = [s.name for s in tel.spans.records]
        assert names.count("suite.compile") == 2
        assert names.count("sim.capture") == 4
        assert names.count("plan.run") == 4
        assert names.count("sim.simulate") == 4

    def test_jobs_one_never_spawns(self, monkeypatch):
        import repro.engine.core as core

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("serial path must not use the pool")

        monkeypatch.setattr(core, "ProcessPoolExecutor", boom)
        monkeypatch.setattr(core, "_pooled_program", boom)
        runner = SuiteRunner(scale=SCALE, benchmarks=BENCHES, jobs=1)
        runner.execute(["table2"])
        assert len(runner.engine._traces) == 2


# ---------------------------------------------------------------------------
# Trace groups inside one pool work unit per program
# ---------------------------------------------------------------------------


class TestTraceGroupedDistribution:
    def test_effective_single_worker_runs_in_process(self, monkeypatch):
        """jobs=2 with one program: fig6+fig7 on compress is two trace
        groups of one program, so no pool may be created — spawning a
        ProcessPoolExecutor just to feed one worker only adds fork
        latency — and the results match a serial run's."""
        import repro.engine.core as core

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("a single program must not spawn")

        monkeypatch.setattr(core, "ProcessPoolExecutor", boom)
        tel = Telemetry()
        parallel = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], jobs=2, telemetry=tel
        )
        plan = parallel.execute(["fig6", "fig7"])
        serial = SuiteRunner(scale=SCALE, benchmarks=["compress"])
        serial.execute(["fig6", "fig7"])
        for spec in plan.runs:
            assert dataclasses.asdict(parallel.engine.run(spec)) == (
                dataclasses.asdict(serial.engine.run(spec))
            ), spec
        assert tel.metrics.get("plan.sweep_groups") == 2
        assert len(parallel.engine._traces) == 2

    def test_pool_grouped_results_and_counters_match_serial(self):
        """fig6+fig7 on two benchmarks: two programs, each four
        (trace, config-group) replays, across a 2-process pool. Results
        stay bit-identical to a serial run and the sweep telemetry
        lands on both paths."""
        tel = Telemetry()
        runner = SuiteRunner(
            scale=SCALE, benchmarks=BENCHES, telemetry=tel, jobs=2
        )
        plan = runner.execute(["fig6", "fig7"])
        assert runner.engine._traces == {}  # the pool ran
        serial_tel = Telemetry()
        serial = SuiteRunner(
            scale=SCALE, benchmarks=BENCHES, telemetry=serial_tel
        )
        serial.execute(["fig6", "fig7"])
        for spec in plan.runs:
            assert dataclasses.asdict(runner.engine.run(spec)) == (
                dataclasses.asdict(serial.engine.run(spec))
            ), spec
        for t in (tel, serial_tel):
            assert t.metrics.get("plan.sweep_groups") == 4
            assert t.metrics.get("plan.trace_reuse") == 12
            assert t.metrics.get("sweep.configs_batched") == 16

    def test_builders_after_pooled_execute_add_no_work(self):
        """Every builder reads only planned specs, so after a pooled
        execute none of them compiles, captures or replays in the
        parent."""
        tel = Telemetry()
        runner = SuiteRunner(
            scale=SCALE, benchmarks=BENCHES, telemetry=tel, jobs=2
        )
        runner.execute(list(ALL_EXPERIMENTS))
        work = ("suite.compile", "sim.capture", "sim.derive", "plan.run")

        def counts():
            totals = tel.spans.totals()
            return {n: totals.get(n, {}).get("count", 0) for n in work}

        before = counts()
        assert before["plan.run"] == len(BENCHES) * 2 * 5
        for build in ALL_EXPERIMENTS.values():
            build(runner)
        assert counts() == before
        assert runner.engine._pairs == {} and runner.engine._traces == {}

    def test_pooled_cache_counts_match_serial(self, tmp_path):
        """Cold then warm pooled executes on one cache root leave the
        same ArtifactCache hit and miss counts as serial executes on a
        separate root."""
        plan = SuiteRunner(scale=SCALE, benchmarks=BENCHES).plan(
            ["fig3", "fig4", "fig6"]
        )
        counts = {}
        for jobs in (1, 2):
            cache = ArtifactCache(tmp_path / f"jobs{jobs}")
            for _ in ("cold", "warm"):
                engine = ExperimentEngine(scale=SCALE, cache=cache, jobs=jobs)
                engine.execute(plan)
            counts[jobs] = (cache.hits, cache.misses)
        assert counts[1] == counts[2]
        assert counts[2][0] > 0 and counts[2][1] > 0

    def test_pooled_compile_capture_counts_match_serial(self, tmp_path):
        """A pooled plan's merged compile, capture and derivation spans
        and its compile/trace cache counters equal the serial
        registry's."""
        plan = SuiteRunner(scale=SCALE, benchmarks=BENCHES).plan(
            ["fig3", "fig4", "fig6"]
        )
        seen = {}
        for jobs in (1, 2):
            tel = Telemetry()
            engine = ExperimentEngine(
                scale=SCALE, cache=ArtifactCache(tmp_path / f"jobs{jobs}"),
                jobs=jobs, telemetry=tel,
            )
            engine.execute(plan)
            totals = tel.spans.totals()
            seen[jobs] = (
                {
                    name: totals[name]["count"]
                    for name in ("suite.compile", "sim.capture", "sim.derive")
                },
                {
                    (outcome, kind): tel.metrics.get(outcome, kind=kind)
                    for outcome in ("plan.cache_hits", "plan.cache_misses")
                    for kind in ("compile", "trace")
                },
            )
        assert seen[1] == seen[2]
        spans, cache_counters = seen[2]
        assert spans == {"suite.compile": 2, "sim.capture": 4, "sim.derive": 4}
        assert cache_counters[("plan.cache_misses", "compile")] == 2


class TestOneReplayPath:
    def test_single_run_serial_and_pool_plans_agree(self):
        """A single run of a fresh spec, a serial plan and a jobs=2 plan
        replay through the same function: asdict-equal results and
        equal InsightReports. The single run is a one-spec trace group,
        counted like any other."""
        specs = EXPERIMENT_RUNS["fig3"](BENCHES)
        plan = build_plan([("fig3", specs)], scale=SCALE)

        def engine(jobs, tel=None):
            return ExperimentEngine(
                scale=SCALE, benchmarks=BENCHES, jobs=jobs,
                insight=True, telemetry=tel,
            )

        serial = engine(1)
        serial.execute(plan)
        pool = engine(2)
        pool.execute(plan)
        assert pool._traces == {} and len(serial._traces) == 4
        for spec in plan.runs:
            tel = Telemetry()
            single = engine(1, tel)
            want = dataclasses.asdict(single.run(spec))
            assert tel.metrics.get("plan.sweep_groups") == 1
            assert tel.metrics.get("sweep.configs_batched") == 1
            assert dataclasses.asdict(serial.run(spec)) == want, spec
            assert dataclasses.asdict(pool.run(spec)) == want, spec
            report = single.insights[spec]
            assert serial.insights[spec] == report, spec
            assert pool.insights[spec] == report, spec


# ---------------------------------------------------------------------------
# Programs carried as source
# ---------------------------------------------------------------------------


def _summing(n: int) -> str:
    """A tiny MiniC program that prints the sum of ``0..n-1``."""
    return (
        "void main() { int i; int s = 0;\n"
        f"for (i = 0; i < {n}; i = i + 1) {{ s = s + i; }}\n"
        "print_int(s); }\n"
    )


class TestSourceCarryingSpecs:
    def test_programs_under_one_name_never_share_an_entry(self):
        tel = Telemetry()
        engine = ExperimentEngine(scale=SCALE, telemetry=tel)
        first, second = (
            RunSpec("prog", "conventional", source=_summing(n))
            for n in (10, 20)
        )
        assert first != second and first.labels() == second.labels()
        assert "source" not in repr(first)

        def counts():
            return (
                tel.spans.totals()["suite.compile"]["count"],
                tel.metrics.get("plan.trace_captures"),
            )

        results = [engine.run(first), engine.run(second)]
        assert counts() == (2, 2)
        for spec, result in zip((first, second), results):
            alone = ExperimentEngine(scale=SCALE).run(spec)
            assert dataclasses.asdict(result) == dataclasses.asdict(alone)
        assert results[0].outputs != results[1].outputs
        # the same source again: no compile, and one capture only for
        # the ISA not yet run
        again = RunSpec(
            "prog", "conventional", MachineConfig().with_icache_kb(16),
            source=_summing(10),
        )
        engine.run(again)
        assert counts() == (2, 2)
        engine.run(dataclasses.replace(again, isa="block"))
        assert counts() == (2, 3)
        assert engine.compiled("prog", _summing(10)) is engine.compiled(
            "prog", first.source
        )

    def test_registered_source_text_shares_every_disk_key(self, tmp_path):
        text = SUITE["compress"].source(SCALE)
        named = RunSpec("compress", "block")
        carried = RunSpec("compress", "block", source=text)
        engine = ExperimentEngine(
            scale=SCALE, benchmarks=["compress"],
            cache=ArtifactCache(tmp_path),
        )
        assert engine._compile_key("compress", text) == compile_key(
            "compress", text, Toolchain()
        ) == engine._compile_key("compress")
        for kind in ("trace", "run", "insight"):
            assert engine._key(kind, carried) == engine._key(kind, named)
        want = engine.run(named)
        # a fresh session over the same cache: the carried spec's run
        # and a sibling config's trace are both served from disk
        tel = Telemetry()
        again = ExperimentEngine(
            scale=SCALE, telemetry=tel, cache=ArtifactCache(tmp_path)
        )
        got = again.run(carried)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        again.run(dataclasses.replace(
            carried, config=MachineConfig().with_icache_kb(16)
        ))
        assert tel.metrics.get("plan.cache_hits", kind="run") == 1
        assert tel.metrics.get("plan.cache_hits", kind="trace") == 1
        assert tel.metrics.get("plan.trace_captures") is None
        assert "suite.compile" not in tel.spans.totals()


# ---------------------------------------------------------------------------
# Compile options carried by the spec
# ---------------------------------------------------------------------------

#: a non-default toolchain whose block image differs from the paper's
SMALL_BLOCKS = Toolchain(enlarge=EnlargeConfig(max_ops=8))
#: span name prefixes of every compiler layer
COMPILE_SPANS = ("compile", "frontend.", "opt.", "backend.")


class TestToolchainCarryingSpecs:
    def test_toolchain_and_options_are_frozen_hashable_data(self):
        assert [f.name for f in dataclasses.fields(Toolchain)] == [
            "opt_level", "enlarge", "inline", "if_convert",
        ]
        for value in (
            Toolchain(), EnlargeConfig(), InlineConfig(), IfConvertConfig()
        ):
            assert hash(value) == hash(dataclasses.replace(value))
            name = dataclasses.fields(value)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))
        assert Toolchain(enlarge=EnlargeConfig()) == Toolchain()
        spec = RunSpec("compress", "block", toolchain=SMALL_BLOCKS)
        assert spec != RunSpec("compress", "block")
        assert spec.labels() == RunSpec("compress", "block").labels()

    def test_toolchain_keys_equal_the_pinned_keys(self):
        guided = Toolchain(enlarge=EnlargeConfig(min_bias=0.75))
        assert compile_key("compress", SOURCE, Toolchain()) == (
            DEFAULT_COMPILE_KEY
        )
        assert compile_key("compress", SOURCE, guided) == GUIDED_COMPILE_KEY

    def test_one_engine_keeps_one_program_per_toolchain(self, tmp_path):
        engine = ExperimentEngine(scale=SCALE, cache=ArtifactCache(tmp_path))
        specs = [
            RunSpec("compress", "block", toolchain=toolchain)
            for toolchain in (Toolchain(), SMALL_BLOCKS)
        ]
        results = [engine.run(spec) for spec in specs]
        assert len(engine._pairs) == 2
        assert len(engine._compile_keys) == 2
        assert len(engine._traces) == 2
        assert results[0].cycles != results[1].cycles
        for spec, result in zip(specs, results):
            alone = ExperimentEngine(scale=SCALE).run(spec)
            assert dataclasses.asdict(result) == dataclasses.asdict(alone)

    def test_two_toolchain_plan_pools_like_serial(self, tmp_path):
        """One benchmark under two toolchains is two programs, so
        ``jobs=2`` starts a pool; results, compile and capture spans and
        cache counters equal a serial engine's."""
        import repro.engine.core as core

        plan = build_plan(
            [(
                "toolchains",
                [
                    RunSpec("compress", isa, toolchain=toolchain)
                    for toolchain in (Toolchain(), SMALL_BLOCKS)
                    for isa in ISAS
                ],
            )],
            scale=SCALE,
        )
        assert len(core._partition(plan.runs, core._program)) == 2
        seen = {}
        for jobs in (1, 2):
            tel = Telemetry()
            engine = ExperimentEngine(
                scale=SCALE, cache=ArtifactCache(tmp_path / f"jobs{jobs}"),
                jobs=jobs, telemetry=tel,
            )
            results = engine.execute(plan)
            # the workers captured: no trace reached the parent
            assert (engine._traces == {}) == (jobs == 2)
            totals = tel.spans.totals()
            seen[jobs] = (
                {s: dataclasses.asdict(r) for s, r in results.items()},
                {
                    name: totals[name]["count"]
                    for name in ("suite.compile", "sim.capture")
                },
                {
                    (outcome, kind): tel.metrics.get(outcome, kind=kind)
                    for outcome in ("plan.cache_hits", "plan.cache_misses")
                    for kind in ("run", "compile", "trace")
                },
            )
        assert seen[1] == seen[2]
        assert seen[2][1] == {"suite.compile": 2, "sim.capture": 4}

    def test_compile_spans_land_in_the_engine_session(self):
        """A non-default toolchain compiles into the engine's own
        session: every compiler-layer span a direct compile records is
        there, and the process-wide session records nothing."""
        reference = Telemetry()
        SMALL_BLOCKS.compile(
            SUITE["compress"].source(SCALE), "compress", reference
        )
        layers = {
            name for name in reference.spans.totals()
            if name.startswith(COMPILE_SPANS)
        }
        assert {"compile", "frontend.parse", "backend.enlarge"} <= layers
        own = Telemetry()
        with use_telemetry() as ambient:
            ExperimentEngine(scale=SCALE, telemetry=own).run(
                RunSpec("compress", "block", toolchain=SMALL_BLOCKS)
            )
        assert layers | {"suite.compile"} <= set(own.spans.totals())
        assert ambient.spans.totals() == {}


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_second_session_zero_recompiles(self, tmp_path):
        cache1 = ArtifactCache(tmp_path)
        first = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], cache=cache1
        )
        plan = first.execute(["fig3"])
        assert cache1.misses > 0 and cache1.hits == 0

        tel = Telemetry()
        cache2 = ArtifactCache(tmp_path)
        second = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], telemetry=tel, cache=cache2
        )
        second.execute(["fig3"])
        assert cache2.misses == 0
        assert tel.metrics.get("plan.cache_hits", kind="run") == plan.runs_deduped
        # no compile at all: neither a compile span nor a compile miss
        assert not any(
            s.name in ("suite.compile", "compile") for s in tel.spans.records
        )

    def test_cached_results_equal_fresh(self, tmp_path):
        fresh = SuiteRunner(scale=SCALE, benchmarks=["compress"])
        a = fresh.run("compress", "block", MachineConfig())

        warm = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], cache=ArtifactCache(tmp_path)
        )
        warm.run("compress", "block", MachineConfig())
        cached = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], cache=ArtifactCache(tmp_path)
        )
        b = cached.run("compress", "block", MachineConfig())
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_config_change_misses_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        runner = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], cache=cache
        )
        runner.run("compress", "block", MachineConfig())
        stats = cache.stats()
        again = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], cache=ArtifactCache(tmp_path)
        )
        again.run(
            "compress", "block", MachineConfig(mispredict_penalty=40)
        )
        # the compile is reused, the run is a new artifact
        assert ArtifactCache(tmp_path).stats()["entries"] == stats["entries"] + 1

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("ab" * 32, {"ok": True})
        path = cache._path("ab" * 32)
        path.write_bytes(b"not a pickle")
        assert cache.load("ab" * 32) is None
        assert not path.exists()  # dropped, not retried forever

    def test_stats_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.stats()["entries"] == 0
        cache.store("cd" * 32, [1, 2, 3])
        assert cache.stats()["entries"] == 1
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_profile_guided_compile_is_cached(self, tmp_path):
        """A guided compile depends only on its source and options: its
        key covers ``min_bias``, and a second session is served its
        compile and its run from disk."""
        guided = Toolchain(enlarge=EnlargeConfig(min_bias=0.9))
        assert compile_key("compress", "x", guided) != compile_key(
            "compress", "x", Toolchain()
        )
        run = RunSpec("compress", "block", toolchain=guided)

        def session(tel=None) -> ExperimentEngine:
            return ExperimentEngine(
                scale=SCALE, telemetry=tel, cache=ArtifactCache(tmp_path)
            )

        first = session().run(run)
        tel = Telemetry()
        engine = session(tel)
        assert dataclasses.asdict(engine.run(run)) == dataclasses.asdict(
            first
        )
        engine.compiled("compress", toolchain=guided)
        assert tel.metrics.get("plan.cache_hits", kind="run") == 1
        assert tel.metrics.get("plan.cache_hits", kind="compile") == 1
        assert not [s for s in tel.spans.records if s.name == "compile"]


# ---------------------------------------------------------------------------
# Pickle safety (what the process pool and the disk cache rely on)
# ---------------------------------------------------------------------------


class TestPickleSafety:
    def test_compiled_pair_and_result_roundtrip(self):
        toolchain = Toolchain()
        pair = toolchain.compile(SUITE["compress"].source(SCALE), "compress")
        thawed = pickle.loads(pickle.dumps(pair))
        assert thawed.block.num_blocks == pair.block.num_blocks
        assert thawed.conventional.code_bytes == pair.conventional.code_bytes

        config = MachineConfig()
        direct = replay_captured(
            capture_run(pair.block, "block", config), config
        )
        revived = replay_captured(
            capture_run(thawed.block, "block", config), config
        )
        assert dataclasses.asdict(
            pickle.loads(pickle.dumps(direct))
        ) == dataclasses.asdict(revived)


# ---------------------------------------------------------------------------
# obs merge support
# ---------------------------------------------------------------------------


class TestTelemetryMerge:
    def test_counter_gauge_histogram_merge(self):
        a, b = Telemetry(), Telemetry()
        a.metrics.inc("n", 2, isa="block")
        b.metrics.inc("n", 3, isa="block")
        a.metrics.gauge("g", 1.0, isa="block")
        b.metrics.gauge("g", 7.0, isa="block")
        for v in (1.0, 5.0):
            a.metrics.observe("h", v)
        for v in (100.0, 9.0):
            b.metrics.observe("h", v)
        a.merge_snapshot(b.worker_snapshot())
        assert a.metrics.get("n", isa="block") == 5
        assert a.metrics.get("g", isa="block") == 7.0
        (h,) = a.metrics.series("h")
        assert h.count == 4 and h.total == 115.0
        assert h.vmin == 1.0 and h.vmax == 100.0
        assert sum(h.buckets) == 4

    def test_merge_kind_conflict_raises(self):
        a, b = Telemetry(), Telemetry()
        a.metrics.inc("x")
        b.metrics.gauge("x", 1.0)
        with pytest.raises(TelemetryError):
            a.merge_snapshot(b.worker_snapshot())

    def test_span_and_trace_merge(self):
        a, b = Telemetry(), Telemetry()
        with b.span("sim.simulate", benchmark="compress"):
            pass
        b.trace.emit("fetch", 1, addr=4096)
        b.trace.emit("retire", 2)
        a.merge_snapshot(b.worker_snapshot())
        assert [s.name for s in a.spans.records] == ["sim.simulate"]
        events = a.trace.events()
        assert [e["event"] for e in events] == ["fetch", "retire"]
        assert [e["seq"] for e in events] == [1, 2]
        assert events[0]["addr"] == 4096

    def test_trace_merge_carries_dropped_accounting(self):
        from repro.obs.events import EventTrace

        small = EventTrace(capacity=2)
        for i in range(5):
            small.emit("fetch", i)
        parent = Telemetry(trace_capacity=16)
        parent.trace.merge(small.events(), emitted=small.emitted)
        assert parent.trace.dropped == 3

    def test_disabled_session_ignores_merge(self):
        disabled = Telemetry(enabled=False)
        live = Telemetry()
        live.metrics.inc("n")
        disabled.merge_snapshot(live.worker_snapshot())
        assert len(disabled.metrics) == 0


# ---------------------------------------------------------------------------
# Comparison.speedup guard (satellite)
# ---------------------------------------------------------------------------


def _zero_cycle_result(isa: str) -> SimResult:
    return SimResult(
        name="empty",
        isa=isa,
        cycles=0,
        committed_ops=0,
        committed_units=0,
        avg_block_size=0.0,
        mispredicts=0,
        branch_events=0,
        bp_accuracy=1.0,
        timing=TimingStats(),
    )


def test_speedup_guard_zero_block_cycles():
    comparison = Comparison(
        conventional=_zero_cycle_result("conventional"),
        block=_zero_cycle_result("block"),
    )
    assert comparison.speedup == 0.0
    assert comparison.reduction_pct == 0.0
