"""``bsisa`` command-line interface.

::

    bsisa list                          # workloads and experiments
    bsisa run fig3 [--scale 0.5]        # regenerate one figure/table
    bsisa run all --jobs 4              # deduped plan, process-parallel
    bsisa run all --metrics-json out.json
    bsisa run all --no-cache            # bypass the artifact cache
    bsisa cache stats                   # on-disk artifact cache contents
    bsisa cache clear
    bsisa compile compress --isa block --dump   # inspect generated code
    bsisa simulate compress [--perfect-bp] [--icache-kb 16]
    bsisa simulate gcc --metrics-json out.json  # unified telemetry artifact
    bsisa metrics compress              # print the metric series of a run
    bsisa metrics compress --trace-cache    # include conventional+tc run
    bsisa perf --benchmarks compress gcc    # capture/replay/vector timings
    bsisa perf -o BENCH_sim.json        # schema-versioned perf artifact
    bsisa perf --compare BENCH_sim.json # speed deltas vs the committed baseline
    bsisa perf --kernel numpy           # force the vectorized replay kernel
    bsisa run all --kernel python       # force the scalar Python replayer
    bsisa analyze --benchmark compress  # CPI stack + fetch-rate histogram
    bsisa analyze -o INSIGHT.json       # repro.insight/v1 artifact
    bsisa timeline compress --limit 40  # per-cycle occupancy from the trace
    bsisa trace compress --limit 20     # JSONL pipeline events
    bsisa trace compress --kind fetch --kind retire  # filter event kinds
    bsisa fuzz --budget 200 --seed 7    # cosimulation-oracle fuzzing
    bsisa fuzz --switch-arms 8 --struct-depth 3 # v2 generator knobs
    bsisa fuzz --replay corpus/fail-0-4.minic   # re-run a saved failure
    bsisa explore prog.minic            # source -> IR -> both ISA encodings
    bsisa explore prog.minic --function main --opt-level 0
    bsisa scenarios list --realized     # families + measured axis values
    bsisa scenarios generate synthetic/bb8_bias90_fit16k -o fam.minic
    bsisa scenarios sweep -o SCENARIO.json   # crossover heatmap artifact
    bsisa scenarios sweep --bb 3 8 16 --bias 0.6 0.8 0.95 --hot-kb 4 16
    bsisa scenarios cosim               # oracle over every family
    bsisa verify-paper                  # paper-fidelity regression gate
    bsisa verify-paper -o BENCH_paper.json --write-experiments

Exit codes are a contract (tests/test_cli_exit_codes.py): 0 success,
1 operational failure (fuzz or scenario-cosim oracle violation, perf
stats mismatch or >20% perf regression under ``--compare``, broken
cycle accounting), 2 usage error (argparse, unknown name or family,
out-of-range generator/axis knobs, unknown ``--kind``,
``--kernel numpy`` without numpy installed), 3 paper-claim failure
from ``verify-paper``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.backend import EnlargeConfig
from repro.core.toolchain import Toolchain
from repro.engine import ArtifactCache, ExperimentEngine, RunSpec
from repro.errors import ConfigError
from repro.harness.experiments import ALL_EXPERIMENTS, SuiteRunner
from repro.obs import Telemetry
from repro.sim.config import MachineConfig
from repro.workloads import (
    EXTRA,
    SUITE,
    get_workload,
    parse_scale,
    workload_names,
)

#: Names accepted by the single-workload commands (compile, simulate,
#: metrics, timeline, trace): the paper suite, the EXTRA registry, and
#: the registered scenario families (docs/scenarios.md).
ALL_WORKLOADS = workload_names()

#: The CLI's exit-code contract.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CLAIMS = 3

#: Scale ``verify-paper`` evaluates at unless ``--scale`` overrides it —
#: the benchmark suite's default (benchmarks/conftest.py), so the gate
#: checks exactly what ``pytest benchmarks/`` measures.
DEFAULT_VERIFY_SCALE = 0.35


def default_verify_scale() -> float:
    """``$REPRO_BENCH_SCALE`` or :data:`DEFAULT_VERIFY_SCALE`; raises
    :class:`ConfigError` for a value that is not a positive finite
    number."""
    return parse_scale(
        os.environ.get("REPRO_BENCH_SCALE", str(DEFAULT_VERIFY_SCALE)),
        "REPRO_BENCH_SCALE",
    )


def _scale_arg(text: str) -> float:
    """argparse type of every ``--scale``: a positive finite float."""
    try:
        return parse_scale(text, "scale")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_jobs(raw: str, what: str) -> int:
    """*raw* as a worker count: an integer of at least 1, else a
    :class:`ConfigError` naming *what*."""
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError(f"{what} must be an integer >= 1, got {raw!r}")
    return jobs


def _jobs_arg(text: str) -> int:
    """argparse type of every ``--jobs``: an integer of at least 1."""
    try:
        return parse_jobs(text, "jobs")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _kernel_usage_error(args) -> bool:
    """True (after printing why) when ``--kernel numpy`` cannot run."""
    from repro.sim import vector

    if getattr(args, "kernel", "auto") == "numpy" and not vector.HAVE_NUMPY:
        print(
            "--kernel numpy: numpy is not importable in this environment; "
            "install numpy or use --kernel python (the two kernels are "
            "bit-identical)",
            file=sys.stderr,
        )
        return True
    return False


def _cmd_list(_args) -> int:
    from repro.scenario.families import FAMILIES

    print("workloads:")
    for name, workload in SUITE.items():
        print(f"  {name:10s} {workload.description}")
    print("extra workloads (not part of Table 2):")
    for name, workload in EXTRA.items():
        print(f"  {name:10s} {workload.description}")
    print("scenario families (bsisa scenarios, docs/scenarios.md):")
    for name in sorted(FAMILIES):
        spec = FAMILIES[name]
        print(
            f"  {name}  (targets: bb {spec.bb_size} ops, "
            f"bias {spec.bias:.2f}, hot {spec.hot_bytes} B)"
        )
    print("experiments:")
    for name, fn in ALL_EXPERIMENTS.items():
        print(f"  {name:10s} {(fn.__doc__ or '').strip().splitlines()[0]}")
    return 0


def _make_telemetry(args) -> Telemetry | None:
    """An enabled session iff the invocation asked for telemetry output."""
    if getattr(args, "metrics_json", None):
        return Telemetry()
    return None


def _write_artifact(tel: Telemetry, path: str, meta: dict) -> int:
    """Write the telemetry artifact; a clean error beats a traceback
    after a minutes-long run."""
    try:
        tel.write_json(path, meta=meta)
    except OSError as exc:
        print(f"cannot write telemetry to {path}: {exc}", file=sys.stderr)
        return 1
    print(f"telemetry written to {path}", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    names = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if _kernel_usage_error(args):
        return EXIT_USAGE
    tel = _make_telemetry(args)
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    runner = SuiteRunner(
        scale=args.scale,
        telemetry=tel,
        jobs=args.jobs,
        cache=cache,
        insight=bool(args.insight),
        kernel=args.kernel,
    )
    plan = runner.execute(names)
    for name in names:
        result = ALL_EXPERIMENTS[name](runner)
        print(result.render())
        print()
    cache_note = (
        f"cache hits {cache.hits}, misses {cache.misses}"
        if cache is not None
        else "cache disabled"
    )
    print(
        f"plan: {plan.runs_total} declared runs -> {plan.runs_deduped} "
        f"unique ({plan.runs_saved} deduplicated); {cache_note}; "
        f"jobs {args.jobs}",
        file=sys.stderr,
    )
    if args.insight:
        from repro.insight import build_document, write_document

        doc = build_document(
            list(runner.insights.values()),
            meta={
                "command": "run",
                "experiments": names,
                "scale": runner.scale,
            },
        )
        try:
            write_document(doc, args.insight)
        except OSError as exc:
            print(f"cannot write {args.insight}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        print(
            f"insight artifact ({len(doc['reports'])} reports) written "
            f"to {args.insight}",
            file=sys.stderr,
        )
    if tel is not None:
        return _write_artifact(
            tel,
            args.metrics_json,
            {"command": "run", "experiments": names, "scale": runner.scale},
        )
    return 0


def _cmd_verify_paper(args) -> int:
    """Evaluate the paper-fidelity claim registry and gate on it."""
    from repro import fidelity

    benchmarks = args.benchmarks or None
    if benchmarks:
        unknown = [b for b in benchmarks if b not in SUITE]
        if unknown:
            print(
                f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr
            )
            return EXIT_USAGE
    try:
        scale = (
            args.scale if args.scale is not None else default_verify_scale()
        )
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    tel = _make_telemetry(args)
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    runner = SuiteRunner(
        scale=scale,
        benchmarks=benchmarks,
        telemetry=tel,
        jobs=args.jobs,
        cache=cache,
    )
    runner.execute(list(ALL_EXPERIMENTS))
    results = {name: fn(runner) for name, fn in ALL_EXPERIMENTS.items()}
    report = fidelity.evaluate_registry(results, telemetry=tel)
    print(fidelity.render_report(report))
    doc = fidelity.build_document(
        report,
        meta={
            "command": "verify-paper",
            "scale": scale,
            "benchmarks": runner.benchmarks,
        },
    )
    rc = EXIT_OK if report.ok else EXIT_CLAIMS
    if args.output:
        try:
            fidelity.write_document(doc, args.output)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        print(f"fidelity artifact written to {args.output}", file=sys.stderr)
    if args.write_experiments:
        try:
            fidelity.update_experiments(doc, args.experiments_path)
        except OSError as exc:
            print(
                f"cannot rewrite {args.experiments_path}: {exc}",
                file=sys.stderr,
            )
            return EXIT_FAILURE
        print(
            f"generated block of {args.experiments_path} rewritten",
            file=sys.stderr,
        )
    if not report.ok:
        print(
            f"verify-paper: {report.failed} claim(s) FAILED "
            f"({report.shape_failed} shape, {report.numeric_failed} "
            f"numeric)",
            file=sys.stderr,
        )
    if tel is not None:
        artifact_rc = _write_artifact(
            tel,
            args.metrics_json,
            {"command": "verify-paper", "scale": scale},
        )
        rc = rc or artifact_rc
    return rc


def _cmd_cache(args) -> int:
    cache = ArtifactCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} artifacts from {cache.root}")
        return 0
    stats = cache.stats()
    print(
        f"{stats['root']}: {stats['entries']} artifacts, "
        f"{stats['bytes']:,d} bytes"
    )
    return 0


def _cmd_compile(args) -> int:
    pair = ExperimentEngine(scale=args.scale).compiled(args.workload)
    conv, block = pair.conventional, pair.block
    print(
        f"{args.workload}: conventional {len(conv.ops)} ops "
        f"({conv.code_bytes} bytes); block-structured {block.num_blocks} "
        f"atomic blocks, {block.code_bytes} bytes "
        f"(expansion {pair.code_expansion:.2f}x, static avg block "
        f"{block.static_block_size_avg():.1f} ops)"
    )
    if args.dump:
        prog = block if args.isa == "block" else conv
        print(prog.disassemble())
    return 0


def _simulate_pair(args, tel: Telemetry | None):
    """Shared engine path for simulate/metrics/trace: both ISAs' runs of
    one workload, and under ``--trace-cache`` its conventional capture
    replayed again behind a trace cache."""
    # paper §6: no duplication across traps less than 75% biased
    guided = getattr(args, "profile_guided", False)
    engine = ExperimentEngine(
        scale=args.scale,
        toolchain=Toolchain(
            enlarge=EnlargeConfig(min_bias=0.75) if guided else None,
            telemetry=tel,
        ),
        telemetry=tel,
    )
    config = MachineConfig(
        perfect_bp=getattr(args, "perfect_bp", False)
    ).with_icache_kb(getattr(args, "icache_kb", 64))
    conv_spec = RunSpec(args.workload, "conventional", config)
    conv = engine.run(conv_spec)
    block = engine.run(RunSpec(args.workload, "block", config))
    if getattr(args, "trace_cache", False):
        from repro.sim.tracecache import replay_with_trace_cache

        replay_with_trace_cache(
            engine.captured_run(conv_spec), config, telemetry=tel
        )
    return conv, block


def _cmd_simulate(args) -> int:
    tel = _make_telemetry(args)
    conv, block = _simulate_pair(args, tel)
    reduction = 100.0 * (conv.cycles - block.cycles) / conv.cycles
    for r in (conv, block):
        print(
            f"{r.isa:13s} cycles={r.cycles:10,d} ops={r.committed_ops:10,d} "
            f"IPC={r.ipc:5.2f} avg_block={r.avg_block_size:5.2f} "
            f"bp={r.bp_accuracy:.3f} icache_miss={r.timing.icache_misses}"
        )
    print(f"execution-time reduction: {reduction:+.1f}%")
    if tel is not None:
        return _write_artifact(
            tel,
            args.metrics_json,
            {
                "command": "simulate",
                "workload": args.workload,
                "scale": args.scale,
                "icache_kb": args.icache_kb,
                "perfect_bp": args.perfect_bp,
            },
        )
    return 0


def _cmd_metrics(args) -> int:
    """Run one workload with telemetry and print every metric series."""
    tel = Telemetry()
    _simulate_pair(args, tel)
    for series in tel.metrics.series():
        tags = ",".join(
            f"{k}={v}" for k, v in sorted(series.labels.items())
        )
        if series.kind == "histogram":
            print(
                f"{series.name}{{{tags}}} count={series.count} "
                f"mean={series.mean:.3f}"
            )
        else:
            value = series.value
            text = f"{value:.4f}" if isinstance(value, float) and value != int(value) else f"{int(value)}"
            print(f"{series.name}{{{tags}}} {text}")
    if args.json:
        return _write_artifact(
            tel,
            args.json,
            {
                "command": "metrics",
                "workload": args.workload,
                "scale": args.scale,
            },
        )
    return 0


def _cmd_perf(args) -> int:
    """Time capture vs. scalar vs. vector replay; write BENCH_sim.json."""
    import json

    from repro.harness.perf import (
        REGRESSION_THRESHOLD,
        benchmark_suite,
        compare_documents,
        render,
        write_document,
    )
    from repro.obs.schema import bench_document_errors

    unknown = [b for b in args.benchmarks if b not in SUITE]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    if _kernel_usage_error(args):
        return EXIT_USAGE
    baseline = None
    if args.compare:
        try:
            with open(args.compare, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(
                f"cannot read baseline {args.compare}: {exc}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        errors = bench_document_errors(baseline)
        if errors:
            print(
                f"baseline {args.compare} is not a valid perf artifact:",
                file=sys.stderr,
            )
            for err in errors:
                print(f"  {err}", file=sys.stderr)
            return EXIT_USAGE
    doc = benchmark_suite(args.benchmarks, args.scale, kernel=args.kernel)
    print(render(doc))
    if args.output:
        try:
            write_document(doc, args.output)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        print(f"perf artifact written to {args.output}", file=sys.stderr)
    rc = EXIT_OK if doc["totals"]["stats_match"] else EXIT_FAILURE
    if baseline is not None:
        text, regressions = compare_documents(doc, baseline)
        print()
        print(f"vs baseline {args.compare}:")
        print(text)
        if regressions:
            print(
                f"perf: {len(regressions)} regression(s) beyond "
                f"+{100.0 * REGRESSION_THRESHOLD:.0f}%:",
                file=sys.stderr,
            )
            for message in regressions:
                print(f"  {message}", file=sys.stderr)
            rc = rc or EXIT_FAILURE
    return rc


def _cmd_analyze(args) -> int:
    """CPI stack + fetch-rate histogram per benchmark × ISA."""
    from repro.check import check_invariants
    from repro.insight import build_document, render_report, write_document

    unknown = [b for b in args.benchmark if b not in SUITE]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    isas = (
        ("conventional", "block") if args.isa == "both" else (args.isa,)
    )
    tel = _make_telemetry(args)
    engine = ExperimentEngine(scale=args.scale, telemetry=tel, insight=True)
    config = MachineConfig(perfect_bp=args.perfect_bp).with_icache_kb(
        args.icache_kb
    )
    reports = []
    broken: list[str] = []
    for benchmark in args.benchmark:
        for isa in isas:
            spec = RunSpec(benchmark, isa, config)
            result = engine.run(spec)
            report = engine.insights[spec]
            violations = check_invariants(result, config, insight=report)
            for v in violations:
                broken.append(f"{benchmark}/{isa}: {v.invariant}: {v.detail}")
            reports.append(report)
            print(render_report(report))
            print()
    if args.output:
        doc = build_document(
            reports,
            meta={
                "command": "analyze",
                "benchmarks": list(args.benchmark),
                "scale": args.scale,
                "perfect_bp": args.perfect_bp,
                "icache_kb": args.icache_kb,
            },
        )
        try:
            write_document(doc, args.output)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
        print(
            f"insight artifact ({len(reports)} reports) written to "
            f"{args.output}",
            file=sys.stderr,
        )
    rc = EXIT_OK
    if broken:
        print(
            f"analyze: {len(broken)} invariant violation(s):", file=sys.stderr
        )
        for message in broken:
            print(f"  {message}", file=sys.stderr)
        rc = EXIT_FAILURE
    if tel is not None:
        artifact_rc = _write_artifact(
            tel,
            args.metrics_json,
            {
                "command": "analyze",
                "benchmarks": list(args.benchmark),
                "scale": args.scale,
            },
        )
        rc = rc or artifact_rc
    return rc


def _cmd_timeline(args) -> int:
    """Reconstruct per-cycle pipeline occupancy from the event trace."""
    from repro.insight import build_timeline, render_timeline

    tel = Telemetry(trace_capacity=args.capacity)
    config = MachineConfig(perfect_bp=args.perfect_bp).with_icache_kb(
        args.icache_kb
    )
    ExperimentEngine(scale=args.scale, telemetry=tel).run(
        RunSpec(args.workload, args.isa, config)
    )
    rows = build_timeline(tel.trace.events())
    print(
        f"{args.workload}/{args.isa}: per-cycle occupancy from the last "
        f"{len(tel.trace)} trace events ({tel.trace.dropped} dropped)"
    )
    print(render_timeline(rows, limit=args.limit))
    return 0


def _cmd_trace(args) -> int:
    """Run one workload with telemetry and dump pipeline events as JSONL."""
    from repro.obs.events import ALL_EVENT_KINDS

    kinds = None
    if args.kind:
        bad = sorted(set(args.kind) - ALL_EVENT_KINDS)
        if bad:
            print(
                f"unknown event kind(s): {', '.join(bad)}; allowed: "
                f"{', '.join(sorted(ALL_EVENT_KINDS))}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        kinds = frozenset(args.kind)
    tel = Telemetry(trace_capacity=args.capacity)
    _simulate_pair(args, tel)
    if args.jsonl:
        try:
            tel.trace.write_jsonl(args.jsonl, kinds=kinds)
        except OSError as exc:
            print(f"cannot write trace to {args.jsonl}: {exc}", file=sys.stderr)
            return 1
        kept = len(tel.trace.events(kinds=kinds))
        print(
            f"{kept} events written to {args.jsonl} "
            f"({tel.trace.dropped} dropped from a {tel.trace.emitted}-event "
            f"stream)",
            file=sys.stderr,
        )
    else:
        text = tel.trace.to_jsonl(args.limit, kinds=kinds)
        if text:
            print(text)
    return 0


def _cmd_explore(args) -> int:
    """Walk one MiniC file through source -> IR -> both ISA encodings."""
    from repro.errors import SourceError
    from repro.harness.explore import explore_file

    try:
        text = explore_file(
            args.file, opt_level=args.opt_level, function=args.function
        )
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
        return EXIT_USAGE
    except SourceError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(text)
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    """Fuzz the timing simulator against the cosimulation oracle."""
    from repro.check import CosimChecker, Fuzzer, GenConfig, replay

    tel = _make_telemetry(args)

    def progress(message: str) -> None:
        print(message, file=sys.stderr)

    checker = CosimChecker(telemetry=tel)
    if args.replay:
        if not os.path.isfile(args.replay):
            print(
                f"no such corpus program: {args.replay}", file=sys.stderr
            )
            return EXIT_USAGE
        report = replay(args.replay, checker=checker)
        print(report.summary())
        rc = 0 if report.ok else 1
    else:
        try:
            gen_config = GenConfig(
                array_ops=args.array_ops,
                struct_depth=args.struct_depth,
                switch_arms=args.switch_arms,
                branch_bias=args.branch_bias,
                hot_loop_ops=args.hot_loop_ops,
            )
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
        fuzzer = Fuzzer(
            checker=checker,
            corpus_dir=args.corpus,
            shrink=not args.no_shrink,
            shrink_budget=args.shrink_budget,
            telemetry=tel,
            progress=progress,
            gen_config=gen_config,
        )
        result = fuzzer.run(args.budget, args.seed)
        if result.ok:
            print(
                f"fuzz ok: {result.programs} programs "
                f"(seed {result.seed}) passed the cosimulation oracle"
            )
            rc = 0
        else:
            print(
                f"fuzz FAILED: {len(result.failures)} of {result.programs} "
                f"programs violated the oracle (seed {result.seed}); "
                f"corpus: {result.corpus_dir}"
            )
            for failure in result.failures:
                invariants = ", ".join(
                    sorted({v.invariant for v in failure.violations})
                )
                print(
                    f"  {failure.name}: {invariants} "
                    f"({failure.reproducer_lines}-line reproducer)"
                )
            print(
                f"replay with: bsisa fuzz --replay "
                f"{result.corpus_dir}/{result.failures[0].name}.minic"
            )
            rc = 1
    if tel is not None:
        artifact_rc = _write_artifact(
            tel,
            args.metrics_json,
            {
                "command": "fuzz",
                "budget": args.budget,
                "seed": args.seed,
                "replay": args.replay,
            },
        )
        rc = rc or artifact_rc
    return rc


def _cmd_scenarios(args) -> int:
    """Scenario-engine entry: list/generate/sweep/cosim families."""
    import dataclasses
    import json

    from repro.scenario.families import FAMILIES, get_family
    from repro.scenario.spec import ScenarioSpec
    from repro.scenario.sweep import render_heatmap, run_sweep
    from repro.scenario.synth import generate_source, synthesize

    if args.action == "list":
        for name in sorted(FAMILIES):
            spec = FAMILIES[name]
            line = (
                f"{name}  bb={spec.bb_size} bias={spec.bias:.2f} "
                f"hot={spec.hot_bytes}B seed={spec.seed}"
            )
            if args.realized:
                axes = synthesize(spec, args.budget).realized
                line += (
                    f"  -> realized bb={axes.mean_bb_ops} "
                    f"mis={axes.mispredict_rate} hot={axes.hot_bytes}B"
                )
            print(line)
        return EXIT_OK

    if args.action == "generate":
        try:
            spec = get_family(args.family)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return EXIT_USAGE
        if args.seed is not None:
            try:
                spec = dataclasses.replace(spec, seed=args.seed)
            except ConfigError as exc:
                print(str(exc), file=sys.stderr)
                return EXIT_USAGE
        result = synthesize(spec, args.budget)
        source = generate_source(spec, result.params, args.scale)
        report = {
            "family": spec.family_name,
            "seed": spec.seed,
            "target": {
                "bb_size": spec.bb_size,
                "bias": spec.bias,
                "hot_bytes": spec.hot_bytes,
            },
            "realized": result.realized.as_dict(),
            "attempts": result.attempts,
            "params": result.params.key(),
        }
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(source)
            except OSError as exc:
                print(
                    f"cannot write source to {args.output}: {exc}",
                    file=sys.stderr,
                )
                return EXIT_FAILURE
            print(f"source written to {args.output}", file=sys.stderr)
        else:
            print(source)
        print(json.dumps(report, indent=2), file=sys.stderr)
        return EXIT_OK

    if args.action == "sweep":
        if _kernel_usage_error(args):
            return EXIT_USAGE
        tel = _make_telemetry(args)
        try:
            doc = run_sweep(
                bb_sizes=args.bb,
                biases=args.bias,
                hot_kb=args.hot_kb,
                icache_kb=args.icache_kb,
                seed=args.seed,
                scale=args.scale,
                budget=args.budget,
                kernel=args.kernel,
                telemetry=tel,
                progress=lambda line: print(line, file=sys.stderr),
            )
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
        print(render_heatmap(doc))
        rc = EXIT_OK
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=1, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                print(
                    f"cannot write artifact to {args.output}: {exc}",
                    file=sys.stderr,
                )
                return EXIT_FAILURE
            print(f"artifact written to {args.output}", file=sys.stderr)
        if tel is not None:
            rc = rc or _write_artifact(
                tel,
                args.metrics_json,
                {"command": "scenarios sweep", "seed": args.seed},
            )
        return rc

    # action == "cosim": every registered family through the oracle
    from repro.check import CosimChecker

    checker = CosimChecker()
    failures = []
    for name in sorted(FAMILIES):
        source = get_workload(name).source(args.scale)
        report = checker.check_source(source, name=name.replace("/", "_"))
        status = "ok" if report.ok else "FAILED"
        print(f"{name}: {status} ({report.configurations} configurations)")
        if not report.ok:
            failures.append((name, report))
    if failures:
        for name, report in failures:
            print(f"{name}: {report.summary()}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"scenario cosim ok: {len(FAMILIES)} families")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsisa",
        description="Block-structured ISA reproduction (MICRO 1996)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and experiments").set_defaults(
        fn=_cmd_list
    )

    run = sub.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment", help="table1|table2|fig3..fig7|all")
    run.add_argument("--scale", type=_scale_arg, default=1.0)
    run.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help="execute the deduplicated plan across N processes",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk artifact cache",
    )
    run.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="artifact cache location (default: $BSISA_CACHE_DIR "
        "or ~/.cache/bsisa)",
    )
    run.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the unified telemetry artifact (metrics+spans+trace)",
    )
    run.add_argument(
        "--insight",
        metavar="PATH",
        help="collect per-run fetch-rate analytics across the plan and "
        "write the repro.insight/v1 artifact",
    )
    run.add_argument(
        "--kernel",
        choices=["auto", "python", "numpy"],
        default="auto",
        help="replay kernel: auto (vectorized when numpy is available), "
        "python (scalar replayer), numpy (vectorized; exit 2 when numpy "
        "is missing) — both are bit-identical (docs/performance.md)",
    )
    run.set_defaults(fn=_cmd_run)

    verify = sub.add_parser(
        "verify-paper",
        help="evaluate the paper-fidelity claim registry "
        "(BENCH_paper.json artifact; exit 3 on claim failure)",
    )
    verify.add_argument(
        "--scale",
        type=_scale_arg,
        default=None,
        help="workload scale (default: $REPRO_BENCH_SCALE or "
        f"{DEFAULT_VERIFY_SCALE}, the benchmark suite's default)",
    )
    verify.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help="execute the deduplicated plan across N processes",
    )
    verify.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk artifact cache",
    )
    verify.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="artifact cache location (default: $BSISA_CACHE_DIR "
        "or ~/.cache/bsisa)",
    )
    verify.add_argument(
        "--benchmarks",
        nargs="+",
        metavar="NAME",
        default=None,
        help="restrict to a benchmark subset (suite-wide claims are "
        "skipped or fail honestly; the gate wants the full suite)",
    )
    verify.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="write the schema-versioned fidelity artifact "
        "(BENCH_paper.json, repro.fidelity/v1)",
    )
    verify.add_argument(
        "--write-experiments",
        action="store_true",
        help="rewrite the generated claim table in EXPERIMENTS.md "
        "from this evaluation",
    )
    verify.add_argument(
        "--experiments-path",
        metavar="PATH",
        default="EXPERIMENTS.md",
        help="file --write-experiments rewrites (default: EXPERIMENTS.md)",
    )
    verify.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the unified telemetry artifact (metrics+spans+trace)",
    )
    verify.set_defaults(fn=_cmd_verify_paper)

    cache = sub.add_parser("cache", help="artifact-cache maintenance")
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="artifact cache location (default: $BSISA_CACHE_DIR "
        "or ~/.cache/bsisa)",
    )
    cache.set_defaults(fn=_cmd_cache)

    comp = sub.add_parser("compile", help="compile a workload and report sizes")
    comp.add_argument("workload", choices=ALL_WORKLOADS)
    comp.add_argument("--isa", choices=["conventional", "block"], default="block")
    comp.add_argument("--scale", type=_scale_arg, default=1.0)
    comp.add_argument("--dump", action="store_true", help="print disassembly")
    comp.set_defaults(fn=_cmd_compile)

    simp = sub.add_parser("simulate", help="timed comparison on one workload")
    simp.add_argument("workload", choices=ALL_WORKLOADS)
    simp.add_argument("--scale", type=_scale_arg, default=1.0)
    simp.add_argument("--perfect-bp", action="store_true")
    simp.add_argument(
        "--profile-guided",
        action="store_true",
        help="profile-guided enlargement (paper §6 extension)",
    )
    simp.add_argument("--icache-kb", type=int, default=64)
    simp.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the unified telemetry artifact (metrics+spans+trace)",
    )
    simp.set_defaults(fn=_cmd_simulate)

    metr = sub.add_parser(
        "metrics", help="simulate one workload and print its metric series"
    )
    metr.add_argument("workload", choices=ALL_WORKLOADS)
    metr.add_argument("--scale", type=_scale_arg, default=1.0)
    metr.add_argument("--perfect-bp", action="store_true")
    metr.add_argument("--icache-kb", type=int, default=64)
    metr.add_argument(
        "--trace-cache",
        action="store_true",
        help="also run the conventional ISA behind a trace cache "
        "(tracecache.* metric series)",
    )
    metr.add_argument(
        "--json", metavar="PATH", help="also write the telemetry artifact"
    )
    metr.set_defaults(fn=_cmd_metrics)

    perf = sub.add_parser(
        "perf",
        help="time capture/replay/vector/sweep per benchmark "
        "(BENCH_sim.json artifact)",
    )
    perf.add_argument(
        "--benchmarks",
        nargs="+",
        default=["compress", "gcc"],
        metavar="NAME",
        help="benchmarks to time (default: compress gcc)",
    )
    perf.add_argument("--scale", type=_scale_arg, default=1.0)
    perf.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="write the schema-versioned perf artifact (BENCH_sim.json)",
    )
    perf.add_argument(
        "--compare",
        metavar="PATH",
        help="diff against a baseline BENCH_sim.json; exit 1 when a "
        "capture/replay/vector/sweep phase regresses more than 20%%",
    )
    perf.add_argument(
        "--kernel",
        choices=["auto", "python", "numpy"],
        default="auto",
        help="replay kernel for the vector_s column: auto/numpy time "
        "the vectorized kernel (numpy insists it is installed, exit 2 "
        "otherwise), python skips the column",
    )
    perf.set_defaults(fn=_cmd_perf)

    analyze = sub.add_parser(
        "analyze",
        help="CPI stack + fetch-rate histogram per benchmark x ISA "
        "(repro.insight/v1 artifact)",
    )
    analyze.add_argument(
        "--benchmark",
        nargs="+",
        default=["compress"],
        metavar="NAME",
        help="benchmarks to analyze (default: compress)",
    )
    analyze.add_argument(
        "--isa",
        choices=["both", "conventional", "block"],
        default="both",
    )
    analyze.add_argument("--scale", type=_scale_arg, default=1.0)
    analyze.add_argument("--perfect-bp", action="store_true")
    analyze.add_argument("--icache-kb", type=int, default=64)
    analyze.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="write the schema-versioned insight artifact "
        "(repro.insight/v1)",
    )
    analyze.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the unified telemetry artifact (metrics+spans+trace)",
    )
    analyze.set_defaults(fn=_cmd_analyze)

    timeline = sub.add_parser(
        "timeline",
        help="per-cycle pipeline occupancy reconstructed from the "
        "event trace",
    )
    timeline.add_argument("workload", choices=ALL_WORKLOADS)
    timeline.add_argument(
        "--isa", choices=["conventional", "block"], default="block"
    )
    timeline.add_argument("--scale", type=_scale_arg, default=1.0)
    timeline.add_argument("--perfect-bp", action="store_true")
    timeline.add_argument("--icache-kb", type=int, default=64)
    timeline.add_argument(
        "--capacity", type=int, default=4096, help="ring-buffer size"
    )
    timeline.add_argument(
        "--limit", type=int, default=64,
        help="print only the last N cycles (default 64)",
    )
    timeline.set_defaults(fn=_cmd_timeline)

    trace = sub.add_parser(
        "trace", help="simulate one workload and dump pipeline events (JSONL)"
    )
    trace.add_argument("workload", choices=ALL_WORKLOADS)
    trace.add_argument("--scale", type=_scale_arg, default=1.0)
    trace.add_argument("--perfect-bp", action="store_true")
    trace.add_argument("--icache-kb", type=int, default=64)
    trace.add_argument(
        "--capacity", type=int, default=4096, help="ring-buffer size"
    )
    trace.add_argument(
        "--limit", type=int, default=32,
        help="print only the last N events (stdout mode)",
    )
    trace.add_argument(
        "--jsonl", metavar="PATH", help="write the full buffer to a file"
    )
    trace.add_argument(
        "--kind",
        action="append",
        metavar="KIND",
        help="keep only these event kinds (repeatable; exit 2 with the "
        "allowed list on an unknown kind)",
    )
    trace.set_defaults(fn=_cmd_trace)

    fuzzp = sub.add_parser(
        "fuzz",
        help="fuzz the timing simulator against the cosimulation oracle",
    )
    fuzzp.add_argument(
        "--budget", type=int, default=100,
        help="number of random programs to check (default 100)",
    )
    fuzzp.add_argument(
        "--seed", type=int, default=0,
        help="deterministic fuzz seed (program i depends only on seed+i)",
    )
    fuzzp.add_argument(
        "--corpus", metavar="DIR",
        default=os.environ.get("BSISA_CORPUS_DIR", ".bsisa-corpus"),
        help="directory for failing programs and their shrunk "
        "reproducers (default: $BSISA_CORPUS_DIR or ./.bsisa-corpus)",
    )
    fuzzp.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging minimization of failures",
    )
    fuzzp.add_argument(
        "--shrink-budget", type=int, default=400,
        help="max oracle calls spent minimizing one failure",
    )
    fuzzp.add_argument(
        "--replay", metavar="FILE",
        help="re-run the oracle on one saved corpus program and exit",
    )
    fuzzp.add_argument(
        "--array-ops", type=int, default=2, metavar="N",
        help="max array store/print pairs per generated array statement "
        "(0 disables array statements; default 2)",
    )
    fuzzp.add_argument(
        "--struct-depth", type=int, default=2, metavar="D",
        help="nesting depth of generated struct chains "
        "(0 disables structs; default 2)",
    )
    fuzzp.add_argument(
        "--switch-arms", type=int, default=4, metavar="N",
        help="max case arms per generated switch "
        "(0 disables switches; max 8; default 4)",
    )
    fuzzp.add_argument(
        "--branch-bias", type=float, default=None, metavar="P",
        help="taken-probability of generated if conditions "
        "(0.0..1.0; default: unbiased classic conditions)",
    )
    fuzzp.add_argument(
        "--hot-loop-ops", type=int, default=0, metavar="N",
        help="approximate static op footprint of an extra hot loop "
        "nest in main (0 disables; default 0)",
    )
    fuzzp.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the unified telemetry artifact (metrics+spans+trace)",
    )
    fuzzp.set_defaults(fn=_cmd_fuzz)

    scen = sub.add_parser(
        "scenarios",
        help="parameterized workload families on the paper's three axes",
    )
    scen_sub = scen.add_subparsers(dest="action", required=True)

    scen_list = scen_sub.add_parser(
        "list", help="registered families and their axis targets"
    )
    scen_list.add_argument(
        "--realized", action="store_true",
        help="also synthesize each family and print realized axis values",
    )
    scen_list.add_argument(
        "--budget", type=int, default=6, metavar="N",
        help="synthesis attempt budget when --realized (default 6)",
    )
    scen_list.set_defaults(fn=_cmd_scenarios)

    scen_gen = scen_sub.add_parser(
        "generate",
        help="synthesize one family and emit its MiniC source + report",
    )
    scen_gen.add_argument("family", help="registered family name")
    scen_gen.add_argument("--scale", type=_scale_arg, default=1.0)
    scen_gen.add_argument(
        "--seed", type=int, default=None,
        help="override the family seed (off-registry variant)",
    )
    scen_gen.add_argument(
        "--budget", type=int, default=6, metavar="N",
        help="synthesis attempt budget (default 6)",
    )
    scen_gen.add_argument(
        "-o", "--output", metavar="FILE",
        help="write source here instead of stdout "
        "(the JSON report always goes to stderr)",
    )
    scen_gen.set_defaults(fn=_cmd_scenarios)

    scen_sweep = scen_sub.add_parser(
        "sweep",
        help="axis-grid crossover sweep -> repro.scenario/v1 artifact",
    )
    scen_sweep.add_argument(
        "--bb", type=int, nargs="+", default=[3, 8, 16], metavar="N",
        help="target mean basic-block sizes (default: 3 8 16)",
    )
    scen_sweep.add_argument(
        "--bias", type=float, nargs="+", default=[0.6, 0.8, 0.95],
        metavar="P", help="branch-bias targets (default: 0.6 0.8 0.95)",
    )
    scen_sweep.add_argument(
        "--hot-kb", type=int, nargs="+", default=[4, 16], metavar="KB",
        help="hot-footprint targets in KB (default: 4 16)",
    )
    scen_sweep.add_argument(
        "--icache-kb", type=int, nargs="+", default=[4, 16, 64],
        metavar="KB",
        help="icache sizes replayed per cell, batched (default: 4 16 64)",
    )
    scen_sweep.add_argument("--scale", type=_scale_arg, default=1.0)
    scen_sweep.add_argument("--seed", type=int, default=0)
    scen_sweep.add_argument(
        "--budget", type=int, default=6, metavar="N",
        help="synthesis attempt budget per cell (default 6)",
    )
    scen_sweep.add_argument(
        "--kernel", choices=["auto", "python", "numpy"], default="auto",
        help="replay kernel for the batched icache sweep",
    )
    scen_sweep.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the repro.scenario/v1 JSON artifact here",
    )
    scen_sweep.add_argument(
        "--metrics-json", metavar="PATH",
        help="write the unified telemetry artifact (metrics+spans+trace)",
    )
    scen_sweep.set_defaults(fn=_cmd_scenarios)

    scen_cosim = scen_sub.add_parser(
        "cosim",
        help="run every registered family through the cosimulation "
        "oracle (all enlargement variants)",
    )
    scen_cosim.add_argument(
        "--scale", type=_scale_arg, default=0.1,
        help="workload scale for the oracle runs (default 0.1)",
    )
    scen_cosim.set_defaults(fn=_cmd_scenarios)

    explore = sub.add_parser(
        "explore",
        help="walk one MiniC file through source -> IR -> conventional "
        "and block-structured encodings, with per-block enlargement "
        "diffs",
    )
    explore.add_argument("file", help="MiniC source file")
    explore.add_argument(
        "--function",
        metavar="NAME",
        default=None,
        help="restrict the listings to one function",
    )
    explore.add_argument(
        "--opt-level",
        type=int,
        choices=[0, 1, 2],
        default=2,
        help="optimizer level for the IR stage (default 2)",
    )
    explore.set_defaults(fn=_cmd_explore)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
