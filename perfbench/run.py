"""Benchmark of the compile -> capture -> replay pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory, and
nothing needs to be built. The workloads are described in
``workloads.py``. A run does the following:

1. It times the set-up three times, each in a fresh interpreter that
   imports the package and builds the workload's inputs from
   ``--seed``. Then it does the same set-up itself, untimed.
2. It runs whole passes over the inputs, one job after another in a
   seed-shuffled order, collecting garbage before each job. It stops
   after the pass in which the summed job time reaches ``--seconds``.
3. It checks each job's output outside the timed region (see
   ``workloads.py``). A job that raises or fails its check counts as
   failed, and no further pass starts.

Every time is CPU time (``time.process_time``), corrected for the
speed of the host (``speed.py``): a fixed reference computation runs
right before and right after each timed region, and the region's time
is scaled by the reference's nominal time over its measured time.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``job_ms``: the geometric mean over the inputs of each input's
  median job time. Every input counts equally.
* ``peak_rss_mb``: peak resident memory of this process, checks
  included.
* ``setup_s``: the median of the three timed set-ups.

With ``--trace 1`` the same jobs run with every layer's entry point
wrapped (``layers.py``), and the result holds the per-layer metrics
instead. Each is a mean per job: ``<layer>_ms`` is the layer's self
time, ``other_ms`` is job time that no traced layer covers, and the
counts are the calls into a layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 2, with nothing printed on standard output, when the package is not
found or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import process_time

from speed import correction, reference_s

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3

#: layers reported as ``<layer>_ms``, in pipeline order
TIMED_LAYERS = (
    "lex", "parse", "semantic", "irlower", "irverify",
    "opt_simplify_cfg", "opt_constant_folding", "opt_copyprop", "opt_cse",
    "opt_dce", "mlower", "regalloc", "conv_encode", "enlarge",
    "block_encode", "compile",
    "exec", "pack", "capture",
    "replay_prep", "replay_spine", "replay_kernel", "replay_scalar",
)
#: metric name -> the layer whose call count it reports
COUNTED_LAYERS = {
    "compiles": "compile",
    "captures": "capture",
    "exec_units": "exec",
    "replays": "replay_kernel",
    "spine_runs": "replay_spine",
    "scalar_replays": "replay_scalar",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("compile", "suite")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class Jobs:
    """What the measured jobs did. Times are corrected for the host's
    speed and in seconds; layer self times are summed over all jobs."""

    def __init__(self, count: int):
        self.times: list[list[float]] = [[] for _ in range(count)]
        self.layer_s: dict[str, float] = defaultdict(float)
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = 0

    def run(self, workload, index: int, item, tracer) -> None:
        self.attempted += 1
        try:
            job = workload.prepare(item)
            out = self._timed(workload, index, job, tracer)
            ok = workload.check(index, item, out)
            error = None
        except Exception:
            ok = False
            error = traceback.format_exc()
        if not ok:
            self.failed += 1
            print(
                f"perfbench: job {workload.label(item)} failed"
                + (f"\n{error}" if error else ": wrong output"),
                file=sys.stderr,
            )

    def _timed(self, workload, index: int, job, tracer):
        layers_before = dict(tracer.self_s) if tracer is not None else {}
        before = reference_s()
        # Free the previous job's reference cycles now, so that no job
        # pays for collecting another's garbage, as in a fresh process.
        gc.collect()
        if tracer is not None:
            tracer.recording = True
        start = process_time()
        try:
            out = workload.run(job)
        finally:
            elapsed = process_time() - start
            self.cpu_s += elapsed
            if tracer is not None:
                tracer.recording = False
        factor = correction(before, reference_s())
        self.times[index].append(elapsed * factor)
        if tracer is not None:
            for layer, spent in tracer.self_s.items():
                done = spent - layers_before.get(layer, 0.0)
                self.layer_s[layer] += done * factor
        return out


def measure(workload, inputs, seconds, rng, tracer) -> Jobs:
    """Run whole passes until the summed job time reaches *seconds*, or
    until a pass in which a job failed."""
    jobs = Jobs(len(inputs))
    while jobs.cpu_s < seconds and not jobs.failed:
        order = list(range(len(inputs)))
        rng.shuffle(order)
        for index in order:
            jobs.run(workload, index, inputs[index], tracer)
    return jobs


def layer_metrics(tracer, jobs: Jobs):
    count = sum(map(len, jobs.times))
    metrics = {
        f"{layer}_ms": {
            "value": 1e3 * jobs.layer_s[layer] / count, "unit": "ms"
        }
        for layer in TIMED_LAYERS
    }
    untraced_s = sum(map(sum, jobs.times)) - sum(jobs.layer_s.values())
    metrics["other_ms"] = {"value": 1e3 * untraced_s / count, "unit": "ms"}
    for name, layer in COUNTED_LAYERS.items():
        metrics[name] = {"value": tracer.calls[layer] / count, "unit": "count"}
    return metrics


def end_to_end_metrics(jobs: Jobs, setup_s):
    """The job time builds on each input's median, so one slow job or
    one input's cost does not move it much."""
    medians = [statistics.median(t) for t in jobs.times if t]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "job_ms": {
            "value": 1e3 * statistics.geometric_mean(medians), "unit": "ms"
        },
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def timed_setup(workload: str, seed: int) -> float:
    """Corrected CPU seconds to import the package and build the inputs.

    Meaningful only in an interpreter that has not imported them yet.
    """
    before = reference_s()
    start = process_time()
    from workloads import WORKLOADS  # imports every module the jobs use

    WORKLOADS[workload]().setup(seed)
    elapsed = process_time() - start
    return elapsed * correction(before, reference_s())


def fresh_setup_s(workload: str, seed: int) -> float:
    """:func:`timed_setup` in a fresh interpreter."""
    code = (
        f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
        f"from run import timed_setup; "
        f"print(timed_setup({workload!r}, {seed}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if not args.trace:
        setup_s = statistics.median(
            fresh_setup_s(args.workload, args.seed)
            for _ in range(SETUP_REPEATS)
        )
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    inputs = workload.setup(args.seed)
    rng = random.Random(args.seed)
    if args.trace:
        from layers import LayerTracer

        with LayerTracer() as tracer:
            for entry in tracer.missing:
                print(f"perfbench: entry point {entry} not found; "
                      "its layer reads 0", file=sys.stderr)
            jobs = measure(workload, inputs, args.seconds, rng, tracer)
        metrics = layer_metrics(tracer, jobs)
    else:
        jobs = measure(workload, inputs, args.seconds, rng, None)
        metrics = end_to_end_metrics(jobs, setup_s)

    print(
        f"perfbench: {args.workload} seed {args.seed}: {jobs.attempted} jobs "
        f"in {len(jobs.times[0])} passes of {len(inputs)} inputs, "
        f"{jobs.failed} failed",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": jobs.failed == 0,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
