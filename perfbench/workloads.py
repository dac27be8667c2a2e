"""The benchmark's two workloads.

Each workload turns a seed into a list of inputs (``setup``). For each
job it builds what the job starts from (``prepare``, not timed), runs
the job (``run``, timed) and checks the job's output (``check``, not
timed). Jobs run one at a time in this process, with no worker pool
and no artifact cache, so every job does its whole computation cold.
The seed picks each input's size within 2% of a fixed scale, so inputs
differ from seed to seed while the cost of a pass over them stays
close.

* ``compile`` builds both ISA images of each of the ten MiniC programs
  (the eight SPECint95 stand-ins plus ``scientific`` and ``dispatch``).
  No job executes anything, so it covers the compiler layers and skips
  capture and replay.
* ``suite`` runs what ``bsisa run all`` plans for one SPECint95
  stand-in after its compile: one capture per ISA and predictor
  configuration, and batched replay of every machine configuration the
  paper's tables and figures use. It models a user's ``bsisa run all``
  at the default scale 1.0, run at scale 0.05 so that a pass takes
  seconds, not a minute. Traced over the eight stand-ins, the
  functional executor, packing and replay take 61%, 20% and 20% of a
  scale-1.0 run's capture and replay, and 61%, 20% and 19% of this
  workload's jobs. Compiling adds 3% to the scale-1.0 run but would
  take a sixth of a scale-0.05 run, because its cost does not grow
  with scale; so the compile runs untimed in ``prepare``, and the
  ``compile`` workload measures it.

The checks compare every job's program output with the IR interpreter
running the unoptimized IR, which no optimizer pass, back end or
executor touches. A ``compile`` job must also give the same images as
the first compile of its input. A ``suite`` job's results must equal,
field for field, those of the same runs replayed by the scalar replay
loop (``kernel="python"``) instead of the vectorized kernel, computed
once per input.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from repro.core.toolchain import Toolchain
from repro.exec.block import BlockExecutor
from repro.exec.conventional import ConventionalExecutor
from repro.exec.interp_ir import interpret_module
from repro.frontend import compile_to_ir
from repro.harness.experiments import EXPERIMENT_RUNS, SuiteRunner
from repro.workloads import EXTRA, SUITE


def jittered(rng: random.Random, scale: float) -> float:
    return round(scale * rng.uniform(0.98, 1.02), 5)


def reference_outputs(source: str) -> list:
    """Output of the IR interpreter running the unoptimized IR."""
    return interpret_module(compile_to_ir(source, "reference"))


def image_digest(pair) -> str:
    text = pair.conventional.disassemble() + pair.block.disassemble()
    return hashlib.sha256(text.encode()).hexdigest()


class Compile:
    name = "compile"
    #: compile time does not depend on scale; a small one keeps the
    #: output check cheap.
    SCALE = 0.025

    def __init__(self):
        self._digests: dict[int, str | None] = {}

    def setup(self, seed: int) -> list:
        rng = random.Random(seed)
        programs = {**SUITE, **EXTRA}
        return [
            (name, w.source(jittered(rng, self.SCALE)))
            for name, w in programs.items()
        ]

    def label(self, item) -> str:
        return item[0]

    def prepare(self, item):
        return item

    def run(self, item):
        name, source = item
        return Toolchain().compile(source, name)

    def check(self, index: int, item, pair) -> bool:
        if index not in self._digests:
            want = reference_outputs(item[1])
            ran = (
                ConventionalExecutor(pair.conventional, trace=False)
                .run().outputs == want
                and BlockExecutor(pair.block, trace=False).run().outputs
                == want
            )
            self._digests[index] = image_digest(pair) if ran else None
        return image_digest(pair) == self._digests[index]


class Suite:
    name = "suite"
    SCALE = 0.05
    EXPERIMENTS = list(EXPERIMENT_RUNS)

    def __init__(self):
        self._expected: dict[int, list[dict] | None] = {}

    def setup(self, seed: int) -> list:
        rng = random.Random(seed)
        return [(name, jittered(rng, self.SCALE)) for name in SUITE]

    def label(self, item) -> str:
        return item[0]

    def prepare(self, item) -> SuiteRunner:
        name, scale = item
        runner = SuiteRunner(scale=scale, benchmarks=[name])
        runner.pair(name)
        return runner

    def run(self, runner: SuiteRunner) -> list:
        plan = runner.execute(self.EXPERIMENTS)
        return [runner.run(s.benchmark, s.isa, s.config) for s in plan.runs]

    def check(self, index: int, item, results) -> bool:
        if index not in self._expected:
            self._expected[index] = self.reference(item)
        return [dataclasses.asdict(r) for r in results] == self._expected[index]

    def reference(self, item) -> list[dict] | None:
        """The job's results from the scalar replay loop, or None when
        their program output differs from the IR interpreter's."""
        name, scale = item
        runner = SuiteRunner(scale=scale, benchmarks=[name], kernel="python")
        results = self.run(runner)
        want = reference_outputs(SUITE[name].source(scale))
        if any(r.outputs != want for r in results):
            return None
        return [dataclasses.asdict(r) for r in results]


WORKLOADS = {w.name: w for w in (Compile, Suite)}
