"""Randomized fuzzing of the timing simulator with failure shrinking.

The driver generates random MiniC programs
(:func:`repro.check.genprog.generate_program`), pushes each through the
full cosimulation oracle (:class:`repro.check.cosim.CosimChecker`), and
on failure:

1. persists the failing program and its violation report to the corpus
   directory (``<name>.minic`` + ``<name>.json``),
2. **shrinks** it — delta-debugging over source lines, keeping a
   candidate only when it still trips at least one of the *original*
   violations (so a reduction can never wander off to a different,
   easier bug — or to an unparsable fragment, which only ever produces
   ``cosim.invalid_program``),
3. persists the minimal reproducer as ``<name>.shrunk.minic``.

Runs are deterministic: program *i* of a ``--seed S`` run is a pure
function of ``(S, i)``, so ``bsisa fuzz --budget N --seed S``
reproduces bit-identically anywhere. A stored corpus entry replays with
``bsisa fuzz --replay path/to/entry.minic``.

Telemetry: ``check.fuzz`` span around the whole run, ``check.programs``
/ ``check.failed_programs`` / ``check.violations{invariant=}`` counters
from the oracle, plus ``check.shrink`` spans and
``check.shrink_attempts`` counters from the shrinker.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.check.cosim import CosimChecker, CosimReport
from repro.check.genprog import GenConfig, generate_program
from repro.obs.telemetry import DISABLED, Telemetry, get_telemetry

#: Upper bound on oracle evaluations per shrink (keeps a pathological
#: failure from stalling the whole fuzz run).
DEFAULT_SHRINK_BUDGET = 400


@dataclass
class FuzzFailure:
    """One failing program, before and after minimization."""

    name: str
    seed: int
    index: int
    source: str
    violations: list  # list[Violation]
    shrunk: str | None = None
    shrink_attempts: int = 0

    @property
    def reproducer(self) -> str:
        """The smallest known failing program."""
        return self.shrunk if self.shrunk is not None else self.source

    @property
    def reproducer_lines(self) -> int:
        return len([l for l in self.reproducer.splitlines() if l.strip()])


@dataclass
class FuzzResult:
    """Outcome of one fuzz run."""

    budget: int
    seed: int
    programs: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    corpus_dir: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def shrink_source(
    source: str,
    still_fails: Callable[[str], bool],
    max_attempts: int = DEFAULT_SHRINK_BUDGET,
) -> tuple[str, int]:
    """Greedy delta-debugging over source lines.

    Repeatedly tries deleting line ranges (halving the chunk size down
    to single lines) and keeps any candidate for which *still_fails* is
    true, until a whole sweep removes nothing or *max_attempts* oracle
    calls are spent. Returns ``(minimal_source, attempts_used)``. The
    predicate is responsible for rejecting candidates that no longer
    compile — the shrinker itself is syntax-blind.
    """
    lines = source.splitlines()
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        chunk = max(1, len(lines) // 2)
        while chunk >= 1 and attempts < max_attempts:
            i = 0
            while i < len(lines) and attempts < max_attempts:
                if len(lines) <= 1:
                    break
                candidate = lines[:i] + lines[i + chunk:]
                if not candidate:
                    i += chunk
                    continue
                attempts += 1
                if still_fails("\n".join(candidate)):
                    lines = candidate
                    progress = True
                    # do not advance i: the next chunk slid into place
                else:
                    i += chunk
            if chunk == 1:
                break
            chunk //= 2
    return "\n".join(lines), attempts


class Fuzzer:
    """Drives generate → oracle → persist → shrink."""

    def __init__(
        self,
        checker: CosimChecker | None = None,
        corpus_dir: str | Path | None = None,
        shrink: bool = True,
        shrink_budget: int = DEFAULT_SHRINK_BUDGET,
        telemetry: Telemetry | None = None,
        progress: Callable[[str], None] | None = None,
        gen_config: GenConfig | None = None,
    ):
        self.telemetry = telemetry
        self.gen_config = gen_config
        self.checker = (
            checker
            if checker is not None
            else CosimChecker(telemetry=telemetry)
        )
        self.corpus_dir = Path(corpus_dir) if corpus_dir else None
        self.shrink = shrink
        self.shrink_budget = shrink_budget
        self.progress = progress

    def _tel(self) -> Telemetry:
        return self.telemetry if self.telemetry is not None else get_telemetry()

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    # ------------------------------------------------------------------

    def run(self, budget: int, seed: int = 0) -> FuzzResult:
        """Check *budget* random programs derived from *seed*."""
        tel = self._tel()
        result = FuzzResult(
            budget=budget,
            seed=seed,
            corpus_dir=str(self.corpus_dir) if self.corpus_dir else None,
        )
        with tel.span("check.fuzz", seed=str(seed), budget=str(budget)):
            for index in range(budget):
                # Program i is a pure function of (seed, i): failures
                # replay without re-running the i-1 programs before
                # them. A string seed stays valid on 3.11+ (tuple seeds
                # raise TypeError) and hashes deterministically.
                rng = random.Random(f"{seed}:{index}")
                source = generate_program(rng, self.gen_config)
                name = f"fuzz-{seed}-{index}"
                report = self.checker.check_source(source, name)
                result.programs += 1
                if report.ok:
                    if (index + 1) % 25 == 0:
                        self._say(f"{index + 1}/{budget} programs ok")
                    continue
                failure = self._handle_failure(
                    name, seed, index, source, report, tel
                )
                result.failures.append(failure)
        return result

    # ------------------------------------------------------------------

    def _handle_failure(
        self,
        name: str,
        seed: int,
        index: int,
        source: str,
        report: CosimReport,
        tel: Telemetry,
    ) -> FuzzFailure:
        failure = FuzzFailure(
            name=name,
            seed=seed,
            index=index,
            source=source,
            violations=list(report.violations),
        )
        self._say(
            f"FAIL {name}: "
            + ", ".join(sorted({v.invariant for v in report.violations}))
        )
        self._persist(failure)
        if self.shrink:
            with tel.span("check.shrink", program=name):
                shrunk, attempts = self._shrink(source, report)
            failure.shrunk = shrunk
            failure.shrink_attempts = attempts
            tel.count("check.shrink_attempts", attempts)
            self._say(
                f"shrunk {name}: {len(source.splitlines())} -> "
                f"{len(shrunk.splitlines())} lines "
                f"({attempts} oracle calls)"
            )
            self._persist(failure)
        return failure

    def _shrink(self, source: str, report: CosimReport) -> tuple[str, int]:
        original = {v.invariant for v in report.violations}

        def still_fails(candidate: str) -> bool:
            # Use a quiet checker clone so shrink probes don't inflate
            # check.programs/check.violations for the session.
            probe = CosimChecker(
                enlarge_variants=self.checker.enlarge_variants,
                machine_configs=self.checker.machine_configs,
                telemetry=DISABLED,
            ).check_source(candidate, "shrink-probe")
            return any(v.invariant in original for v in probe.violations)

        return shrink_source(source, still_fails, self.shrink_budget)

    def _persist(self, failure: FuzzFailure) -> None:
        """Best-effort corpus write (a full disk must not kill the run)."""
        if self.corpus_dir is None:
            return
        try:
            self.corpus_dir.mkdir(parents=True, exist_ok=True)
            base = self.corpus_dir / failure.name
            base.with_suffix(".minic").write_text(
                failure.source + "\n", encoding="utf-8"
            )
            if failure.shrunk is not None:
                (self.corpus_dir / f"{failure.name}.shrunk.minic").write_text(
                    failure.shrunk + "\n", encoding="utf-8"
                )
            base.with_suffix(".json").write_text(
                json.dumps(
                    {
                        "name": failure.name,
                        "seed": failure.seed,
                        "index": failure.index,
                        "violations": [
                            {"invariant": v.invariant, "message": v.message}
                            for v in failure.violations
                        ],
                        "shrunk_lines": (
                            failure.reproducer_lines
                            if failure.shrunk is not None
                            else None
                        ),
                        "shrink_attempts": failure.shrink_attempts,
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
        except OSError as exc:  # pragma: no cover - disk-full path
            self._say(f"cannot persist {failure.name}: {exc}")


def fuzz(
    budget: int,
    seed: int = 0,
    corpus_dir: str | Path | None = None,
    checker: CosimChecker | None = None,
    shrink: bool = True,
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
    telemetry: Telemetry | None = None,
    progress: Callable[[str], None] | None = None,
    gen_config: GenConfig | None = None,
) -> FuzzResult:
    """One-shot fuzz run (see :class:`Fuzzer`)."""
    return Fuzzer(
        checker=checker,
        corpus_dir=corpus_dir,
        shrink=shrink,
        shrink_budget=shrink_budget,
        telemetry=telemetry,
        progress=progress,
        gen_config=gen_config,
    ).run(budget, seed)


def replay(
    path: str | Path,
    checker: CosimChecker | None = None,
    telemetry: Telemetry | None = None,
) -> CosimReport:
    """Re-run the oracle on a persisted corpus program."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    if checker is None:
        checker = CosimChecker(telemetry=telemetry)
    return checker.check_source(source, path.stem)
