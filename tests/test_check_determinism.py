"""Pinned-seed determinism: the same MiniC source must produce
bit-identical SimResult fields when simulated twice, when recompiled
from scratch (each by a fresh engine, never a memo hit), when executed
through the experiment engine's ``--jobs 2`` process pool (guarding the
parallel-merge path), and when replayed from a serialized packed trace
(guarding the capture/replay split)."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.check import generate_program
from repro.core.toolchain import Toolchain
from repro.engine import ArtifactCache, ExperimentEngine
from repro.engine.plan import build_plan
from repro.engine.spec import RunSpec
from repro.obs import Telemetry
from repro.sim.config import MachineConfig
from repro.sim.packed import PackedTrace
from repro.sim.run import capture_run, replay_captured

#: A pinned generator seed: this exact source (loops, branches, helper
#: calls) is what every assertion below simulates.
PINNED_SEED = "determinism:0"


@pytest.fixture(scope="module")
def pinned_pair():
    source = generate_program(random.Random(PINNED_SEED))
    return source, Toolchain().compile(source, "pinned")


def _fields(result) -> dict:
    return dataclasses.asdict(result)


def _fresh_compare(source: str, config: MachineConfig):
    """Both ISAs' runs of *source* on an engine of their own."""
    return ExperimentEngine().compare("pinned", config, source)


class TestInProcessDeterminism:
    def test_simulated_twice_bit_identical(self, pinned_pair):
        source, _ = pinned_pair
        config = MachineConfig()
        a = _fresh_compare(source, config)
        b = _fresh_compare(source, config)
        assert _fields(a.conventional) == _fields(b.conventional)
        assert _fields(a.block) == _fields(b.block)

    def test_recompiled_source_bit_identical(self, pinned_pair):
        source, pair = pinned_pair
        config = MachineConfig()
        engine = ExperimentEngine()
        recompiled = engine.compiled("pinned", source)
        assert recompiled.block.disassemble() == pair.block.disassemble()
        assert _fields(
            _fresh_compare(source, config).block
        ) == _fields(engine.run(RunSpec("pinned", "block", config, source)))

    def test_perfect_bp_also_deterministic(self, pinned_pair):
        source, _ = pinned_pair
        config = MachineConfig(perfect_bp=True)
        assert _fields(_fresh_compare(source, config).block) == _fields(
            _fresh_compare(source, config).block
        )


class TestEngineJobs2Determinism:
    """`bsisa run --jobs 2` ships programs to a process pool; results
    merged back must be bit-identical to the serial path."""

    SCALE = 0.05

    def _plan(self):
        specs = [
            RunSpec("compress", "conventional", MachineConfig()),
            RunSpec("compress", "block", MachineConfig()),
            RunSpec("compress", "block", MachineConfig(perfect_bp=True)),
        ]
        return build_plan([("determinism", specs)], scale=self.SCALE)

    def test_parallel_pool_matches_serial(self):
        plan = self._plan()
        serial = ExperimentEngine(scale=self.SCALE).execute(plan)
        parallel = ExperimentEngine(scale=self.SCALE, jobs=2).execute(plan)
        assert serial.keys() == parallel.keys()
        for spec in plan.runs:
            assert _fields(serial[spec]) == _fields(parallel[spec]), spec

    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        # jobs=2 with a cold cache computes in workers and stores; a
        # second engine must serve identical bits from disk.
        plan = self._plan()
        cache = ArtifactCache(tmp_path / "cache")
        first = ExperimentEngine(
            scale=self.SCALE, jobs=2, cache=cache
        ).execute(plan)
        second_cache = ArtifactCache(tmp_path / "cache")
        second = ExperimentEngine(
            scale=self.SCALE, cache=second_cache
        ).execute(plan)
        assert second_cache.hits > 0
        for spec in plan.runs:
            assert _fields(first[spec]) == _fields(second[spec]), spec


class TestSerializedTraceDeterminism:
    """A packed trace surviving a serialize/deserialize round trip must
    replay to bits identical to the live capture — this is what lets
    the artifact cache serve traces across sessions."""

    SCALE = 0.05

    def test_serialized_trace_replays_bit_identical(self, pinned_pair):
        _, pair = pinned_pair
        config = MachineConfig()
        for isa, prog in (
            ("conventional", pair.conventional),
            ("block", pair.block),
        ):
            captured = capture_run(prog, isa, config)
            direct = replay_captured(captured, config)
            thawed = dataclasses.replace(
                captured,
                trace=PackedTrace.from_bytes(captured.trace.to_bytes()),
            )
            assert _fields(replay_captured(thawed, config)) == _fields(
                direct
            ), isa

    def test_capture_serialization_is_deterministic(self, pinned_pair):
        _, pair = pinned_pair
        config = MachineConfig()
        a = capture_run(pair.block, "block", config)
        b = capture_run(pair.block, "block", config)
        assert a.trace.to_bytes() == b.trace.to_bytes()

    def test_disk_trace_serves_new_configs_without_capture(self, tmp_path):
        """A second session sweeping a *new* icache size must hit the
        trace artifact (same predictor config) and never run the
        functional executor."""
        spec_64 = RunSpec("compress", "block", MachineConfig())
        spec_16 = RunSpec(
            "compress", "block", MachineConfig().with_icache_kb(16)
        )
        cache = ArtifactCache(tmp_path / "cache")
        first = ExperimentEngine(scale=self.SCALE, cache=cache)
        first.run(spec_64)  # captures + stores the trace artifact

        tel = Telemetry()
        second = ExperimentEngine(
            scale=self.SCALE,
            cache=ArtifactCache(tmp_path / "cache"),
            telemetry=tel,
        )
        swept = second.run(spec_16)
        assert tel.metrics.get("plan.cache_hits", kind="trace") == 1
        assert tel.metrics.get("plan.trace_captures") is None
        assert not any(
            s.name == "sim.capture" for s in tel.spans.records
        )
        # and the replayed result is the real thing, not a stale memo:
        # it matches an independent from-scratch run of the new config
        fresh = ExperimentEngine(scale=self.SCALE).run(spec_16)
        assert _fields(swept) == _fields(fresh)
