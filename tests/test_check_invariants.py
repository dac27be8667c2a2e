"""Invariant library: a consistent run passes, every tampered field is
caught by exactly the invariant that owns it."""

from __future__ import annotations

import copy

import pytest

from repro.check import ALL_INVARIANTS, check_invariants
from repro.check.invariants import Violation
from repro.engine import ExperimentEngine
from repro.sim.config import MachineConfig

from tests.conftest import FEATURE_PROGRAM


@pytest.fixture(scope="module")
def engine():
    return ExperimentEngine()


@pytest.fixture(scope="module")
def results(engine):
    config = MachineConfig()
    cmp = engine.compare("feature", config, FEATURE_PROGRAM)
    return {
        "conventional": cmp.conventional,
        "block": cmp.block,
        "config": config,
    }


def _tampered(result, **changes):
    clone = copy.deepcopy(result)
    for name, value in changes.items():
        if hasattr(clone.timing, name):
            setattr(clone.timing, name, value)
        else:
            setattr(clone, name, value)
    return clone


def _names(violations: list[Violation]) -> set[str]:
    return {v.invariant for v in violations}


class TestConsistentRuns:
    def test_conventional_passes(self, results):
        assert check_invariants(results["conventional"]) == []

    def test_block_passes(self, results):
        assert check_invariants(results["block"]) == []

    def test_perfect_bp_run_passes_with_config(self, engine):
        config = MachineConfig(perfect_bp=True)
        cmp = engine.compare("feature", config, FEATURE_PROGRAM)
        for result in (cmp.conventional, cmp.block):
            assert check_invariants(result, config) == []

    def test_all_emitted_names_are_registered(self, results):
        # Tamper broadly; every reported name must be a known invariant.
        broken = _tampered(
            results["block"],
            squashed_ops=-5,
            redirects=10**9,
            icache_misses=10**9,
        )
        names = _names(check_invariants(broken))
        assert names
        assert names <= ALL_INVARIANTS


class TestEachInvariantFires:
    def test_ops_conservation(self, results):
        broken = _tampered(results["block"], squashed_ops=0)
        # The feature program squashes at least one block under the real
        # predictor, so dropping squashed_ops must unbalance the books.
        assert results["block"].timing.squashed_ops > 0
        assert "ops_conservation" in _names(check_invariants(broken))

    def test_retired_matches_committed(self, results):
        broken = _tampered(
            results["conventional"],
            committed_ops=results["conventional"].committed_ops + 1,
        )
        assert "retired_matches_committed" in _names(check_invariants(broken))

    def test_units_conservation(self, results):
        broken = _tampered(
            results["block"], fetched_units=results["block"].timing.fetched_units + 3
        )
        assert "units_conservation" in _names(check_invariants(broken))

    def test_squashes_are_fault_mispredicts(self, results):
        broken = _tampered(
            results["block"],
            fault_mispredicts=results["block"].fault_mispredicts + 1,
            mispredicts=results["block"].mispredicts + 1,
        )
        assert "squashes_are_fault_mispredicts" in _names(
            check_invariants(broken)
        )

    def test_conventional_never_squashes(self, results):
        broken = copy.deepcopy(results["conventional"])
        broken.timing.squashed_ops = 4
        broken.timing.fetched_ops += 4  # keep ops_conservation quiet
        assert "conventional_never_squashes" in _names(
            check_invariants(broken)
        )

    def test_redirects_match_mispredicts(self, results):
        broken = _tampered(
            results["block"], redirects=results["block"].timing.redirects + 1
        )
        assert "redirects_match_mispredicts" in _names(check_invariants(broken))

    def test_cache_misses_bounded(self, results):
        t = results["conventional"].timing
        broken = _tampered(
            results["conventional"], icache_misses=t.icache_accesses + 1
        )
        assert "cache_misses_bounded" in _names(check_invariants(broken))

    def test_fetch_timeline(self, results):
        broken = _tampered(results["block"], cycles=1)
        assert "fetch_timeline" in _names(check_invariants(broken))

    def test_avg_block_size_consistent(self, results):
        broken = _tampered(
            results["block"],
            avg_block_size=results["block"].avg_block_size * 2 + 1,
        )
        assert "avg_block_size_consistent" in _names(check_invariants(broken))

    def test_mispredicts_bounded(self, results):
        broken = _tampered(
            results["conventional"],
            branch_events=0,
        )
        assert results["conventional"].mispredicts > 0
        assert "mispredicts_bounded" in _names(check_invariants(broken))

    def test_counters_non_negative(self, results):
        broken = _tampered(results["conventional"], dcache_accesses=-1)
        assert "counters_non_negative" in _names(check_invariants(broken))

    def test_rates_in_range(self, results):
        broken = copy.deepcopy(results["conventional"])
        broken.bp_accuracy = 1.5
        assert "rates_in_range" in _names(check_invariants(broken))

    def test_block_mispredict_rate_not_range_checked(self, results):
        # fault mispredicts can legitimately exceed trap predictions on
        # the block path (chained sibling faults) — mispredict_rate > 1
        # there must NOT be flagged.
        broken = copy.deepcopy(results["block"])
        broken.mispredicts = broken.branch_events * 2
        broken.timing.redirects = broken.mispredicts
        trap = broken.mispredicts - broken.fault_mispredicts
        broken.trap_mispredicts = min(trap, broken.branch_events)
        names = _names(check_invariants(broken))
        assert "rates_in_range" not in names

    def test_perfect_prediction_is_clean(self, results):
        config = results["config"].with_perfect_bp()
        # The real-predictor block run has mispredicts; claiming it came
        # from a perfect-bp machine must fail.
        assert results["block"].mispredicts > 0
        assert "perfect_prediction_is_clean" in _names(
            check_invariants(results["block"], config)
        )
