"""Edge coverage for the telemetry ring buffer and the artifact cache:
EventTrace wraparound semantics and ArtifactCache eviction of corrupt
on-disk entries (truncated or garbage bytes, or a pickle of a class
whose shape has changed, must read as misses and be deleted, never
crash)."""

from __future__ import annotations

import pickle
from collections import OrderedDict

import pytest

from repro.engine import ArtifactCache
from repro.ir.instructions import VReg
from repro.obs.events import EventTrace


class TestEventTraceWraparound:
    def test_wraparound_keeps_most_recent_window(self):
        trace = EventTrace(capacity=8)
        for i in range(20):
            trace.emit("fetch", i, unit=i)
        assert len(trace) == 8
        assert trace.emitted == 20
        assert trace.dropped == 12
        events = trace.events()
        # oldest-first, only the last 8, seq numbering preserved
        assert [e["cycle"] for e in events] == list(range(12, 20))
        assert [e["seq"] for e in events] == list(range(13, 21))
        assert all(e["event"] == "fetch" for e in events)

    def test_counts_reflect_retained_only(self):
        trace = EventTrace(capacity=4)
        for i in range(10):
            trace.emit("fetch" if i < 8 else "retire", i)
        # 4 retained: cycles 6,7 (fetch) + 8,9 (retire)
        assert trace.counts() == {"fetch": 2, "retire": 2}

    def test_events_limit_after_wraparound(self):
        trace = EventTrace(capacity=8)
        for i in range(20):
            trace.emit("fetch", i)
        assert [e["cycle"] for e in trace.events(limit=3)] == [17, 18, 19]
        # limit larger than retention is the full window
        assert len(trace.events(limit=100)) == 8

    def test_to_jsonl_after_wraparound(self):
        trace = EventTrace(capacity=4)
        for i in range(9):
            trace.emit("retire", i, ops=i)
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == 4
        assert '"cycle": 8' in lines[-1]

    def test_merge_into_wrapped_buffer_carries_dropped(self):
        parent = EventTrace(capacity=4)
        for i in range(6):
            parent.emit("fetch", i)
        child = EventTrace(capacity=4)
        for i in range(10):
            child.emit("retire", i)
        parent.merge(child.events(), emitted=child.emitted)
        # parent emitted: 6 own + 10 child (4 retained + 6 pre-dropped)
        assert parent.emitted == 16
        assert len(parent) == 4
        assert parent.dropped == 12
        assert [e["event"] for e in parent.events()] == ["retire"] * 4

    def test_clear_resets_wrapped_buffer(self):
        trace = EventTrace(capacity=4)
        for i in range(9):
            trace.emit("fetch", i)
        trace.clear()
        assert len(trace) == 0
        assert trace.emitted == 0
        assert trace.dropped == 0
        trace.emit("fetch", 0)
        assert trace.events()[0]["seq"] == 1


class TestArtifactCacheCorruption:
    def _store(self, cache: ArtifactCache, key: str, obj) -> None:
        cache.store(key, obj)
        assert cache.load(key) == obj  # sanity: round-trips before harm

    def test_garbage_bytes_evicted_not_crash(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "aa" + "0" * 62
        self._store(cache, key, {"cycles": 123})
        path = cache._path(key)
        path.write_bytes(b"this is not a pickle {]")
        assert cache.load(key) is None
        assert not path.exists(), "corrupt entry must be evicted"

    def test_truncated_pickle_evicted_not_crash(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "bb" + "1" * 62
        payload = {"result": list(range(1000))}
        self._store(cache, key, payload)
        path = cache._path(key)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        path.write_bytes(blob[: len(blob) // 2])
        assert cache.load(key) is None
        assert not path.exists()

    def test_empty_file_evicted_not_crash(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "cc" + "2" * 62
        self._store(cache, key, 7)
        cache._path(key).write_bytes(b"")
        assert cache.load(key) is None
        assert not cache._path(key).exists()

    def test_corrupt_entry_counts_as_miss_then_recovers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "dd" + "3" * 62
        self._store(cache, key, "value")
        hits_before = cache.hits
        cache._path(key).write_bytes(b"garbage")
        assert cache.load(key) is None
        assert cache.misses >= 1
        assert cache.hits == hits_before
        # the slot is usable again after eviction
        cache.store(key, "fresh")
        assert cache.load(key) == "fresh"

    @pytest.mark.parametrize(
        "reduce_to",
        [
            # a VReg pickled before VReg became a named tuple loads as
            # VReg.__new__() with its fields missing: TypeError
            (VReg, ()),
            # a constructor that rejects its stale arguments: ValueError
            (int, ("not a number",)),
        ],
        ids=["TypeError", "ValueError"],
    )
    def test_stale_shape_evicted(self, tmp_path, reduce_to):
        class Stale:
            def __reduce__(self):
                return reduce_to

        cache = ArtifactCache(tmp_path)
        key = "ef" + "5" * 62
        cache.store(key, Stale())
        path = cache._path(key)
        assert path.exists()
        misses = cache.misses
        assert cache.load(key) is None
        assert cache.misses == misses + 1
        assert not path.exists()

    def test_stale_global_reference_evicted(self, tmp_path):
        # A pickle referencing a module that no longer exists (stale
        # artifact from an older code version) must also evict.
        cache = ArtifactCache(tmp_path)
        key = "ee" + "4" * 62
        self._store(cache, key, 1)
        path = cache._path(key)
        blob = pickle.dumps(OrderedDict())
        # same-length rename keeps the pickle structurally valid but
        # pointing at a module that does not exist
        path.write_bytes(blob.replace(b"collections", b"collectionz"))
        assert cache.load(key) is None
        assert not path.exists()
