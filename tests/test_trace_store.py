"""TraceStore: keying, LRU bounds, disk persistence, parallel warm."""

import json

import numpy as np
import pytest

from repro.harness.store import (
    TRACE_SCHEMA_VERSION,
    CacheStats,
    TraceKey,
    TraceStore,
)
from repro.pvm import Route


class TestTraceKey:
    def test_digest_is_stable(self):
        a = TraceKey.make("sor", scale="smoke", seed=3, iterations=5)
        b = TraceKey.make("sor", scale="smoke", seed=3, iterations=5)
        assert a == b
        assert a.digest() == b.digest()

    def test_digest_covers_every_field(self):
        base = TraceKey.make("sor", scale="smoke", seed=0)
        variants = [
            TraceKey.make("2dfft", scale="smoke", seed=0),
            TraceKey.make("sor", scale="default", seed=0),
            TraceKey.make("sor", scale="smoke", seed=1),
            TraceKey.make("sor", scale="smoke", seed=0, iterations=5),
        ]
        digests = {k.digest() for k in [base] + variants}
        assert len(digests) == len(variants) + 1

    def test_override_order_does_not_matter(self):
        a = TraceKey.make("sor", iterations=5, nprocs=2)
        b = TraceKey.make("sor", nprocs=2, iterations=5)
        assert a.digest() == b.digest()

    def test_enum_and_nested_overrides_are_canonical(self):
        a = TraceKey.make("sor", route=Route.DIRECT,
                          cluster_kwargs={"bandwidth": 1e7, "latency": 1e-4})
        b = TraceKey.make("sor", route=Route.DIRECT,
                          cluster_kwargs={"latency": 1e-4, "bandwidth": 1e7})
        c = TraceKey.make("sor", route=Route.DEFAULT,
                          cluster_kwargs={"bandwidth": 1e7, "latency": 1e-4})
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_includes_schema_version(self):
        key = TraceKey.make("sor")
        payload = {
            "schema": TRACE_SCHEMA_VERSION,
            "name": "sor",
            "scale": "default",
            "seed": 0,
            "overrides": [],
        }
        import hashlib

        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        assert key.digest() == expected


class TestMemoryLayer:
    def test_get_produces_once_then_hits(self):
        store = TraceStore()
        a = store.get("sor", scale="smoke", seed=0)
        b = store.get("sor", scale="smoke", seed=0)
        assert a is b
        assert store.stats.misses == 1
        assert store.stats.memory_hits == 1

    def test_capacity_bound_and_eviction_counter(self):
        store = TraceStore(capacity=2)
        store.get("sor", scale="smoke", seed=0)
        store.get("sor", scale="smoke", seed=1)
        store.get("sor", scale="smoke", seed=2)
        assert len(store) == 2
        assert store.stats.evictions == 1
        # seed=0 was least recently used: gone from memory.
        assert TraceKey.make("sor", scale="smoke", seed=0) not in store
        assert TraceKey.make("sor", scale="smoke", seed=2) in store

    def test_lru_recency_order(self):
        store = TraceStore(capacity=2)
        store.get("sor", scale="smoke", seed=0)
        store.get("sor", scale="smoke", seed=1)
        store.get("sor", scale="smoke", seed=0)  # refresh seed=0
        store.get("sor", scale="smoke", seed=2)  # evicts seed=1
        assert TraceKey.make("sor", scale="smoke", seed=0) in store
        assert TraceKey.make("sor", scale="smoke", seed=1) not in store

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_clear_drops_memory_only(self):
        store = TraceStore()
        store.get("sor", scale="smoke", seed=0)
        assert store.clear() == 0
        assert len(store) == 0

    def test_hit_rate(self):
        stats = CacheStats(memory_hits=2, disk_hits=1, misses=1)
        assert stats.requests == 4
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0


class TestDiskLayer:
    def test_round_trip_across_store_instances(self, tmp_path):
        first = TraceStore(disk_dir=tmp_path)
        a = first.get("sor", scale="smoke", seed=0)
        assert first.stats.disk_writes == 1

        second = TraceStore(disk_dir=tmp_path)
        b = second.get("sor", scale="smoke", seed=0)
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        assert a is not b
        assert np.array_equal(a.data, b.data)

    def test_metadata_written_alongside(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        store.get("sor", scale="smoke", seed=0)
        entries = store.disk_entries()
        assert len(entries) == 1
        meta = entries[0]
        assert meta["schema"] == TRACE_SCHEMA_VERSION
        assert meta["key"]["name"] == "sor"
        assert meta["packets"] > 0
        assert len(meta["trace_sha256"]) == 64
        assert meta["bytes"] > 0

    def test_corrupt_file_is_a_miss_not_an_error(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        store.get("sor", scale="smoke", seed=0)
        digest = TraceKey.make("sor", scale="smoke", seed=0).digest()
        (tmp_path / f"{digest}.npz").write_bytes(b"not an npz")

        fresh = TraceStore(disk_dir=tmp_path)
        trace = fresh.get("sor", scale="smoke", seed=0)
        assert fresh.stats.misses == 1
        assert len(trace) > 0

    def test_clear_disk_removes_entries(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        store.get("sor", scale="smoke", seed=0)
        store.get("sor", scale="smoke", seed=1)
        removed = store.clear(disk=True)
        assert removed == 4  # 2 npz + 2 json
        assert store.disk_entries() == []


class TestWarm:
    SPECS = [("sor", "smoke", 0), ("sor", "smoke", 1), ("hist", "smoke", 0)]

    def test_serial_warm_populates_disk(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        results = store.warm(self.SPECS, jobs=1)
        assert [r.produced for r in results] == [True, True, True]
        assert len(store.disk_entries()) == 3

    def test_warm_dedupes_specs(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        results = store.warm([("sor", "smoke", 0)] * 3, jobs=1)
        assert len(results) == 1

    def test_parallel_warm_matches_serial_bytes(self, tmp_path):
        serial = TraceStore(disk_dir=tmp_path / "serial")
        parallel = TraceStore(disk_dir=tmp_path / "parallel")
        r_serial = serial.warm(self.SPECS, jobs=1)
        r_parallel = parallel.warm(self.SPECS, jobs=2)
        assert [r.digest for r in r_serial] == [r.digest for r in r_parallel]
        assert ([r.trace_sha256 for r in r_serial]
                == [r.trace_sha256 for r in r_parallel])

    def test_warm_skips_already_cached(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        store.warm(self.SPECS, jobs=1)
        again = store.warm(self.SPECS, jobs=2)
        assert not any(r.produced for r in again)

    def test_warm_with_overrides_spec(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        specs = [("sor", "smoke", 0, {"iterations": 3})]
        results = store.warm(specs, jobs=1)
        assert results[0].produced
        assert results[0].key.overrides


class TestRunnerFacade:
    def test_configure_replaces_global_store(self, tmp_path):
        from repro.harness import runner

        original = runner.trace_store()
        try:
            store = runner.configure_trace_store(disk_dir=tmp_path)
            assert runner.trace_store() is store
            trace = runner.get_trace("sor", scale="smoke", seed=0)
            assert len(trace) > 0
            assert store.stats.misses == 1
            assert (tmp_path / f"{TraceKey.make('sor', scale='smoke', seed=0).digest()}.npz").exists()
        finally:
            runner._STORE = original


class TestQuarantine:
    def _corrupt_entry(self, tmp_path, **key_kwargs):
        store = TraceStore(disk_dir=tmp_path)
        store.get("sor", scale="smoke", seed=0, **key_kwargs)
        digest = TraceKey.make("sor", scale="smoke", seed=0,
                               **key_kwargs).digest()
        path = tmp_path / f"{digest}.npz"
        path.write_bytes(b"PK\x03\x04 definitely not a trace")
        return digest, path

    def test_unreadable_entry_is_quarantined_and_reproduced(self, tmp_path):
        digest, path = self._corrupt_entry(tmp_path)
        fresh = TraceStore(disk_dir=tmp_path)
        trace = fresh.get("sor", scale="smoke", seed=0)
        assert len(trace) > 0
        corrupt = tmp_path / f"{digest}.npz.corrupt"
        assert corrupt.exists()
        assert fresh.stats.quarantined == 1
        assert fresh.quarantined_entries() == [corrupt]
        # the reproduced trace was written back under the same digest
        # and is loadable again
        assert path.exists()
        assert len(TraceStore(disk_dir=tmp_path).get(
            "sor", scale="smoke", seed=0)) == len(trace)

    def test_quarantined_count_in_stats_dict(self, tmp_path):
        self._corrupt_entry(tmp_path)
        fresh = TraceStore(disk_dir=tmp_path)
        fresh.get("sor", scale="smoke", seed=0)
        assert fresh.stats.as_dict()["quarantined"] == 1

    def test_clear_removes_quarantined_files(self, tmp_path):
        self._corrupt_entry(tmp_path)
        fresh = TraceStore(disk_dir=tmp_path)
        fresh.get("sor", scale="smoke", seed=0)
        fresh.clear(disk=True)
        assert fresh.quarantined_entries() == []
        assert fresh.disk_entries() == []


class TestWarmFailures:
    BAD_SPECS = [("sor", "smoke", 0),
                 ("sor", "smoke", 1, {"nprocs": 0}),
                 ("hist", "smoke", 0)]

    def _check(self, results):
        by_seed = {r.key.seed: r for r in results if r.key.name == "sor"}
        assert by_seed[0].ok and by_seed[0].packets > 0
        assert not by_seed[1].ok
        assert "ValueError" in by_seed[1].error
        hist = next(r for r in results if r.key.name == "hist")
        assert hist.ok and hist.packets > 0

    def test_serial_warm_tolerates_a_failing_trace(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        self._check(store.warm(self.BAD_SPECS, jobs=1))
        assert len(store.disk_entries()) == 2

    def test_parallel_warm_tolerates_a_failing_trace(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        self._check(store.warm(self.BAD_SPECS, jobs=2))
        assert len(store.disk_entries()) == 2
