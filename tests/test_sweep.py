"""Sweep engine: grid parsing/expansion, execution, manifests, pool."""

import json

import pytest

from repro.harness.store import TraceKey, TraceStore
from repro.harness.sweep import (
    GridError,
    SweepGrid,
    as_work_items,
    expand_grid,
    parse_grid,
    pool_stats,
    run_sweep,
    shared_pool,
    shutdown_pool,
)
from repro.telemetry import disable_process_telemetry, enable_process_telemetry


@pytest.fixture(autouse=True)
def _fresh_pool():
    yield
    shutdown_pool()


class TestParseGrid:
    def test_basic_axes(self):
        grid = parse_grid("program=sor,hist scale=smoke seed=0..2")
        assert grid.values("program") == ["sor", "hist"]
        assert grid.values("scale") == ["smoke"]
        assert grid.values("seed") == [0, 1, 2]
        assert grid.size == 2 * 1 * 3

    def test_tokens_sequence(self):
        grid = parse_grid(["program=sor", "seed=0,1"])
        assert grid.values("seed") == [0, 1]

    def test_star_program(self):
        from repro.harness.experiments import TRACE_PROGRAMS

        grid = parse_grid("program=* scale=smoke")
        assert tuple(grid.values("program")) == TRACE_PROGRAMS

    def test_int_range_and_list_mix(self):
        grid = parse_grid("program=sor seed=0..1,5")
        assert grid.values("seed") == [0, 1, 5]

    def test_value_dedup_preserves_order(self):
        grid = parse_grid("program=sor,hist,sor")
        assert grid.values("program") == ["sor", "hist"]

    def test_faults_axis_semicolons(self):
        grid = parse_grid("program=sor faults=none;loss=0.01,seed=1")
        vals = grid.values("faults")
        assert vals[0] is None
        assert vals[1] == "loss=0.01,seed=1"

    def test_describe_round_trips(self):
        spec = ("program=sor,hist scale=smoke seed=0,1 route=direct "
                "faults=none;loss=0.01,seed=1")
        grid = parse_grid(spec)
        again = parse_grid(grid.describe())
        assert again.describe() == grid.describe()
        assert expand_grid(again) == expand_grid(grid)

    @pytest.mark.parametrize("bad", [
        "",
        "scale=smoke",                 # no program axis
        "program=nosuch",
        "program=sor sclae=smoke",     # typo'd axis
        "program=sor scale=warp",
        "program=sor seed=x",
        "program=sor seed=5..1",       # empty range
        "program=sor program=hist",    # duplicate axis
        "program=sor faults=loss=banana",
        "program=sor queue=bogus",
        "program=sor route=north",
        "program",                     # not axis=value
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(GridError):
            parse_grid(bad)


class TestExpandGrid:
    def test_cartesian_product_dedup(self):
        grid = parse_grid("program=sor scale=smoke seed=0..3")
        items = expand_grid(grid)
        assert len(items) == 4
        assert all(isinstance(k, TraceKey) for k, _ in items)

    def test_order_independent_of_axis_order(self):
        a = expand_grid(parse_grid("program=sor,hist seed=0,1 scale=smoke"))
        b = expand_grid(parse_grid("seed=1,0 scale=smoke program=hist,sor"))
        assert a == b

    def test_equivalent_faults_dedup_to_one_key(self):
        # Same plan spelled twice: TraceKey canonicalization collapses it.
        grid = parse_grid(
            "program=sor faults=loss=0.01,seed=1;seed=1,loss=0.01"
        )
        assert len(expand_grid(grid)) == 1

    def test_as_work_items_dedups_warm_specs(self):
        items = as_work_items([
            ("sor", "smoke", 0),
            ("sor", "smoke", 0),
            ("sor", "smoke", 1, {"nprocs": 2}),
        ])
        assert len(items) == 2


class TestRunSweep:
    GRID = "program=sor,hist scale=smoke seed=0..1"

    def test_serial_produces_all(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        result = run_sweep(self.GRID, jobs=1, store=store)
        assert result.ok
        assert result.produced == 4 and result.hits == 0
        assert all(e.trace_sha256 for e in result.entries)

    def test_cache_hit_short_circuit(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        run_sweep(self.GRID, jobs=1, store=store)
        writes_before = store.stats.disk_writes
        result = run_sweep(self.GRID, jobs=4, store=store)
        assert result.hits == 4 and result.produced == 0
        # warm keys never dispatch: no new writes, no pool spawned
        assert store.stats.disk_writes == writes_before
        assert pool_stats()["alive"] == 0

    def test_progress_streams_every_key(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        seen = []
        result = run_sweep(self.GRID, jobs=1, store=store,
                           progress=lambda p, e: seen.append(
                               (p.done, e.key.name)))
        assert len(seen) == len(result.entries) == 4
        assert seen[-1][0] == 4

    def test_worker_failure_tolerated(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        result = run_sweep(
            [("sor", "smoke", 0),
             ("sor", "smoke", 1, {"nprocs": 0}),   # invalid: must fail
             ("hist", "smoke", 0)],
            jobs=1, store=store,
        )
        assert len(result.entries) == 3
        assert len(result.failed) == 1
        bad = result.failed[0]
        assert bad.key.seed == 1 and "ValueError" in bad.error
        assert not result.ok
        # the failure is in the manifest, flagged
        rows = result.manifest()["entries"]
        assert sum("error" in r for r in rows) == 1

    def test_pooled_failure_tolerated(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        result = run_sweep(
            [("sor", "smoke", 0), ("sor", "smoke", 1, {"nprocs": 0})],
            jobs=2, store=store,
        )
        assert len(result.failed) == 1
        ok = [e for e in result.entries if e.ok]
        assert len(ok) == 1 and ok[0].trace_sha256

    def test_memory_only_store_degrades_to_serial(self):
        store = TraceStore()  # no disk layer
        result = run_sweep("program=sor scale=smoke seed=0,1", jobs=4,
                           store=store)
        assert result.ok and result.produced == 2
        assert pool_stats()["alive"] == 0


class TestManifest:
    GRID = "program=sor,hist scale=smoke seed=0..3"

    def test_serial_pooled_resumed_byte_identical(self, tmp_path):
        serial = run_sweep(self.GRID, jobs=1,
                           store=TraceStore(disk_dir=tmp_path / "serial"))
        pooled_store = TraceStore(disk_dir=tmp_path / "pooled")
        pooled = run_sweep(self.GRID, jobs=2, store=pooled_store)
        resumed = run_sweep(self.GRID, jobs=2, store=pooled_store)
        assert serial.manifest_json() == pooled.manifest_json()
        assert serial.manifest_json() == resumed.manifest_json()
        assert resumed.hits == len(resumed.entries)
        assert serial.manifest_digest() == resumed.manifest_digest()

    def test_manifest_excludes_wall_and_provenance(self, tmp_path):
        result = run_sweep("program=sor scale=smoke seed=0", jobs=1,
                           store=TraceStore(disk_dir=tmp_path))
        text = result.manifest_json()
        doc = json.loads(text)
        assert "wall" not in text and "hit" not in text
        row = doc["entries"][0]
        assert set(row) == {"program", "scale", "seed", "overrides",
                            "digest", "trace_sha256", "packets",
                            "sim_seconds"}

    def test_write_manifest_atomic(self, tmp_path):
        result = run_sweep("program=sor scale=smoke seed=0", jobs=1,
                           store=TraceStore(disk_dir=tmp_path / "c"))
        path = result.write_manifest(tmp_path / "out" / "manifest.json")
        assert json.loads(path.read_text())["keys"] == 1
        assert not list(path.parent.glob(".*.tmp"))

    def test_stats_report_wall_numbers(self, tmp_path):
        result = run_sweep("program=sor scale=smoke seed=0", jobs=1,
                           store=TraceStore(disk_dir=tmp_path))
        stats = result.stats()
        assert stats["keys"] == 1 and stats["produced"] == 1
        assert stats["wall_seconds"] >= 0.0


class TestPersistentPool:
    def test_pool_reused_across_sweeps_and_warm(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        run_sweep("program=sor scale=smoke seed=0,1", jobs=2, store=store)
        first = pool_stats()
        assert first["alive"] == 1 and first["started"] >= 1
        # TraceStore.warm goes through the same pool: no new start
        store.warm([("hist", "smoke", 0), ("hist", "smoke", 1)], jobs=2)
        second = pool_stats()
        assert second["started"] == first["started"]
        assert second["reused"] > first["reused"]

    def test_pool_resized_on_demand(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        run_sweep("program=sor scale=smoke seed=0,1", jobs=2, store=store)
        started = pool_stats()["started"]
        run_sweep("program=hist scale=smoke seed=0,1", jobs=3, store=store)
        stats = pool_stats()
        assert stats["jobs"] == 3 and stats["started"] == started + 1


    def test_workers_attach_no_telemetry(self, monkeypatch):
        """Counters in a worker could not reach the parent, so a pool
        forked while the process-wide instance is installed simulates
        unobserved; the sanitizer still rides along, since it can fail
        a key."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        enable_process_telemetry()
        shutdown_pool()
        try:
            observers = shared_pool(2).submit(_worker_observers).result(
                timeout=60)
        finally:
            disable_process_telemetry()
        assert observers == (False, True)


def _worker_observers():
    """(telemetry attached, sanitizer attached) for a plain Simulator."""
    from repro.des import Simulator

    sim = Simulator()
    return sim.telemetry is not None, sim.sanitizer is not None


class TestWarmFacade:
    def test_warm_results_follow_spec_order(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        specs = [("hist", "smoke", 1), ("sor", "smoke", 0)]
        results = store.warm(specs, jobs=1)
        assert [(r.key.name, r.key.seed) for r in results] == \
            [("hist", 1), ("sor", 0)]
        assert all(r.ok and r.produced for r in results)

    def test_warm_dedups_before_fanout(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path)
        results = store.warm(
            [("sor", "smoke", 0)] * 3, jobs=1)
        assert len(results) == 1            # deduped before fan-out
        assert len(list(tmp_path.glob("*.npz"))) == 1  # one production
        assert store.stats.disk_writes == 1


class TestSweepCli:
    def test_cli_sweep_and_manifest(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "manifest.json"
        rc = main(["sweep", "program=sor scale=smoke seed=0,1",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--manifest", str(manifest), "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweep complete: 2 keys" in out
        assert "manifest sha256=" in out
        assert json.loads(manifest.read_text())["keys"] == 2

    def test_cli_rerun_all_hits_same_digest(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "program=sor scale=smoke seed=0",
                "--cache-dir", str(tmp_path / "cache"), "--quiet"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        digest = [l for l in first.splitlines() if "sha256" in l]
        assert digest == [l for l in second.splitlines() if "sha256" in l]
        assert "(1 hit, 0 produced" in second

    def test_cli_bad_grid_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["sweep", "program=nosuch"]) == 2
        assert "bad grid" in capsys.readouterr().err

    def test_cli_failed_key_exits_1(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        rc = main(["sweep", "program=sor scale=smoke seed=0 nprocs=0",
                   "--cache-dir", str(tmp_path / "cache"), "--quiet"])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err


class TestSweepQmon:
    def test_route_switched_axis_parses_as_string(self):
        grid = parse_grid("program=sor scale=smoke seed=0 route=switched")
        assert grid.values("route") == ["switched"]
        ((key, overrides),) = as_work_items(expand_grid(grid))
        assert overrides["route"] == "switched"
        assert ("route", '"switched"') in key.overrides

    def test_qmon_dir_writes_manifest_per_switched_key(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path / "cache")
        grid = parse_grid("program=sor scale=smoke seed=0,1 route=switched")
        qdir = tmp_path / "qmon"
        result = run_sweep(grid, store=store, qmon_dir=qdir)
        assert result.failed == []
        files = sorted(qdir.glob("*.qmon.json"))
        assert len(files) == 2
        from repro.netmon import validate_qmon

        for f in files:
            doc = json.loads(f.read_text())
            assert validate_qmon(doc) == []
            assert f.name == doc["meta"]["digest"] + ".qmon.json"

    def test_qmon_manifest_regenerated_on_warm_cache(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path / "cache")
        grid = parse_grid("program=sor scale=smoke seed=0 route=switched")
        run_sweep(grid, store=store)  # warm the cache without qmon
        qdir = tmp_path / "qmon"
        result = run_sweep(grid, store=store, qmon_dir=qdir)
        assert result.failed == []
        (f,) = sorted(qdir.glob("*.qmon.json"))
        first = f.read_bytes()
        # A third sweep finds both trace and manifest cached; bytes stable.
        result = run_sweep(grid, store=store, qmon_dir=qdir)
        assert result.failed == []
        assert f.read_bytes() == first

    def test_direct_route_keys_skip_qmon(self, tmp_path):
        store = TraceStore(disk_dir=tmp_path / "cache")
        grid = parse_grid("program=sor scale=smoke seed=0")
        qdir = tmp_path / "qmon"
        result = run_sweep(grid, store=store, qmon_dir=qdir)
        assert result.failed == []
        assert not qdir.exists() or not list(qdir.glob("*.qmon.json"))
