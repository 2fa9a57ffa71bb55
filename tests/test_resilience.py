"""Self-healing sweep service: pool rebuild, task timeout, retry/backoff,
crash-safe resume, graceful drain, cache scrubber, and the seeded chaos
harness.

Every chaos path here is deterministic: kill/hang/corrupt decisions are
pure hashes of (seed, key digest, attempt), so a configuration verified
to terminate once terminates identically on every machine.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness.resilience import (
    DEFAULT_RETRY,
    ChaosError,
    ChaosPlan,
    RetryPolicy,
    SweepJournal,
    _unit,
)
from repro.harness.store import TraceStore, _stat_signature
from repro.harness.sweep import (
    pool_stats,
    run_sweep,
    shared_pool,
    shutdown_pool,
)

GRID = "program=seq,t2dfft scale=smoke seed=0..2"  # 6 cheap keys

#: A wider grid for the kill-mid-run integration tests: enough keys
#: that the signal reliably lands while the sweep is still running.
BIG_GRID = "program=seq,t2dfft scale=smoke seed=0..7"  # 16 cheap keys

#: ``src`` for CLI subprocesses, whatever directory a test runs in.
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _fresh_pool():
    yield
    shutdown_pool()


@pytest.fixture()
def store(tmp_path):
    return TraceStore(disk_dir=tmp_path / "cache")


def _clean_manifest(tmp_path, grid=GRID):
    ref = TraceStore(disk_dir=tmp_path / "ref-cache")
    result = run_sweep(grid, jobs=1, store=ref)
    assert result.ok
    return result.manifest_json()


# ---------------------------------------------------------------------------
# Deterministic randomness, retry policy, chaos grammar
# ---------------------------------------------------------------------------


class TestUnit:
    def test_uniform_range_and_determinism(self):
        draws = [_unit(0, "x", i) for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [_unit(0, "x", i) for i in range(200)]

    def test_distinct_parts_distinct_draws(self):
        assert _unit(0, "kill", "a", 1) != _unit(0, "hang", "a", 1)
        assert _unit(0, "kill", "a", 1) != _unit(1, "kill", "a", 1)


class TestRetryPolicy:
    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, jitter=0.0)
        d1 = policy.delay("k", 1)
        d2 = policy.delay("k", 2)
        d3 = policy.delay("k", 3)
        assert d1 == pytest.approx(0.1)
        assert d2 == pytest.approx(0.2)
        assert d3 == pytest.approx(0.4)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5, seed=7)
        d = policy.delay("some-key", 1)
        assert 0.1 <= d <= 0.15
        assert d == RetryPolicy(backoff_base=0.1, jitter=0.5,
                                seed=7).delay("some-key", 1)
        # a different seed jitters differently
        assert d != RetryPolicy(backoff_base=0.1, jitter=0.5,
                                seed=8).delay("some-key", 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        assert DEFAULT_RETRY.max_attempts == 3


class TestChaosPlan:
    def test_parse_round_trip(self):
        plan = ChaosPlan.parse("kill-worker=0.2,hang=0.1,"
                               "corrupt-cache=0.3,seed=9")
        assert plan.kill_worker == 0.2
        assert plan.hang == 0.1
        assert plan.corrupt_cache == 0.3
        assert plan.seed == 9
        assert ChaosPlan.parse(plan.describe()) == plan

    def test_parse_subset_and_defaults(self):
        plan = ChaosPlan.parse("kill-worker=0.5")
        assert plan.seed == 0 and plan.hang == 0.0
        assert plan.active
        assert not ChaosPlan.parse("seed=3").active

    @pytest.mark.parametrize("spec", [
        "kill=0.5",              # unknown key
        "kill-worker",           # no value
        "kill-worker=lots",      # bad float
        "hang=1.5",              # out of range
        "seed=abc",
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ChaosError):
            ChaosPlan.parse(spec)

    def test_decisions_deterministic_per_key_and_attempt(self):
        plan = ChaosPlan(kill_worker=0.5, seed=4)
        first = [plan.decide(f"digest-{i}", 1) for i in range(50)]
        assert first == [plan.decide(f"digest-{i}", 1) for i in range(50)]
        # attempts re-roll: a killed first attempt can survive its second
        assert any(plan.decide(f"digest-{i}", 1)[0]
                   != plan.decide(f"digest-{i}", 2)[0] for i in range(50))

    def test_corrupted_idents_matches_decide(self):
        plan = ChaosPlan(corrupt_cache=0.5, seed=2)
        idents = [f"k{i}" for i in range(40)]
        expected = [i for i in idents if plan.decide(i, 1)[2]]
        assert plan.corrupted_idents(idents) == expected
        assert 0 < len(expected) < len(idents)


# ---------------------------------------------------------------------------
# Journal: append, replay, torn tail, rotation
# ---------------------------------------------------------------------------


class TestSweepJournal:
    def test_append_and_replay(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append({"event": "done", "digest": "a", "packets": 3})
        journal.append({"event": "retry", "digest": "b"})
        journal.append({"event": "done", "digest": "b", "packets": 5})
        journal.close()
        rows = SweepJournal(tmp_path / "j.jsonl").replay()
        assert set(rows) == {"a", "b"}
        assert rows["b"]["packets"] == 5

    def test_torn_tail_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.append({"event": "done", "digest": "a"})
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"event": "done", "digest": "tor')  # crash mid-append
        rows = SweepJournal(path).replay()
        assert set(rows) == {"a"}

    def test_rotate_compacts_atomically(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        for i in range(5):
            journal.append({"event": "retry", "digest": f"k{i}"})
        journal.append({"event": "done", "digest": "k1"})
        rows = journal.replay()
        journal.rotate(rows)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["event"] == "begin"
        assert [l["digest"] for l in lines[1:]] == ["k1"]
        assert SweepJournal(path).replay() == rows
        journal.close()

    def test_missing_file_replays_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "nope.jsonl").replay() == {}


# ---------------------------------------------------------------------------
# Serial retry / quarantine
# ---------------------------------------------------------------------------


class TestSerialRetry:
    BAD_GRID = "program=sor scale=smoke seed=0 nprocs=0"  # always fails

    def test_deterministic_failure_quarantined(self, store):
        retry = RetryPolicy(max_attempts=3, backoff_base=0.001)
        result = run_sweep(self.BAD_GRID, jobs=1, store=store, retry=retry)
        assert len(result.failed) == 1
        entry = result.failed[0]
        assert entry.attempts == 3
        assert entry.error.startswith("quarantined after 3 attempts:")
        assert "ValueError" in entry.error
        assert result.resilience["retries"] == 2
        assert result.resilience["quarantined"] == 1

    def test_single_attempt_policy_never_quarantines(self, store):
        retry = RetryPolicy(max_attempts=1)
        result = run_sweep(self.BAD_GRID, jobs=1, store=store, retry=retry)
        entry = result.failed[0]
        assert entry.attempts == 1
        assert "quarantined" not in entry.error
        assert result.resilience["retries"] == 0

    def test_good_keys_unaffected_by_retry_policy(self, store):
        retry = RetryPolicy(max_attempts=5, backoff_base=0.001)
        result = run_sweep("program=seq scale=smoke seed=0", jobs=1,
                           store=store, retry=retry)
        assert result.ok
        assert result.entries[0].attempts == 1


# ---------------------------------------------------------------------------
# Supervised pool: rebuild after a worker death, errors never fatal
# ---------------------------------------------------------------------------


class TestSupervisedPool:
    def test_requires_two_workers(self):
        with pytest.raises(ValueError):
            shared_pool(1)

    def test_dead_worker_respawned_and_task_requeued(self, tmp_path, store):
        clean = _clean_manifest(tmp_path)
        shared_pool(2)
        # kill one idle worker before dispatch: the executor breaks, the
        # sweep rebuilds it, and every key still completes
        victim = multiprocessing.active_children()[0]
        victim.kill()
        victim.join(timeout=10)
        assert not victim.is_alive()
        result = run_sweep(GRID, jobs=2, store=store,
                           retry=RetryPolicy(max_attempts=3,
                                             backoff_base=0.001))
        assert result.ok
        assert result.manifest_json() == clean
        assert pool_stats()["respawns"] >= 1

    def test_worker_exception_reported_not_fatal(self, store):
        shared_pool(2)
        respawns = pool_stats()["respawns"]
        result = run_sweep(
            [("seq", "smoke", 0), ("sor", "smoke", 0, {"nprocs": 0})],
            jobs=2, store=store,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.001))
        (entry,) = result.failed
        assert entry.key.name == "sor" and entry.attempts == 2
        assert entry.error.startswith("quarantined after 2 attempts:")
        assert "ValueError" in entry.error
        assert result.resilience["requeued"] == 0
        assert pool_stats()["respawns"] == respawns  # the pool survived


# ---------------------------------------------------------------------------
# Chaos harness end to end (deterministic seeds, verified to terminate)
# ---------------------------------------------------------------------------


class TestChaosSweeps:
    def test_kill_worker_chaos_recovers_byte_identical(self, tmp_path, store):
        clean = _clean_manifest(tmp_path)
        plan = ChaosPlan.parse("kill-worker=0.4,seed=3")
        # A death requeues both in-flight keys, charging each an attempt:
        # with two keys in flight an attempt fails with probability at
        # most 1 - 0.6**2 = 0.64, so 20 attempts keep the chance that any
        # of the 6 keys is quarantined below 6 * 0.64**20 < 1e-3.
        result = run_sweep(GRID, jobs=2, store=store, chaos=plan,
                           retry=RetryPolicy(max_attempts=20,
                                             backoff_base=0.01))
        assert result.ok
        assert result.resilience["requeued"] > 0  # chaos actually bit
        assert result.manifest_json() == clean
        assert pool_stats()["respawns"] > 0

    def test_hung_worker_reaped_by_watchdog(self, tmp_path, store):
        """The in-worker timer fails a hung key; it retries like any
        other error (hangs never break the pool, so nothing is charged
        to the other key in flight)."""
        clean = _clean_manifest(tmp_path)
        plan = ChaosPlan.parse("hang=0.35,seed=5")
        result = run_sweep(GRID, jobs=2, store=store, chaos=plan,
                           task_timeout=3.0,
                           retry=RetryPolicy(max_attempts=8,
                                             backoff_base=0.01))
        assert result.ok
        assert result.resilience["timeouts"] > 0
        assert result.resilience["requeued"] == 0
        assert result.manifest_json() == clean

    def test_corrupt_cache_chaos_detected_by_scrub(self, tmp_path, store):
        clean = _clean_manifest(tmp_path)
        plan = ChaosPlan.parse("corrupt-cache=0.5,seed=9")
        result = run_sweep(GRID, jobs=2, store=store, chaos=plan)
        assert result.ok
        # manifests stay truthful: digests were computed before the rot
        assert result.manifest_json() == clean
        expected = set(plan.corrupted_idents(
            [e.digest for e in result.entries]))
        assert expected  # the seed corrupts at least one entry
        report = store.scrub()
        assert {e.digest for e in report.corrupt} == expected  # 100%
        assert report.quarantined == len(expected)

    def test_chaos_requires_pooled_sweep(self, store):
        plan = ChaosPlan.parse("kill-worker=0.5,seed=1")
        with pytest.raises(ValueError, match="pooled"):
            run_sweep(GRID, jobs=1, store=store, chaos=plan)

    def test_chaos_requires_disk_cache(self):
        plan = ChaosPlan.parse("kill-worker=0.5,seed=1")
        with pytest.raises(ValueError, match="disk"):
            run_sweep(GRID, jobs=2, store=TraceStore(), chaos=plan)


# ---------------------------------------------------------------------------
# Crash-safe resume
# ---------------------------------------------------------------------------


class TestResume:
    def test_stop_event_drains_and_resume_replays(self, tmp_path, store):
        clean = _clean_manifest(tmp_path)
        stop = threading.Event()
        journal = SweepJournal(tmp_path / "journal.jsonl")

        def interrupt_after_two(prog, entry):
            if prog.done >= 2:
                stop.set()

        first = run_sweep(GRID, jobs=1, store=store, journal=journal,
                          stop=stop, progress=interrupt_after_two)
        journal.close()
        assert first.interrupted and not first.ok
        assert len(first.entries) < first.total_keys

        journal2 = SweepJournal(tmp_path / "journal.jsonl")
        second = run_sweep(GRID, jobs=1, store=store, journal=journal2)
        journal2.close()
        assert second.ok and not second.interrupted
        assert second.replayed >= 2
        assert second.manifest_json() == clean

    def test_pooled_resume_byte_identical(self, tmp_path, store):
        clean = _clean_manifest(tmp_path)
        stop = threading.Event()
        journal = SweepJournal(tmp_path / "journal.jsonl")

        def interrupt_after_one(prog, entry):
            if prog.done >= 1:
                stop.set()

        first = run_sweep(GRID, jobs=2, store=store, journal=journal,
                          stop=stop, progress=interrupt_after_one)
        journal.close()
        assert first.interrupted

        journal2 = SweepJournal(tmp_path / "journal.jsonl")
        second = run_sweep(GRID, jobs=2, store=store, journal=journal2)
        journal2.close()
        assert second.ok
        assert second.manifest_json() == clean

    def test_journaled_failures_retry_on_resume(self, tmp_path, store):
        bad = "program=sor scale=smoke seed=0 nprocs=0"
        journal = SweepJournal(tmp_path / "journal.jsonl")
        first = run_sweep(bad, jobs=1, store=store, journal=journal,
                          retry=RetryPolicy(max_attempts=1))
        journal.close()
        assert first.failed
        # failed rows are audit trail, not completions: resume re-runs them
        journal2 = SweepJournal(tmp_path / "journal.jsonl")
        second = run_sweep(bad, jobs=1, store=store, journal=journal2,
                           retry=RetryPolicy(max_attempts=1))
        journal2.close()
        assert second.replayed == 0 and second.failed


# ---------------------------------------------------------------------------
# Scrubber: integrity verification, repair, and the writer race
# ---------------------------------------------------------------------------


class TestScrubber:
    def _warm_one(self, store):
        result = run_sweep("program=seq scale=smoke seed=0", jobs=1,
                           store=store)
        assert result.ok
        return result.entries[0].digest

    def test_clean_cache_scrubs_clean(self, store):
        self._warm_one(store)
        report = store.scrub()
        assert report.clean and report.checked == 1 and report.ok == 1

    def test_truncated_entry_detected_and_quarantined(self, store):
        digest = self._warm_one(store)
        npz = store.disk_dir / f"{digest}.npz"
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        report = store.scrub()
        assert [e.digest for e in report.corrupt] == [digest]
        assert (store.disk_dir / f"{digest}.npz.corrupt").exists()
        assert not npz.exists()

    def test_sha_mismatch_detected(self, store):
        digest = self._warm_one(store)
        sidecar = store.disk_dir / f"{digest}.json"
        meta = json.loads(sidecar.read_text())
        meta["trace_sha256"] = "0" * 64
        sidecar.write_text(json.dumps(meta))
        report = store.scrub()
        assert len(report.corrupt) == 1
        assert "mismatch" in report.corrupt[0].detail

    def test_orphan_npz_left_alone(self, store):
        digest = self._warm_one(store)
        (store.disk_dir / f"{digest}.json").unlink()
        report = store.scrub()
        assert report.clean
        assert [e.digest for e in report.orphans] == [digest]
        assert (store.disk_dir / f"{digest}.npz").exists()

    def test_repair_reproduces_corrupt_entry(self, store):
        digest = self._warm_one(store)
        npz = store.disk_dir / f"{digest}.npz"
        original = npz.read_bytes()
        npz.write_bytes(original[: len(original) // 2])
        report = store.scrub(repair=True)
        assert report.repaired == 1
        assert report.corrupt[0].status == "repaired"
        # determinism: the re-produced trace passes a fresh scrub (npz
        # container bytes embed zip timestamps; the *content* sha is
        # what must match the sidecar again)
        assert store.scrub().clean

    def test_quarantine_race_guard(self, store):
        """A freshly os.replace'd valid entry must never be eaten."""
        digest = self._warm_one(store)
        npz = store.disk_dir / f"{digest}.npz"
        valid = npz.read_bytes()
        npz.write_bytes(valid[: len(valid) // 2])   # rot sets in
        stale_sig = _stat_signature(npz)            # scrubber's observation
        # ...meanwhile a concurrent writer heals the entry atomically
        tmp = npz.with_name("heal.tmp")
        tmp.write_bytes(valid)
        os.replace(tmp, npz)
        assert store._quarantine(npz, stale_sig) is False
        assert npz.read_bytes() == valid
        assert not (store.disk_dir / f"{digest}.npz.corrupt").exists()

    def test_scrub_never_eats_concurrently_replaced_entries(self, store):
        """Satellite: writers racing the scrubber with os.replace."""
        digest = self._warm_one(store)
        npz = store.disk_dir / f"{digest}.npz"
        valid = npz.read_bytes()
        done = threading.Event()

        def writer():
            i = 0
            while not done.is_set():
                tmp = npz.with_name(f"race-{i % 2}.tmp")
                tmp.write_bytes(valid)
                os.replace(tmp, npz)
                i += 1

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(10):
                report = store.scrub()
                # the entry is valid at every instant: never quarantined
                assert not report.corrupt
        finally:
            done.set()
            thread.join()
        assert npz.read_bytes() == valid
        assert not store.quarantined_entries()

    def test_memory_only_store_scrubs_empty(self):
        report = TraceStore().scrub()
        assert report.checked == 0 and report.clean


# ---------------------------------------------------------------------------
# Foreground CLI: graceful drain, SIGKILL resume, worker lifetime
# ---------------------------------------------------------------------------


def _repro(*argv, **popen):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-m", "repro", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **popen)


def _wait_for_done_row(proc, journal, timeout=60.0):
    """Block until the sweep has journaled a completed key."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if journal.exists() and '"done"' in journal.read_text():
            return
        if proc.poll() is not None:
            pytest.fail(f"sweep exited early: {proc.communicate()}")
        time.sleep(0.02)
    pytest.fail("sweep never journaled a completed key")


def _running(pid):
    """Alive and not a zombie awaiting its reaper."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return True
    return state.split()[0] != "Z"


class TestForegroundDrain:
    def _sweep(self, tmp_path, **popen):
        return _repro("sweep", BIG_GRID, "--jobs", "2",
                      "--cache-dir", str(tmp_path / "cache"),
                      "--journal", str(tmp_path / "journal.jsonl"),
                      "--manifest", str(tmp_path / "manifest.json"), **popen)

    def _resume(self, tmp_path, clean):
        out, err = self._sweep(tmp_path).communicate(timeout=120)
        assert "FAILED" not in err
        assert int(re.search(r"(\d+) replayed", out).group(1)) > 0
        assert (tmp_path / "manifest.json").read_text() == clean

    def test_sigint_drains_exit_130_and_resumes(self, tmp_path):
        """Ctrl-C reaches the whole process group: the sweep drains once,
        exits 130 with no failed rows, and a rerun with the journal
        finishes byte-identical to an uninterrupted serial run."""
        clean = _clean_manifest(tmp_path, BIG_GRID)
        proc = self._sweep(tmp_path, start_new_session=True)
        _wait_for_done_row(proc, tmp_path / "journal.jsonl")
        os.killpg(proc.pid, signal.SIGINT)
        _out, err = proc.communicate(timeout=60)
        assert proc.returncode == 130, err
        assert "FAILED" not in err
        assert err.count("[draining") == 1  # workers ignore the signal
        assert "resume with --journal" in err
        self._resume(tmp_path, clean)

    def test_sigkilled_sweep_resumes_byte_identical(self, tmp_path):
        clean = _clean_manifest(tmp_path, BIG_GRID)
        proc = self._sweep(tmp_path)
        _wait_for_done_row(proc, tmp_path / "journal.jsonl")
        proc.kill()
        proc.communicate(timeout=30)  # its workers hold the pipes until
        self._resume(tmp_path, clean)  # they notice the parent is gone

    def test_workers_exit_when_parent_is_killed(self):
        script = ("import multiprocessing, time\n"
                  "from repro.harness.sweep import shared_pool\n"
                  "shared_pool(2)\n"
                  "print(*[p.pid for p in multiprocessing.active_children()],"
                  " flush=True)\n"
                  "time.sleep(60)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(p) for p in pids)
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(map(_running, pids)):
            time.sleep(0.05)
        survivors = [p for p in pids if _running(p)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors


class TestScrubCli:
    def test_scrub_cli_detects_and_repairs(self, tmp_path, capsys):
        from repro.__main__ import main

        cache = tmp_path / "cache"

        def corrupt_entry():
            # a fresh store each time: the memory layer must not mask
            # the quarantined disk entry
            result = run_sweep("program=seq scale=smoke seed=0", jobs=1,
                               store=TraceStore(disk_dir=cache))
            digest = result.entries[0].digest
            npz = cache / f"{digest}.npz"
            npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])

        corrupt_entry()
        assert main(["cache", "scrub", "--dir", str(cache)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert "1 quarantined" in out

        # The corrupt entry was quarantined (and its sidecar with it);
        # re-produce and re-corrupt, then repair in a single pass.
        corrupt_entry()
        assert main(["cache", "scrub", "--dir", str(cache),
                     "--repair"]) == 0
        assert "1 repaired" in capsys.readouterr().out

        assert main(["cache", "scrub", "--dir", str(cache)]) == 0


# ---------------------------------------------------------------------------
# Recovery tallies for the resilience layer
# ---------------------------------------------------------------------------


class TestResilienceTelemetry:
    def test_counters_emitted(self, tmp_path):
        """``SweepResult.resilience`` tallies retries, quarantines and
        journal replays."""
        store = TraceStore(disk_dir=tmp_path / "cache")
        retry = RetryPolicy(max_attempts=2, backoff_base=0.001)
        failing = run_sweep("program=sor scale=smoke seed=0 nprocs=0",
                            jobs=1, store=store, retry=retry)
        assert failing.resilience["retries"] >= 1
        assert failing.resilience["quarantined"] >= 1
        journal = SweepJournal(tmp_path / "j.jsonl")
        run_sweep("program=seq scale=smoke seed=0", jobs=1, store=store,
                  journal=journal)
        journal.close()
        journal2 = SweepJournal(tmp_path / "j.jsonl")
        resumed = run_sweep("program=seq scale=smoke seed=0", jobs=1,
                            store=store, journal=journal2)
        journal2.close()
        assert resumed.resilience["replayed"] >= 1
