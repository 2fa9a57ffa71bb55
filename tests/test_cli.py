"""Tests for the python -m repro command-line interface."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main, trace_batch
from repro.capture import load_npz
from repro.des import Simulator
from repro.harness import EXPERIMENTS, TraceKey, TraceStore, run_experiment
from repro.harness import runner
from repro.harness.sweep import pool_stats
from repro.telemetry import process_telemetry


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("fig1", "fig11", "model", "qos", "baseline",
                   "abl-bandwidth", "abl-interfere"):
        assert exp_id in out


def test_list_into_closed_pipe_exits_quietly():
    """A reader that exits first (``repro list | true``) ends the command
    with the shell's SIGPIPE status and no BrokenPipeError traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "repro", "list"],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              stdout=write_end, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_run_static_experiment(capsys):
    assert main(["run", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "Fx kernels" in out
    assert "PASS" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2


def test_run_with_export(tmp_path, capsys):
    assert main(["run", "fig1", "--export", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "fig1" / "manifest.json").read_text())
    assert manifest["exp_id"] == "fig1"
    assert all(manifest["checks"].values())


def test_run_with_scale_and_seed(capsys):
    assert main(["run", "fig5", "--scale", "smoke", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "2DFFT" in out


def test_trace_npz(tmp_path, capsys):
    out_file = tmp_path / "t.npz"
    assert main(["trace", "hist", "--scale", "smoke", "--out", str(out_file)]) == 0
    from repro.capture import load_npz

    trace = load_npz(out_file)
    assert len(trace) > 0


def test_trace_text(tmp_path):
    out_file = tmp_path / "t.txt"
    assert main(["trace", "hist", "--scale", "smoke", "--out", str(out_file),
                 "--text"]) == 0
    assert "tcp" in out_file.read_text()


def test_trace_unknown_program():
    assert main(["trace", "nope", "--out", "/tmp/x.npz"]) == 2


class TestQmonCli:
    def test_qmon_prints_summary_and_digest(self, capsys):
        assert main(["qmon", "sor", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "sha256=" in out
        assert "port0:" in out
        assert "qmon:" in out

    def test_qmon_out_is_byte_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.qmon.json"
        b = tmp_path / "b.qmon.json"
        assert main(["qmon", "sor", "--scale", "smoke",
                     "--out", str(a)]) == 0
        assert main(["qmon", "sor", "--scale", "smoke",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        from repro.netmon import validate_qmon

        assert validate_qmon(doc) == []
        assert doc["meta"]["program"] == "sor"

    def test_qmon_digest_matches_unmonitored_trace(self, tmp_path, capsys):
        out_file = tmp_path / "t.npz"
        assert main(["trace", "sor", "--scale", "smoke", "--route",
                     "switched", "--out", str(out_file)]) == 0
        trace_out = capsys.readouterr().out
        assert main(["qmon", "sor", "--scale", "smoke"]) == 0
        qmon_out = capsys.readouterr().out
        trace_sha = [l for l in trace_out.splitlines() if "sha256=" in l]
        qmon_sha = [l for l in qmon_out.splitlines() if "sha256=" in l]
        assert trace_sha and trace_sha == qmon_sha

    def test_qmon_unknown_program_exits_2(self, capsys):
        assert main(["qmon", "nope"]) == 2

    def test_qmon_emit_chrome(self, tmp_path, capsys):
        chrome = tmp_path / "q.trace.json"
        assert main(["qmon", "hist", "--scale", "smoke",
                     "--emit-chrome", str(chrome)]) == 0
        capsys.readouterr()
        events = json.loads(chrome.read_text())["traceEvents"]
        assert any(ev.get("ph") == "C" and "queue depth" in ev.get("name", "")
                   for ev in events)


class TestTraceSwitchedRoute:
    def test_prints_per_port_queue_summary(self, tmp_path, capsys):
        out_file = tmp_path / "t.npz"
        assert main(["trace", "2dfft", "--scale", "smoke", "--route",
                     "switched", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "switched: max queue depth" in out
        assert "port0:" in out

    def test_direct_route_has_no_queue_summary(self, tmp_path, capsys):
        out_file = tmp_path / "t.npz"
        assert main(["trace", "2dfft", "--scale", "smoke",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "switched:" not in out


class TestSweepQmonCli:
    def test_sweep_qmon_dir_writes_manifests(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        qdir = tmp_path / "qmon"
        rc = main(["sweep", "program=sor scale=smoke seed=0 route=switched",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--qmon-dir", str(qdir), "--quiet"])
        assert rc == 0
        capsys.readouterr()
        files = sorted(qdir.glob("*.qmon.json"))
        assert len(files) == 1
        from repro.netmon import validate_qmon

        assert validate_qmon(json.loads(files[0].read_text())) == []


class TestTraceCacheChoice:
    """``--no-cache`` is memory-only; otherwise ``--cache-dir``, then
    ``REPRO_TRACE_CACHE``, then ``results/.trace-cache``."""

    @pytest.fixture
    def warm_env_cache(self, tmp_path, monkeypatch):
        """A disk cache holding fig8's trace, named by REPRO_TRACE_CACHE."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(runner, "_STORE", runner._STORE)
        warm = tmp_path / "warm"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["cache", "warm", "--scale", "smoke",
                         "--programs", "airshed", "--dir", str(warm)]) == 0
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(warm))
        return warm

    @pytest.mark.parametrize("flags, env", [
        (["--no-cache"], None),
        (["--telemetry"], None),
        (["--sanitize"], None),
        ([], "REPRO_SANITIZE"),
    ], ids=["no-cache", "telemetry", "sanitize", "env-sanitize"])
    def test_unwarmed_runs_simulate_in_process(self, warm_env_cache, flags,
                                               env, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv(env, "1")
        started = pool_stats()["started"]
        assert main(["run", "fig8", "--scale", "smoke"] + flags) == 0
        out = capsys.readouterr().out
        store = runner.trace_store()
        assert store.disk_dir is None and store.stats.misses == 1
        assert pool_stats()["started"] == started
        if "--telemetry" in flags:
            summary = re.search(r"^telemetry: (\d+) counters, (\d+) spans$",
                                out, re.MULTILINE)
            assert summary and int(summary.group(2)) > 0

    def test_observer_flags_end_with_the_command(self, tmp_path,
                                                 monkeypatch, capsys):
        """``--telemetry``/``--sanitize`` observe the command's own
        simulators, not those the calling process builds afterwards."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert main(["trace", "sor", "--scale", "smoke", "--no-cache",
                     "--telemetry", "--sanitize",
                     "--out", str(tmp_path / "t.npz")]) == 0
        assert "telemetry:" in capsys.readouterr().out
        assert process_telemetry() is None
        sim = Simulator()
        assert sim.telemetry is None and sim.sanitizer is None
        assert main(["trace", "hist", "--scale", "smoke", "--no-cache",
                     "--out", str(tmp_path / "h.npz")]) == 0
        assert "telemetry:" not in capsys.readouterr().out

    def test_fault_plan_ends_with_the_command(self, tmp_path, capsys):
        """``--faults`` keys and simulates the command's own traces, not
        those a later command in the same process produces."""
        assert main(["trace", "sor", "--scale", "smoke", "--no-cache",
                     "--faults", "loss=0.01,seed=1",
                     "--out", str(tmp_path / "t.npz")]) == 0
        assert "faults: " in capsys.readouterr().out
        assert runner.default_faults() is None

    @pytest.mark.parametrize("command", [
        ["sweep", "program=sor scale=smoke seed=0"],
        ["cache", "stats"], ["cache", "clear"], ["cache", "scrub"],
        ["cache", "warm"],
    ], ids=["sweep", "cache-stats", "cache-clear", "cache-scrub",
            "cache-warm"])
    def test_telemetry_flag_only_on_simulating_commands(self, command,
                                                        capsys):
        """The store, the sweep engine and the pool count what ``sweep``
        and ``cache`` do, and those commands print the counts, so only
        ``run``/``all``/``trace`` take ``--telemetry``."""
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--telemetry"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --telemetry" in capsys.readouterr().err

    def test_env_var_chooses_the_disk_cache(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(runner, "_STORE", runner._STORE)
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "env"))
        assert main(["run", "fig8", "--scale", "smoke"]) == 0
        assert main(["run", "fig8", "--scale", "smoke",
                     "--cache-dir", str(tmp_path / "flag")]) == 0
        capsys.readouterr()
        assert len(list((tmp_path / "env").glob("*.npz"))) == 1
        assert len(list((tmp_path / "flag").glob("*.npz"))) == 1
        assert not (tmp_path / "results").exists()


@pytest.fixture(scope="module")
def all_smoke(tmp_path_factory):
    """``repro all --scale smoke`` pooled (``--jobs 2``) and serial
    (``--jobs 1``), each into fresh cache and export directories."""
    root = tmp_path_factory.mktemp("all-smoke")
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_STORE", runner._STORE)
        for jobs in (2, 1):
            cache, export = root / f"cache{jobs}", root / f"export{jobs}"
            started = pool_stats()["started"]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["all", "--scale", "smoke", "--jobs", str(jobs),
                           "--cache-dir", str(cache),
                           "--export", str(export)])
            runs[jobs] = {
                "rc": rc, "cache": cache, "export": export,
                "misses": runner.trace_store().stats.misses,
                "pools": pool_stats()["started"] - started,
                "alive": pool_stats()["alive"],
            }
    return runs


class TestTraceBatch:
    def test_longest_first_and_deduplicated(self):
        batch = trace_batch(EXPERIMENTS, "smoke", 0)
        assert [spec[0] for spec in batch] == [
            "airshed", "2dfft", "t2dfft", "seq", "hist", "sor"]

    def test_run_without_traces_starts_no_pool(self, capsys):
        assert trace_batch(["fig1"], "smoke", 0) == []
        started = pool_stats()["started"]
        assert main(["run", "fig1"]) == 0
        assert pool_stats()["started"] == started

    def test_all_smoke_exits_zero(self, all_smoke):
        assert all_smoke[2]["rc"] == 0 and all_smoke[1]["rc"] == 0

    def test_pooled_run_is_served_by_the_batch(self, all_smoke):
        pooled, serial = all_smoke[2], all_smoke[1]
        assert pooled["pools"] == 1 and serial["pools"] == 0
        assert pooled["misses"] == 0
        assert pooled["alive"] == 0 and serial["alive"] == 0

    def test_pooled_and_serial_exports_identical(self, all_smoke):
        pooled, serial = all_smoke[2]["export"], all_smoke[1]["export"]
        files = sorted(p.relative_to(serial) for p in serial.rglob("*")
                       if p.is_file())
        assert files == sorted(p.relative_to(pooled)
                               for p in pooled.rglob("*") if p.is_file())
        for rel in files:
            a, b = (serial / rel).read_bytes(), (pooled / rel).read_bytes()
            if rel.name == "manifest.json":
                a, b = json.loads(a), json.loads(b)
                a.pop("trace_pipeline"), b.pop("trace_pipeline")
            assert a == b, rel

    def test_pooled_and_serial_traces_identical(self, all_smoke):
        def shas(cache):
            return {p.stem: json.loads(p.read_text())["trace_sha256"]
                    for p in cache.glob("*.json")}

        serial = shas(all_smoke[1]["cache"])
        assert len(serial) == 6
        assert shas(all_smoke[2]["cache"]) == serial

    @pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
    def test_runner_declares_every_trace_it_reads(self, exp_id, all_smoke,
                                                  monkeypatch):
        # Only the runner's own batch is in the store: an undeclared
        # get_trace would be a miss.
        store = TraceStore()
        for name, scale, seed, overrides in trace_batch([exp_id], "smoke", 0):
            key = TraceKey.make(name, scale=scale, seed=seed, **overrides)
            store.put(key, load_npz(all_smoke[1]["cache"] /
                                    f"{key.digest()}.npz"))
        monkeypatch.setattr(runner, "_STORE", store)
        run_experiment(exp_id, scale="smoke", seed=0)
        assert store.stats.misses == 0
