"""Tests for the python -m repro command-line interface."""

import json

import pytest

from repro.__main__ import main


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("fig1", "fig11", "model", "qos", "baseline",
                   "abl-bandwidth", "abl-interfere"):
        assert exp_id in out


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
