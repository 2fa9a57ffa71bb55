"""Tests of the benchmark itself.  Not part of the tier-1 suite (which
collects only ``tests/``); run them explicitly with ``pytest bench``.

Each workload runs with its set-up and one timed rep; the traced run
uses one comparison rep and tiny microbenchmark budgets.  Every metric
named in BENCHMARK.json must come out with its unit, and every output
check must pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "MIN_REPS", dict.fromkeys(WORKLOADS, 1))
    monkeypatch.setattr(run, "TRACE_BASE_REPS", 1)
    monkeypatch.setattr(layers, "MIN_SECONDS", 0.01)
    monkeypatch.setattr(layers, "RUNS", 1)


def _assert_contract(record, spec):
    assert record["correct"], record["problems"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    line = json.loads(run.contract_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_and_checks(quick, name):
    record = run.run_one(name, 0, trace=0, seconds=0)
    _assert_contract(record, run.SPEC["end_to_end"])
    assert record["reference"], "seed 0 must be checked against expected.json"
    metrics = record["metrics"]
    assert metrics["setup_s"]["value"] > 0 and metrics["wall_s"]["value"] > 0
    if name.startswith("sweep-"):
        for key in ("key_p50_s", "key_p90_s"):
            assert metrics[key]["n"] == 24
            assert metrics[key]["q1"] <= metrics[key]["q3"]


def test_per_layer_metrics_and_checks(quick):
    record = run.run_one("sweep-switched", 0, trace=1, seconds=0)
    _assert_contract(record, run.SPEC["per_layer"])
    metrics = record["metrics"]
    assert metrics["net.collisions_per_frame"]["value"] == 0
    assert metrics["net.attempts_per_frame"]["value"] == 1


def _results(path, walls, events):
    runs = []
    for seed, (wall, count) in enumerate(zip(walls, events)):
        runs.append({"workload": "all-cold", "seed": seed, "trace": 0, "metrics": {
            "wall_s": {"value": wall, "unit": "s", "better": "lower", "bound": 0.1}}})
        runs.append({"workload": "all-cold", "seed": seed, "trace": 1, "metrics": {
            "des.events": {"value": count, "unit": "count", "exact": True}}})
    path.write_text(json.dumps({"schema": 1, "runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _results(tmp_path / "a.json", [1.0, 1.01, 0.99, 1.0], [5, 6, 7, 8])
    same = _results(tmp_path / "b.json", [1.01, 1.0, 1.0, 0.99], [5, 6, 7, 8])
    slow = _results(tmp_path / "c.json", [1.2, 1.21, 1.19, 1.2], [5, 6, 7, 8])
    noisy = _results(tmp_path / "d.json", [0.8, 1.2, 1.0, 1.3], [5, 6, 7, 8])
    drift = _results(tmp_path / "e.json", [1.0, 1.01, 0.99, 1.0], [5, 6, 7, 9])
    assert compare.main([base, same]) == 0
    assert compare.main([base, slow]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([base, noisy]) == 1
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([base, drift]) == 1
    assert "DIFFERS on seeds [3]" in capsys.readouterr().out
