"""Sweep engine benchmark: pooled speedup and warm-cache behaviour.

Measures the acceptance contract of the sharded sweep engine
(:mod:`repro.harness.sweep`) on a 24-run grid — three replication-scale
programs x eight seeds:

* a **cold** sweep at ``--jobs 4`` must beat a cold sweep at
  ``--jobs 1`` by at least :data:`MIN_SPEEDUP` (3x) in wall time, and
* **re-running** the identical sweep must be ~100% cache hits with a
  byte-identical manifest, and
* the **executor** (a persistent ``ProcessPoolExecutor`` with at most
  ``jobs`` keys in flight, one retry loop, an in-worker task timer, and
  a pool rebuild when a worker dies) with chaos off must stay within
  :data:`MAX_OVERHEAD` (5%) of the pre-resilience pooled throughput
  baseline; a seeded kill-worker chaos drill is also timed and must
  recover to a byte-identical manifest.

The speedup assertion needs real parallel hardware: it is enforced only
when the machine has at least :data:`MIN_CPUS` cores (or when
``REPRO_BENCH_SWEEP_FORCE=1`` insists).  The measurement itself always
runs and is recorded in ``BENCH_sweep.json`` — single-core boxes still
track the trend, they just cannot fail a physically impossible gate.
The warm-rerun identity contract has no hardware dependency and is
always enforced.

Run as a pytest module (``pytest benchmarks/bench_sweep.py``) or as a
script (``python benchmarks/bench_sweep.py``) to rewrite the JSON.

Wall time comes from the sweep engine's own telemetry-clock statistics
(never a direct ``time.perf_counter()`` call) so this module stays
simlint-clean under SIM001 with the rest of the benchmark suite.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_SWEEP_SCHEMA_VERSION = 2

#: The measured grid: 3 programs x 8 seeds = 24 content-addressed keys,
#: each heavy enough (~0.3 s simulated production) that pool dispatch
#: overhead stays small against the work it shards.
GRID = os.environ.get(
    "REPRO_BENCH_SWEEP_GRID",
    "program=2dfft,t2dfft,seq scale=smoke seed=0..7",
)

#: Cold pooled-vs-serial wall-clock ratio the engine must reach.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SWEEP_MIN_SPEEDUP", "3.0"))

#: Cores needed before the speedup gate is physically meaningful.
MIN_CPUS = 4

JOBS = int(os.environ.get("REPRO_BENCH_SWEEP_JOBS", "4"))

#: Cold-run repetitions (best wall time wins).  Shared boxes jitter by
#: 10-20%; best-of-3 keeps the 5% overhead tolerance meaningful, the
#: same trick bench_runtime uses for its events/sec gate.
REPS = int(os.environ.get("REPRO_BENCH_SWEEP_REPS", "3"))

#: Cold pooled throughput committed before the resilience layer landed
#: (supervision-free multiprocessing.Pool, this grid, this box).  The
#: executor's chaos-off throughput must stay within :data:`MAX_OVERHEAD`
#: of it — the retry loop and the task timer are bookkeeping, not a tax
#: on the steady state.
BASELINE_KEYS_PER_SECOND = 4.722

#: Largest tolerated chaos-off slowdown vs the pre-resilience baseline.
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_SWEEP_MAX_OVERHEAD",
                                    "0.05"))

#: The chaos plan measured for the recovery-cost record: deterministic
#: worker kills at 30% per (key, attempt), seed 7.
CHAOS_SPEC = "kill-worker=0.3,seed=7"

#: Tolerated chance that the chaos drill quarantines any key.
CHAOS_RISK = 1e-3


def chaos_attempts(kill: float, in_flight: int, keys: int,
                   risk: float = CHAOS_RISK) -> int:
    """Attempts per key that keep a kill-worker drill from quarantining.

    A dead worker breaks the executor, which requeues every in-flight key
    and charges each one attempt, so an attempt fails when *any* of the
    ``in_flight`` keys' workers is killed: with probability at most
    ``1 - (1 - kill) ** in_flight`` (0.51 for 0.3 and two keys).  The
    returned budget bounds the chance that some key exhausts it by
    ``keys * p ** attempts <= risk``.
    """
    p = 1.0 - (1.0 - kill) ** in_flight
    return max(1, math.ceil(math.log(risk / keys) / math.log(p)))

RESULT_PATH = Path(__file__).parent / "BENCH_sweep.json"


def speedup_gate_active() -> bool:
    """Whether this machine can meaningfully fail the 3x speedup gate."""
    if os.environ.get("REPRO_BENCH_SWEEP_FORCE", "") == "1":
        return True
    return (os.cpu_count() or 1) >= MIN_CPUS


def run_benchmark(grid: str = GRID, jobs: int = JOBS,
                  chaos: bool = True, reps: int = REPS) -> dict:
    """Cold serial vs cold pooled vs warm rerun of one grid, plus the
    resilience record: chaos-off pooled throughput vs the
    pre-resilience baseline, and the recovery cost of a seeded
    kill-worker chaos drill (``chaos=False`` skips the drill).

    The cold runs repeat ``reps`` times on fresh caches and the best
    wall time is kept, interleaved serial/pooled so box-load drift
    hits both sides alike."""
    from repro.harness import ChaosPlan
    from repro.harness.store import TraceStore
    from repro.harness.sweep import (
        expand_grid, parse_grid, pool_stats, run_sweep, shutdown_pool)

    parsed = parse_grid(grid)
    keys = len(expand_grid(parsed))
    tmp = Path(tempfile.mkdtemp(prefix="bench-sweep-"))
    try:
        cold_serial = cold_pooled = pooled_store = None
        for rep in range(max(1, reps)):
            serial_store = TraceStore(disk_dir=tmp / f"serial{rep}")
            serial_run = run_sweep(parsed, jobs=1, store=serial_store)
            if (cold_serial is None
                    or serial_run.wall_seconds < cold_serial.wall_seconds):
                cold_serial = serial_run

            rep_store = TraceStore(disk_dir=tmp / f"pooled{rep}")
            pooled_run = run_sweep(parsed, jobs=jobs, store=rep_store)
            if (cold_pooled is None
                    or pooled_run.wall_seconds < cold_pooled.wall_seconds):
                cold_pooled = pooled_run
                pooled_store = rep_store

        warm = run_sweep(parsed, jobs=jobs, store=pooled_store)

        chaos_record = None
        if chaos:
            plan = ChaosPlan.parse(CHAOS_SPEC)
            chaos_jobs = max(jobs, 2)
            chaos_store = TraceStore(disk_dir=tmp / "chaos")
            chaos_run = run_sweep(
                parsed, jobs=chaos_jobs, store=chaos_store, chaos=plan,
                retries=chaos_attempts(plan.kill_worker, chaos_jobs,
                                       keys) - 1)
            chaos_stats = chaos_run.stats()
            chaos_record = {
                "plan": plan.describe(),
                "wall_seconds": chaos_stats["wall_seconds"],
                "keys_per_second": chaos_stats["keys_per_second"],
                "tallies": chaos_stats["resilience"],
                "pool": pool_stats(),
                "manifest_identical": (
                    chaos_run.manifest_json() == cold_serial.manifest_json()),
            }
        shutdown_pool()

        serial_stats = cold_serial.stats()
        pooled_stats = cold_pooled.stats()
        warm_stats = warm.stats()
        speedup = (serial_stats["wall_seconds"] / pooled_stats["wall_seconds"]
                   if pooled_stats["wall_seconds"] > 0 else 0.0)
        supervised_kps = pooled_stats["keys_per_second"]
        overhead = (1.0 - supervised_kps / BASELINE_KEYS_PER_SECOND
                    if BASELINE_KEYS_PER_SECOND > 0 else 0.0)
        return {
            "grid": parsed.describe(),
            "keys": keys,
            "jobs": jobs,
            "cold_serial": serial_stats,
            "cold_pooled": pooled_stats,
            "warm_rerun": warm_stats,
            "speedup": round(speedup, 3),
            "manifests_identical": (
                cold_serial.manifest_json() == cold_pooled.manifest_json()
                == warm.manifest_json()
            ),
            "manifest_sha256": cold_serial.manifest_digest(),
            "warm_hit_rate": (warm_stats["cache_hits"] / keys
                              if keys else 0.0),
            "resilience": {
                "baseline_keys_per_second": BASELINE_KEYS_PER_SECOND,
                "supervised_keys_per_second": supervised_kps,
                "overhead_fraction": round(overhead, 4),
                "max_overhead_fraction": MAX_OVERHEAD,
                "chaos": chaos_record,
            },
            "meta": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "cpu_count": os.cpu_count(),
                "platform": sys.platform,
            },
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# -- pytest entry points ----------------------------------------------


def test_warm_rerun_is_all_hits_with_identical_manifest():
    """The hardware-independent contract, on a small grid: a repeated
    sweep is 100% cache hits and its manifest is byte-identical to the
    cold runs' (serial and pooled alike)."""
    result = run_benchmark(
        grid="program=sor,hist scale=smoke seed=0..3", jobs=2, reps=1)
    assert result["manifests_identical"], result
    assert result["warm_hit_rate"] == 1.0, result
    assert result["warm_rerun"]["produced"] == 0, result


def test_cold_pooled_speedup():
    """The acceptance contract: >= 3x wall-clock at --jobs 4 vs --jobs 1
    on a cold 24-run grid.  Enforced only on machines with >= 4 cores
    (REPRO_BENCH_SWEEP_FORCE=1 overrides); measured regardless."""
    import pytest

    result = run_benchmark()
    assert result["keys"] >= 24, result["keys"]
    assert result["manifests_identical"], result
    assert result["warm_hit_rate"] == 1.0, result
    if not speedup_gate_active():
        pytest.skip(
            f"speedup gate needs >= {MIN_CPUS} cores "
            f"(have {os.cpu_count()}); measured {result['speedup']:.2f}x"
        )
    assert result["speedup"] >= MIN_SPEEDUP, result


def test_chaos_drill_recovers_with_identical_manifest():
    """A seeded kill-worker drill on a small grid must finish with a
    manifest byte-identical to the clean serial run, and the record
    must carry the recovery tallies.  Hardware-independent: chaos
    changes wall time, never bytes."""
    result = run_benchmark(
        grid="program=sor,hist scale=smoke seed=0..2", jobs=2, reps=1)
    record = result["resilience"]["chaos"]
    assert record is not None
    assert record["manifest_identical"], record
    assert record["plan"] == CHAOS_SPEC, record
    assert record["tallies"]["quarantined"] == 0, record


def test_supervised_overhead_within_bounds():
    """The resilience satellite's gate: chaos-off pooled throughput on
    the executor must stay within MAX_OVERHEAD (5%) of the
    pre-resilience baseline.  Like the speedup gate, enforced only on
    hardware comparable to the one that set the baseline."""
    import pytest

    result = run_benchmark(chaos=False)
    overhead = result["resilience"]["overhead_fraction"]
    if not speedup_gate_active():
        pytest.skip(
            f"overhead gate needs >= {MIN_CPUS} cores "
            f"(have {os.cpu_count()}); measured {overhead:+.1%}"
        )
    assert overhead <= MAX_OVERHEAD, result["resilience"]


def test_bench_result_file_is_current_schema():
    doc = json.loads(RESULT_PATH.read_text())
    assert doc["schema"] == BENCH_SWEEP_SCHEMA_VERSION
    assert doc["result"]["keys"] >= 24
    assert doc["result"]["manifests_identical"]
    assert doc["result"]["warm_hit_rate"] == 1.0
    assert doc["result"]["meta"]["python"]
    resilience = doc["result"]["resilience"]
    assert resilience["baseline_keys_per_second"] == BASELINE_KEYS_PER_SECOND
    assert resilience["supervised_keys_per_second"] > 0
    assert resilience["chaos"]["manifest_identical"]


# -- script entry point -----------------------------------------------


def main() -> int:
    result = run_benchmark()
    print(f"grid: {result['grid']}  ({result['keys']} keys)")
    print(f"cold --jobs 1: {result['cold_serial']['wall_seconds']:8.2f}s")
    print(f"cold --jobs {result['jobs']}: "
          f"{result['cold_pooled']['wall_seconds']:8.2f}s "
          f"({result['speedup']:.2f}x)")
    print(f"warm rerun:    {result['warm_rerun']['wall_seconds']:8.2f}s "
          f"({result['warm_rerun']['cache_hits']}/{result['keys']} hits)")
    print(f"manifests identical: {result['manifests_identical']}")
    res = result["resilience"]
    print(f"executor overhead: {res['overhead_fraction']:+.1%} vs "
          f"baseline {res['baseline_keys_per_second']} keys/s "
          f"(limit {res['max_overhead_fraction']:.0%})")
    chaos = res["chaos"]
    print(f"chaos drill [{chaos['plan']}]: "
          f"{chaos['wall_seconds']:.2f}s, "
          f"{chaos['tallies']['requeued']} requeued, "
          f"manifest identical: {chaos['manifest_identical']}")
    gate = "enforced" if speedup_gate_active() else (
        f"not enforced ({os.cpu_count()} core(s) < {MIN_CPUS})")
    print(f"speedup gate >= {MIN_SPEEDUP}x: {gate}")
    doc = {
        "schema": BENCH_SWEEP_SCHEMA_VERSION,
        "result": result,
    }
    RESULT_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"[wrote {RESULT_PATH}]")
    if speedup_gate_active() and result["speedup"] < MIN_SPEEDUP:
        print(f"FAILED: speedup {result['speedup']:.2f}x < {MIN_SPEEDUP}x",
              file=sys.stderr)
        return 1
    if speedup_gate_active() and res["overhead_fraction"] > MAX_OVERHEAD:
        print(f"FAILED: executor overhead "
              f"{res['overhead_fraction']:+.1%} > {MAX_OVERHEAD:.0%}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
