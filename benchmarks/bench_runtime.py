"""Simulator runtime benchmark: wall clock and events/sec per program.

Measures what ``repro profile`` reports — end-to-end wall time and DES
event throughput for the six measured programs at replication scale
(``smoke``, the scale the replication harness sweeps seeds at) — and
records the numbers in ``BENCH_runtime.json`` so the simulator's own
performance trajectory is tracked alongside the paper's reproduced
figures.

The observer overhead contract (docs/architecture.md, "Observers") is
asserted here too: with nothing subscribed every hook site costs one
``sim.probe is not None`` test, and the estimated total — hook calls a
counting subscriber sees x the measured cost of one test — must stay
at or under 2% of the unobserved run's wall time, for SOR on the bus
and 2DFFT on the switched fabric (the two media fire different hooks).

Run as a pytest module (``pytest benchmarks/bench_runtime.py``) or as a
script (``python benchmarks/bench_runtime.py``) to rewrite the JSON.

Wall time is read through the telemetry clock callable (never a direct
``time.perf_counter()`` call) so this module stays simlint-clean under
SIM001 with the rest of the benchmark suite.
"""

from __future__ import annotations

import json
import os
import platform
import timeit
from pathlib import Path

BENCH_SCHEMA_VERSION = 1

#: Replication scale: what ``repro replicate`` sweeps seeds at.
SCALE = os.environ.get("REPRO_BENCH_RUNTIME_SCALE", "smoke")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
REPS = int(os.environ.get("REPRO_BENCH_RUNTIME_REPS", "3"))

PROGRAMS = ("sor", "2dfft", "t2dfft", "seq", "hist", "airshed")

RESULT_PATH = Path(__file__).parent / "BENCH_runtime.json"

#: (program, medium) pairs the disabled-overhead estimate runs.
OVERHEAD_RUNS = (("sor", "ethernet"), ("2dfft", "switched"))


def runtime_meta() -> dict:
    """The measurement environment: the Python interpreter.

    Recorded in ``BENCH_runtime.json`` so a regression can be told apart
    from a changed environment (a different interpreter) when comparing
    against the committed baseline.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def _wall_clock():
    """The injectable wall clock telemetry itself uses."""
    from repro.telemetry import Telemetry

    return Telemetry().clock


def measure_program(name: str, scale: str = SCALE, seed: int = SEED,
                    reps: int = REPS) -> dict:
    """Best-of-``reps`` wall time and throughput for one program.

    One extra instrumented rep supplies the event/hook counts; the timed
    reps run with telemetry disabled, so the recorded wall time is the
    production configuration's.
    """
    from repro.programs import run_measured
    from repro.telemetry import profile_program

    profiled = profile_program(name, scale=scale, seed=seed)
    clock = _wall_clock()
    walls = []
    for _ in range(reps):
        t0 = clock()
        run_measured(name, scale=scale, seed=seed)
        walls.append(clock() - t0)
    wall = min(walls)
    events = profiled.events_popped
    return {
        "program": name,
        "scale": scale,
        "seed": seed,
        "reps": reps,
        "wall_seconds": round(wall, 6),
        "sim_seconds": round(profiled.cluster.sim.now, 6),
        "events_popped": events,
        "events_per_second": round(events / wall) if wall > 0 else 0,
        "packets": len(profiled.trace),
    }


class HookCounter:
    """A subscriber implementing every site hook: each call it counts
    is one ``is not None`` test an unobserved run makes.

    ``on_pop`` is left out because ``run()`` tests it once per run, not
    once per event.
    """

    def __init__(self):
        self.calls = 0

    def __getattr__(self, hook):
        from repro.des.probe import HOOKS

        if hook == "on_pop" or hook not in HOOKS:
            raise AttributeError(hook)
        return self._count

    def _count(self, *_args) -> None:
        self.calls += 1


def per_check_seconds(samples: int = 200_000) -> float:
    """Measured cost of one disabled hook test (attribute load + is),
    best of three so a cold first pass does not count."""
    from repro.des import Simulator

    sim = Simulator()
    assert sim.probe is None
    return min(timeit.repeat("sim.probe is not None", globals={"sim": sim},
                             number=samples, repeat=3)) / samples


def disabled_overhead_estimate(name: str = "sor", medium: str = "ethernet",
                               scale: str = SCALE, seed: int = SEED) -> dict:
    """Estimated cost of the hook sites in one unobserved run: hook calls
    x the cost of one test, as a share of the best-of-``REPS`` wall time.
    """
    from repro.fx import FxCluster, FxRuntime
    from repro.programs import make_program, run_measured
    from repro.programs.calibration import ITERATIONS, work_model_for

    clock = _wall_clock()
    walls = []
    for _ in range(REPS):
        t0 = clock()
        run_measured(name, scale=scale, seed=seed,
                     cluster_kwargs={"medium": medium})
        walls.append(clock() - t0)
    wall = min(walls)
    # Subscribed after the cluster is built, as qmon is: components bind
    # the probe at first resume, so the counter still sees every hook.
    cluster = FxCluster(n_machines=5, seed=seed, medium=medium)
    counter = cluster.sim.subscribe(HookCounter())
    FxRuntime(cluster, 4, work_model_for(name, seed=seed)).execute(
        make_program(name), ITERATIONS[name][scale])
    check = per_check_seconds()
    overhead = counter.calls * check
    return {
        "program": name,
        "medium": medium,
        "hook_calls": counter.calls,
        "per_check_seconds": check,
        "overhead_seconds": round(overhead, 9),
        "wall_seconds": round(wall, 6),
        "overhead_share": round(overhead / wall if wall else 0.0, 6),
    }


# -- pytest entry points ----------------------------------------------


def test_all_programs_complete_and_report_throughput():
    for name in PROGRAMS:
        result = measure_program(name, reps=1)
        assert result["events_popped"] > 0, name
        assert result["events_per_second"] > 0, name
        assert result["packets"] > 0, name


def test_disabled_overhead_within_two_percent():
    """The observer contract: with nothing subscribed, the hook sites
    cost <= 2% of the run's wall clock, on the bus and switched."""
    for name, medium in OVERHEAD_RUNS:
        estimate = disabled_overhead_estimate(name, medium)
        assert estimate["overhead_share"] <= 0.02, estimate


def test_bench_result_file_is_current_schema():
    doc = json.loads(RESULT_PATH.read_text())
    assert doc["schema"] == BENCH_SCHEMA_VERSION
    assert doc["meta"]["python"]
    assert {r["program"] for r in doc["results"]} == set(PROGRAMS)
    for row in doc["results"]:
        assert row["events_per_second"] > 0
    overhead = doc["observer_overhead"]
    assert [(r["program"], r["medium"]) for r in overhead] == list(OVERHEAD_RUNS)
    assert all(r["overhead_share"] <= 0.02 for r in overhead)


# -- script entry point -----------------------------------------------


def main() -> int:
    results = []
    for name in PROGRAMS:
        result = measure_program(name)
        results.append(result)
        print(f"{name:<8} wall={result['wall_seconds'] * 1e3:8.1f} ms  "
              f"events={result['events_popped']:>8}  "
              f"events/s={result['events_per_second']:>9}  "
              f"packets={result['packets']:>7}")
    overhead = [disabled_overhead_estimate(name, medium)
                for name, medium in OVERHEAD_RUNS]
    for est in overhead:
        print(f"disabled-mode observer overhead ({est['program']}, "
              f"{est['medium']}): {est['overhead_share']:.4%} "
              f"({est['hook_calls']} hook calls x "
              f"{est['per_check_seconds'] * 1e9:.1f} ns)")
    doc = {
        "schema": BENCH_SCHEMA_VERSION,
        "scale": SCALE,
        "seed": SEED,
        "reps": REPS,
        "meta": runtime_meta(),
        "results": results,
        "observer_overhead": overhead,
    }
    RESULT_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"[wrote {RESULT_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
