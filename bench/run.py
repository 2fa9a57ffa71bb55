"""The repository benchmark: one command runs every workload, prints every
metric by name and unit, and checks that the outputs are right.

    python bench/run.py [--seed N] [--runs K] [--trace] [--out FILE]

Runs the four workloads one after another, each in its own fresh Python
process, and writes every metric with its quartiles and sample count to
FILE (default ``bench/.work/results.json``).  ``--trace`` adds a second,
traced run of each workload for the per-layer metrics; ``--runs K``
repeats the set for seeds N..N+K-1.  ``bench/compare.py`` compares two
such files.

    python bench/run.py --workload W [--seed N] [--seconds T] [--trace 0|1]

One run of one workload.  ``--seconds`` is the timed window, by default
``run_seconds`` from ``BENCHMARK.json``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics named in ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics.  The run exits non-zero when any
output is wrong.

    python bench/run.py --record-expected

Recomputes ``bench/expected.json``: the seeds at which every ``repro
all`` shape criterion passes, and the reference digests for seeds 0 and
1.  Do this only for a deliberate change of simulation output.

Metric definitions, bounds and the reasons behind them are in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no repro source tree under {ROOT / 'src'}: nothing to benchmark")
sys.path.insert(0, str(ROOT / "src"))

from repro.telemetry import Telemetry, write_chrome  # noqa: E402

#: ``setup_s`` counts from here, before the layers are imported.
START = Telemetry(label="bench").clock()

import layers  # noqa: E402
from repro.harness import TraceKey, trace_store  # noqa: E402
from repro.harness.sweep import shutdown_pool  # noqa: E402
from repro.programs import run_measured  # noqa: E402
from workloads import (  # noqa: E402
    CLOCK,
    EXPECTED_PATH,
    JOBS,
    SCALE,
    SWEEP_PROGRAM,
    SWEEP_SCALE,
    WORKLOADS,
    Workload,
    layer_counts,
    measure,
    record_expected,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Reported and compared, but not in BENCHMARK.json: every metric there
#: must exist on every workload, and these exist only on the sweeps
#: (keys) or are zero on a correct run (failed_share).
EXTRA = {
    "key_p50_s": {"unit": "s", "better": "lower", "bound": 0.24},
    "key_p90_s": {"unit": "s", "better": "lower", "bound": 0.24},
    "failed_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
}
#: Per-layer metrics that are pure functions of the seed: two runs of the
#: same code and seed must report them exactly equal.
EXACT = {
    "des.events", "des.events_per_packet", "net.frames",
    "net.attempts_per_frame", "net.collisions_per_frame", "net.utilization",
    "net.nic.max_queue_depth", "transport.segments",
    "transport.acks_per_segment", "pvm.messages", "fx.compute_phases",
    "capture.packets", "net.bus.uncontended_wire_efficiency",
    "net.bus.contended_collisions_per_frame",
}

#: Timed reps per run, at least: at ``run_seconds`` = 20 each workload
#: fits about this many (4.2 s, 0.85 s and 2.4 s a rep).
MIN_REPS = {"all-cold": 5, "all-warm": 20, "sweep-bus": 8, "sweep-switched": 8}
TRACE_BASE_REPS = 3   # untraced reps a traced run compares its spans with
BOOTSTRAP = 200       # resamples behind a key quantile's quartiles
CHILD_TIMEOUT_S = 900
WORK_ROOT = ROOT / "bench" / ".work"
RUN = Path(__file__).resolve()


def summary(values: List[float]) -> dict:
    """Median, quartiles, sample count and the samples."""
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1,
                "samples": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def key_quantile(keys: List[float], percent: int) -> dict:
    """The ``percent``-th percentile of the pooled key walls.  Its
    quartiles and samples are those of the same percentile over bootstrap
    resamples of the keys, so they describe the estimate's noise."""
    def at(values):
        return statistics.quantiles(values, n=100)[percent - 1]

    rng = random.Random(0)
    resampled = [at(rng.choices(keys, k=len(keys))) for _ in range(BOOTSTRAP)]
    q1, _, q3 = statistics.quantiles(resampled, n=4)
    return {"value": at(keys), "q1": q1, "q3": q3, "n": len(keys),
            "samples": resampled}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def end_to_end(workload: Workload, seconds: float) -> Dict[str, dict]:
    workload.set_up()
    setup_s = CLOCK() - START
    reps = measure(workload, seconds, MIN_REPS[workload.name])
    shutdown_pool()
    metrics = {"setup_s": summary([setup_s]),
               "wall_s": summary([r.wall_s for r in reps]),
               "peak_rss_mb": summary([peak_rss_mb()])}
    keys = [k for r in reps for k in r.key_walls]
    if keys:
        metrics["key_p50_s"] = key_quantile(keys, 50)
        metrics["key_p90_s"] = key_quantile(keys, 90)
    check = workload.check
    metrics["failed_share"] = {"value": check.failed / max(check.attempted, 1),
                               "n": check.attempted}
    return metrics


def per_layer(workload: Workload) -> Dict[str, dict]:
    """The traced run: untraced reps for comparison, one traced rep of
    each ``repro all`` direction and of a sweep, the counts, and the
    layer microbenchmarks.  Spans are written as a Chrome trace."""
    workload.set_up()
    base = measure(workload, 0, TRACE_BASE_REPS)
    base_wall = statistics.median(r.wall_s for r in base)

    tel = Telemetry(label=f"bench {workload.name} seed{workload.seed}")
    digests = workload.traced_all(tel, cold=True)
    workload.traced_all(tel, cold=False)
    sweep = workload.traced_sweep(tel, workload.route)
    shutdown_pool()

    def total(track, category, name=None):
        return sum(s.wall_duration for s in tel.spans
                   if s.track == track and s.category == category
                   and (name is None or s.name == name))

    own = sum(s.wall_duration for s in tel.spans if s.track == workload.name)
    key_work = sum(e.wall_seconds for e in sweep.entries)
    values = {
        "trace.overhead_share": (own - base_wall) / base_wall,
        "harness.simulate_s": total("all-cold", "harness.simulate"),
        "harness.cache_write_s": total("all-cold", "harness.cache_write"),
        "harness.cache_read_s": total("all-warm", "harness.cache_read"),
        "harness.analysis_s": total("all-warm", "harness.analysis"),
        "harness.render_s": total("all-warm", "harness.render"),
        "harness.sweep.key_work_s": key_work,
        "harness.sweep.dispatch_s": (total(f"sweep-{workload.route}", "harness.sweep")
                                     - key_work / JOBS),
    }
    for name in PER_LAYER:
        if name.startswith("harness.analysis."):
            exp_id = name[len("harness.analysis."):-len("_s")]
            values[name] = total("all-warm", "harness.analysis", exp_id)

    if workload.is_sweep:
        digests = {e.key.name: e.trace_sha256 for e in sweep.entries
                   if e.key.seed == workload.seed}
        route = "switched" if workload.route == "switched" else "direct"
        walls = []
        for _ in range(3):
            t0 = CLOCK()
            run_measured(SWEEP_PROGRAM, scale=SWEEP_SCALE, seed=workload.seed,
                         route=route)
            walls.append(CLOCK() - t0)
        simulate_s = statistics.median(walls)
    else:
        simulate_s = values["harness.simulate_s"]
    values.update(layer_counts(workload, digests))
    values["des.host_us_per_event"] = simulate_s / values["des.events"] * 1e6

    key = TraceKey.make(SWEEP_PROGRAM, scale=SCALE, seed=workload.seed)
    trace = trace_store().get(key.name, scale=key.scale, seed=key.seed)
    values.update(layers.run_all(workload.check, workload.work / "layers",
                                 trace, key, layers.MIN_SECONDS, layers.RUNS))
    write_chrome(tel, WORK_ROOT / f"spans-{workload.name}-seed{workload.bench_seed}.json")
    return {name: {"value": value, "exact": name in EXACT}
            for name, value in values.items()}


def run_one(name: str, seed: int, trace: int,
            seconds: float = SPEC["run_seconds"]) -> dict:
    """One run of one workload, as a self-describing result record."""
    work = WORK_ROOT / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = Workload(name, seed, work)
    check = workload.check
    try:
        metrics = per_layer(workload) if trace else end_to_end(workload, seconds)
    finally:
        shutdown_pool()
        shutil.rmtree(work, ignore_errors=True)
    wanted = PER_LAYER if trace else END_TO_END
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for metric, record in metrics.items():
        spec = wanted.get(metric) or EXTRA.get(metric)
        if spec is None:
            raise RuntimeError(f"metric {metric!r} is not in BENCHMARK.json")
        record.update({k: spec[k] for k in ("unit", "better", "bound") if k in spec})
    return {"workload": name, "seed": seed, "input_seed": workload.seed,
            "trace": trace, "seconds": seconds, "jobs": JOBS,
            "reference": workload.ref is not None,
            "correct": check.failed == 0, "attempted": check.attempted,
            "failed": check.failed, "problems": check.problems,
            "metrics": metrics}


def print_record(record: dict) -> None:
    for metric, m in record["metrics"].items():
        spread = ""
        if "q1" in m and m["n"] > 1:
            spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
        elif "n" in m:
            spread = f"  [n={m['n']}]"
        print(f"{record['workload']:<15} {metric:<40} {m['value']:>14.6g} "
              f"{m['unit']:<10}{spread}")
    checked = ("trace digests, sweep manifests, shape criteria and key errors"
               if record["reference"] else
               "shape criteria and key errors only (no reference digests "
               f"for input seed {record['input_seed']})")
    print(f"{record['workload']:<15} correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']}; "
          f"checked {checked}")
    for problem in record["problems"]:
        print(f"{record['workload']:<15} FAILED {problem}")


def contract_line(record: dict) -> str:
    wanted = PER_LAYER if record["trace"] else END_TO_END
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name]["value"],
                           "unit": wanted[name]["unit"]} for name in wanted},
    })


def run_child(name: str, seed: int, trace: int) -> dict:
    """One workload run in a fresh interpreter; its result record."""
    out = WORK_ROOT / f"result-{name}-seed{seed}-trace{trace}-{os.getpid()}.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    if not out.exists():
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode} "
                           "without a result")
    record = json.loads(out.read_text())
    out.unlink()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="with --workload: the timed window (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload for seeds N..N+K-1")
    parser.add_argument("--out", type=Path, default=None,
                        help="results JSON (default bench/.work/results.json)")
    parser.add_argument("--record-expected", action="store_true",
                        help="recompute bench/expected.json")
    args = parser.parse_args(argv)
    if [w["name"] for w in SPEC["workloads"]] != list(WORKLOADS):
        parser.error("BENCHMARK.json and bench/workloads.py name different workloads")

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(WORK_ROOT)

    if args.record_expected:
        doc = record_expected(WORK_ROOT)
        shutdown_pool()
        EXPECTED_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED_PATH}")
        return 0

    if args.workload:
        record = run_one(args.workload, args.seed, args.trace, args.seconds)
        if args.out:
            args.out.write_text(json.dumps(record, indent=1))
        print_record(record)
        print(contract_line(record))
        return 0 if record["correct"] else 1

    records = []
    for seed in range(args.seed, args.seed + args.runs):
        for name in WORKLOADS:
            for trace in (0, 1) if args.trace else (0,):
                record = run_child(name, seed, trace)
                print_record(record)
                records.append(record)
    out = args.out or WORK_ROOT / "results.json"
    out.write_text(json.dumps({"schema": 1, "runs": records}, indent=1))
    print(f"[results written to {out}]")
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
