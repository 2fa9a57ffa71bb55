"""Compare two benchmark results files metric by metric.

    python bench/compare.py A.json B.json

A and B are files written by ``bench/run.py`` (A is the baseline).  For
every end-to-end metric on every workload it prints both sides' median
and quartiles, their spread (interquartile distance over the median),
the ratio B/A and a verdict against the metric's bound:

* ``unresolved`` -- either side's spread exceeds the bound, so the runs
  cannot tell a change of that size from noise (unless every run of B
  reads better than every run of A, which is ``ok``);
* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``ok`` -- otherwise.

A side's samples are its runs' medians when it holds several runs (one
per seed, from ``run.py --runs K``), or the reps of its single run.  For
per-layer metrics it prints both medians and the ratio, and for each
count that must repeat exactly, whether it did on every seed both sides
ran.  Exits non-zero on any ``regressed`` or ``unresolved`` verdict or
any count that differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path):
    """``{(workload, trace, metric): [(seed, record), ...]}``."""
    groups = defaultdict(list)
    for run in json.loads(Path(path).read_text())["runs"]:
        for metric, record in run["metrics"].items():
            groups[(run["workload"], run["trace"], metric)].append((run["seed"], record))
    return groups


def distribution(runs):
    """(q1, median, q3, samples) of one side."""
    if len(runs) == 1:
        record = runs[0][1]
        return (record.get("q1", record["value"]), record["value"],
                record.get("q3", record["value"]),
                record.get("samples", [record["value"]]))
    values = [record["value"] for _, record in runs]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, values


def spread(q1, median, q3):
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a, b, better, bound):
    (qa1, ma, qa3, va), (qb1, mb, qb3, vb) = a, b
    sign = 1 if better == "lower" else -1
    if spread(qa1, ma, qa3) > bound or spread(qb1, mb, qb3) > bound:
        all_better = (max(vb) < min(va)) if sign > 0 else (min(vb) > max(va))
        return "ok" if all_better else "unresolved"
    worse = sign * (mb - ma)
    if worse > bound * abs(ma) or (bound == 0 and worse > 0):
        return "regressed"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline results JSON")
    parser.add_argument("b", help="results JSON to compare against it")
    args = parser.parse_args(argv)
    side_a, side_b = load(args.a), load(args.b)
    failures = 0

    print(f"{'workload':<15} {'metric':<14} {'A median [q1, q3] spread n':<42} "
          f"{'B median [q1, q3] spread n':<42} {'B/A':>7}  verdict")
    for key in sorted(k for k in side_a if k in side_b and k[1] == 0):
        workload, _, metric = key
        record = side_a[key][0][1]
        if "bound" not in record:
            continue
        cols = []
        for side in (side_a[key], side_b[key]):
            q1, median, q3, samples = distribution(side)
            cols.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] "
                        f"{spread(q1, median, q3):.1%} n={len(samples)}")
        a, b = distribution(side_a[key]), distribution(side_b[key])
        ratio = b[1] / a[1] if a[1] else (1.0 if b[1] == a[1] else float("inf"))
        result = verdict(a, b, record["better"], record["bound"])
        failures += result != "ok"
        print(f"{workload:<15} {metric:<14} {cols[0]:<42} {cols[1]:<42} "
              f"{ratio:>7.3f}  {result} (bound {record['bound']:.0%})")

    print()
    print(f"{'workload':<15} {'per-layer metric':<40} {'A median':>12} "
          f"{'B median':>12} {'B/A':>7}  exact")
    for key in sorted(k for k in side_a if k in side_b and k[1] == 1):
        workload, _, metric = key
        a, b = distribution(side_a[key]), distribution(side_b[key])
        ratio = b[1] / a[1] if a[1] else (1.0 if b[1] == a[1] else float("inf"))
        exact = ""
        if side_a[key][0][1].get("exact"):
            by_seed = {seed: record["value"] for seed, record in side_a[key]}
            shared = [(seed, by_seed[seed], record["value"])
                      for seed, record in side_b[key] if seed in by_seed]
            differs = [s for s in shared if s[1] != s[2]]
            failures += bool(differs)
            exact = (f"DIFFERS on seeds {[s[0] for s in differs]}" if differs
                     else f"matches on {len(shared)} seed(s)" if shared
                     else "no shared seed")
        print(f"{workload:<15} {metric:<40} {a[1]:>12.5g} {b[1]:>12.5g} "
              f"{ratio:>7.3f}  {exact}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
