"""CI bench gate: fail on events/sec regressions.

Re-measure every program with ``bench_runtime.measure_program`` and
compare events/sec per program to the numbers committed in
``BENCH_runtime.json``.  Any program more than ``--tolerance`` (default
10%) *slower* fails the gate; faster is always fine.  The fresh
measurements are written to ``--out`` so CI can upload them as an
artifact and a human can decide whether an improvement should be
committed as the new baseline.

Wall clocks on shared CI runners are noisy; the bench check therefore
compares best-of-``reps`` runs (the same protocol that produced the
committed file) and only gates on regressions beyond the tolerance.
Set ``REPRO_BENCH_RUNTIME_REPS`` to raise the rep count on noisy
runners.

Exit status: 0 clean, 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
BASELINE_PATH = HERE / "BENCH_runtime.json"


def _load_baseline(path: Path) -> dict:
    doc = json.loads(path.read_text())
    return {row["program"]: row for row in doc["results"]}


def check_bench(baseline_path: Path, out_path: Path, tolerance: float) -> int:
    from bench_runtime import PROGRAMS, REPS, SCALE, SEED, measure_program

    baseline = _load_baseline(baseline_path)
    failures = 0
    results = []
    for name in PROGRAMS:
        result = measure_program(name)
        results.append(result)
        base = baseline.get(name)
        if base is None:
            print(f"{name:<8} NEW (no baseline) "
                  f"events/s={result['events_per_second']}")
            continue
        new = result["events_per_second"]
        old = base["events_per_second"]
        ratio = new / old if old else float("inf")
        verdict = "ok"
        if ratio < 1.0 - tolerance:
            verdict = "REGRESSION"
            failures += 1
        print(f"{name:<8} events/s {old:>9} -> {new:>9}  "
              f"({ratio:.1%} of baseline)  {verdict}")
    out_path.write_text(json.dumps({
        "schema": 1,
        "scale": SCALE,
        "seed": SEED,
        "reps": REPS,
        "tolerance": tolerance,
        "baseline": str(baseline_path),
        "results": results,
    }, indent=1) + "\n")
    print(f"[wrote {out_path}]")
    if failures:
        print(f"FAIL: {failures} program(s) regressed more than "
              f"{tolerance:.0%} below the committed baseline")
        return 1
    print(f"bench gate clean (tolerance {tolerance:.0%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", action="store_true",
                        help="run the events/sec regression check (the "
                             "default and only check)")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH,
                        help="committed BENCH_runtime.json to compare against")
    parser.add_argument("--out", type=Path,
                        default=HERE / "BENCH_runtime.new.json",
                        help="where to write the fresh measurements")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed events/sec drop before failing "
                             "(fraction, default 0.10)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    return check_bench(args.baseline, args.out, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
