"""The benchmark's four workloads, their checks, and their traced reps.

Every workload is a closed loop with one caller: :meth:`Workload.set_up`
ends with an untimed warm-up rep, then :func:`measure` runs timed reps
back to back, each starting when the previous one has ended.  Every rep
works in fresh directories under the run's work directory, so no rep
sees another's cache or export, except that ``all-warm`` reads the cache
its set-up filled.

* ``all-cold`` -- ``repro all --scale default`` into an empty cache: the
  user's end-to-end path, about 85% simulation of the six programs on
  the contended bus, plus the cache writes, 15 experiments and render.
* ``all-warm`` -- the same command against a filled cache: cache reads,
  analysis and render, no simulation.  A simulator gain shows no change
  here; an analysis gain dominates here.
* ``sweep-bus`` -- a 24-key 2DFFT smoke sweep on the CSMA/CD bus through
  the worker pool: MAC, NIC, TCP and pool dispatch.
* ``sweep-switched`` -- the same grid over the switched fabric: the same
  traffic, but it bypasses ``EthernetBus.transmit``.  A MAC change
  should move ``sweep-bus`` and not this workload; a fabric change the
  opposite; a harness or pool change both equally.

Timings read the wall clock through ``Telemetry().clock``, as the
repository's own benchmarks do.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.__main__ import main as repro_main
from repro.capture import PacketTrace, load_npz, trace_digest
from repro.fx import FxCluster, FxRuntime
from repro.harness import (
    EXPERIMENTS,
    TraceKey,
    TraceStore,
    configure_trace_store,
    export_artifact,
    run_experiment,
    run_sweep,
)
from repro.harness.experiments import TRACE_PROGRAMS, trace_specs
from repro.harness.sweep import SweepResult, shared_pool
from repro.programs import make_program, run_measured
from repro.programs.calibration import ITERATIONS, work_model_for
from repro.telemetry import Telemetry

WORKLOADS = ("all-cold", "all-warm", "sweep-bus", "sweep-switched")

#: ``repro all`` scale.  Smoke-scale ``repro all`` fails fig11's shape
#: check, which would count as a permanent failure, so it is not used.
SCALE = "default"
SWEEP_PROGRAM = "2dfft"   # all-to-all, the most collisions per frame
SWEEP_SCALE = "smoke"
SWEEP_KEYS = 24
NPROCS = 4                # run_measured's default rank count
#: Pool workers: two, and never more than the cores this process may use.
JOBS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

EXPECTED_PATH = Path(__file__).with_name("expected.json")
CLOCK = Telemetry(label="bench").clock


@dataclass
class Check:
    """Operations attempted and failed, and what failed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass
class Rep:
    """One timed operation: its wall time and, for sweeps, each key's."""

    wall_s: float
    key_walls: List[float] = field(default_factory=list)


def _expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def reference(seed: int) -> Optional[dict]:
    """The recorded trace and sweep-manifest digests for input seed
    ``seed``, if any."""
    return _expected()["digests"].get(str(seed))


def input_seed(seed: int) -> int:
    """The input seed behind benchmark seed ``seed``.

    About one seed in five fails a ``repro all`` shape criterion on this
    tree (mostly the self-similar baseline's Hurst threshold), which
    would be a permanent failure of every workload run at it.  Benchmark
    seed ``n`` therefore selects the n-th seed, cyclically, at which every
    criterion passed when ``expected.json`` was recorded; seeds 0 and 1
    pass, so they map to themselves.
    """
    seeds = _expected()["passing_seeds"]
    return seeds[seed % len(seeds)]


def sweep_grid(seed: int, route: str) -> str:
    spec = (f"program={SWEEP_PROGRAM} scale={SWEEP_SCALE} "
            f"seed={seed}..{seed + SWEEP_KEYS - 1}")
    return spec + " route=switched" if route == "switched" else spec


@contextlib.contextmanager
def span(tel: Telemetry, track: str, category: str, name: str):
    """A wall-clock span around one call into a layer."""
    opened = tel.begin(name, category, track)
    try:
        yield
    finally:
        tel.end(opened)


class Workload:
    """One workload at one benchmark seed, working under ``work``."""

    def __init__(self, name: str, seed: int, work: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
        self.name = name
        self.bench_seed = seed
        self.seed = input_seed(seed)
        self.work = Path(work)
        self.check = Check()
        self.ref = reference(self.seed)
        #: Where :meth:`set_up` leaves what the reps need.
        self.fixture = self.work / "fixture"
        self._reps = 0

    @property
    def is_sweep(self) -> bool:
        return self.name.startswith("sweep-")

    @property
    def route(self) -> str:
        return "switched" if self.name == "sweep-switched" else "bus"

    # -- set-up and reps ---------------------------------------------
    def set_up(self) -> None:
        """The one-time set-up: ``all-warm`` fills its disk cache (through
        the worker pool, as ``repro cache warm --jobs`` does), the sweeps
        spin their pool up, and every workload runs one untimed warm-up
        rep (the first rep in a process is about 20% slower)."""
        if self.name == "all-warm":
            store = TraceStore(disk_dir=self.fixture / "cache")
            for result in store.warm(trace_specs(SCALE, seeds=(self.seed,)),
                                     jobs=JOBS):
                self.check.expect(result.ok, f"cache fill {result.key.describe()}: "
                                             f"{result.error}")
        elif self.is_sweep and JOBS > 1:
            shared_pool(JOBS)
        self.rep()

    def rep(self) -> Rep:
        """Run one timed operation in fresh directories and check it."""
        rep_dir = self.work / f"rep{self._reps}"
        self._reps += 1
        try:
            if self.is_sweep:
                return self._sweep_rep(rep_dir)
            return self._all_rep(rep_dir)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    def _all_rep(self, rep_dir: Path) -> Rep:
        cache = (self.fixture if self.name == "all-warm" else rep_dir) / "cache"
        export = rep_dir / "export"
        argv = ["all", "--scale", SCALE, "--seed", str(self.seed),
                "--cache-dir", str(cache), "--export", str(export)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = CLOCK()
            repro_main(argv)
            wall = CLOCK() - t0
        for exp_id in EXPERIMENTS:
            manifest = export / exp_id / "manifest.json"
            ok = (manifest.exists()
                  and all(json.loads(manifest.read_text())["checks"].values()))
            self.check.expect(ok, f"{exp_id}: shape criteria")
        for name in TRACE_PROGRAMS:
            path = cache / f"{TraceKey.make(name, scale=SCALE, seed=self.seed).digest()}.npz"
            self._expect_trace(name, load_npz(path) if path.exists() else None)
        return Rep(wall)

    def _sweep_rep(self, rep_dir: Path) -> Rep:
        store = TraceStore(disk_dir=rep_dir / "cache")
        t0 = CLOCK()
        result = run_sweep(sweep_grid(self.seed, self.route), jobs=JOBS,
                           store=store)
        wall = CLOCK() - t0
        self._expect_sweep(result, self.route)
        return Rep(wall, [e.wall_seconds for e in result.entries])

    # -- correctness ---------------------------------------------------
    def _expect_trace(self, name: str, trace: Optional[PacketTrace]) -> None:
        if trace is None:
            self.check.expect(False, f"{name}: trace missing from the cache")
        elif self.ref is not None:
            self.check.expect(trace_digest(trace) == self.ref["traces"][name],
                              f"{name}: trace digest differs from expected.json")

    def _expect_sweep(self, result: SweepResult, route: str) -> None:
        self.check.expect(len(result.entries) == SWEEP_KEYS,
                          f"sweep-{route}: {len(result.entries)} keys")
        for entry in result.entries:
            self.check.expect(entry.ok, f"{entry.key.describe()}: {entry.error}")
        if self.ref is not None:
            self.check.expect(result.manifest_digest() == self.ref[f"sweep-{route}"],
                              f"sweep-{route}: manifest digest differs "
                              "from expected.json")

    # -- traced reps (per-layer metrics) -------------------------------
    def traced_all(self, tel: Telemetry, cold: bool) -> Dict[str, str]:
        """One ``repro all`` driven stage by stage, each call in a span.

        The cold rep simulates and writes every trace into a fresh cache;
        the warm rep reads them back through a fresh store.  Both then
        run the 15 experiments and render and export each.  Returns the
        trace digests.
        """
        track = "all-cold" if cold else "all-warm"
        store = configure_trace_store(disk_dir=self.work / "traced-all" / "cache")
        digests = {}
        for name in TRACE_PROGRAMS:
            if cold:
                with span(tel, track, "harness.simulate", name):
                    trace = run_measured(name, scale=SCALE, seed=self.seed)
                with span(tel, track, "harness.cache_write", name):
                    store.put(TraceKey.make(name, scale=SCALE, seed=self.seed),
                              trace)
            else:
                with span(tel, track, "harness.cache_read", name):
                    trace = store.get(name, scale=SCALE, seed=self.seed)
            self._expect_trace(name, trace)
            digests[name] = trace_digest(trace)
        export = self.work / "traced-all" / f"export-{track}"
        for exp_id in EXPERIMENTS:
            with span(tel, track, "harness.analysis", exp_id):
                artifact = run_experiment(exp_id, scale=SCALE, seed=self.seed)
            with span(tel, track, "harness.render", exp_id):
                artifact.render()
                export_artifact(artifact, export)
            self.check.expect(artifact.all_checks_pass, f"{exp_id}: shape criteria")
        self.check.expect(store.stats.misses == 0,
                          f"{track}: a trace was simulated outside its stage")
        return digests

    def traced_sweep(self, tel: Telemetry, route: str) -> SweepResult:
        """One sweep of this seed's grid on ``route``, in one span."""
        store = TraceStore(disk_dir=self.work / f"traced-sweep-{route}")
        with span(tel, f"sweep-{route}", "harness.sweep", sweep_grid(self.seed, route)):
            result = run_sweep(sweep_grid(self.seed, route), jobs=JOBS, store=store)
        self._expect_sweep(result, route)
        return result


def measure(workload: Workload, seconds: float, min_reps: int) -> List[Rep]:
    """Timed reps until ``seconds`` would be exceeded by one more, and at
    least ``min_reps`` of them."""
    reps: List[Rep] = []
    start = CLOCK()
    while len(reps) < min_reps or CLOCK() - start + reps[-1].wall_s <= seconds:
        reps.append(workload.rep())
    return reps


def simulate_counted(name: str, scale: str, seed: int, medium: str):
    """One telemetry-on run, built as ``run_measured`` builds it but
    keeping the cluster so its stats objects can be read."""
    tel = Telemetry(label=f"{name}/{scale}/seed{seed}/{medium}")
    cluster = FxCluster(n_machines=NPROCS + 1, seed=seed, medium=medium,
                        telemetry=tel)
    runtime = FxRuntime(cluster, NPROCS, work_model_for(name, seed=seed))
    trace = runtime.execute(make_program(name), ITERATIONS[name][scale])
    return trace, cluster, tel


def layer_counts(workload: Workload, digests: Dict[str, str]) -> Dict[str, float]:
    """Deterministic counts from one telemetry-on run per (program, route)
    the workload simulates (``all-warm`` reads what ``all-cold`` simulates).

    ``digests`` are the untraced runs' trace digests: an observed run must
    produce the same bytes.  The wall time of these runs is never used.
    """
    if workload.is_sweep:
        medium = "switched" if workload.route == "switched" else "ethernet"
        runs = [(SWEEP_PROGRAM, SWEEP_SCALE, medium)]
    else:
        runs = [(name, SCALE, "ethernet") for name in TRACE_PROGRAMS]
    total = dict.fromkeys(("events", "packets", "frames", "collisions",
                           "backoff", "busy", "sim", "segments", "acks",
                           "messages", "phases"), 0)
    depth = 0
    for name, scale, medium in runs:
        trace, cluster, tel = simulate_counted(name, scale, workload.seed, medium)
        workload.check.expect(trace_digest(trace) == digests[name],
                              f"{name}/{medium}: telemetry changed the trace")
        counters = tel.counters
        stats = cluster.bus.stats
        total["events"] += counters["des.events_popped"]
        total["packets"] += len(trace)
        total["frames"] += stats.frames_delivered
        total["collisions"] += stats.collisions
        total["backoff"] += counters.get("bus.backoff_rounds", 0)
        total["busy"] += stats.busy_time
        total["sim"] += cluster.sim.now
        total["segments"] += counters.get("tcp.segments_sent", 0)
        total["acks"] += counters.get("tcp.acks_sent", 0)
        total["messages"] += counters.get("pvm.messages_sent", 0)
        total["phases"] += counters.get("fx.compute_phases", 0)
        depth = max([depth] + [s.nic.stats.max_queue_depth for s in cluster.stacks])
    return {
        "des.events": total["events"],
        "des.events_per_packet": total["events"] / total["packets"],
        "net.frames": total["frames"],
        "net.attempts_per_frame": 1 + total["backoff"] / total["frames"],
        "net.collisions_per_frame": total["collisions"] / total["frames"],
        "net.utilization": total["busy"] / total["sim"],
        "net.nic.max_queue_depth": depth,
        "transport.segments": total["segments"],
        "transport.acks_per_segment": total["acks"] / total["segments"],
        "pvm.messages": total["messages"],
        "fx.compute_phases": total["phases"],
        "capture.packets": total["packets"],
    }


def record_expected(work: Path, passing: int = 100, digests=(0, 1)) -> dict:
    """The content of ``expected.json``: the first ``passing`` seeds at
    which every ``repro all`` shape criterion passes, and the reference
    digests for the input seeds ``digests``."""
    doc: dict = {"passing_seeds": [], "digests": {}}
    seed = 0
    while len(doc["passing_seeds"]) < passing:
        cache = work / f"expected-{seed}"
        TraceStore(disk_dir=cache).warm(trace_specs(SCALE, seeds=(seed,)), jobs=JOBS)
        store = configure_trace_store(disk_dir=cache)
        if all(run_experiment(exp_id, scale=SCALE, seed=seed).all_checks_pass
               for exp_id in EXPERIMENTS):
            doc["passing_seeds"].append(seed)
        if seed in digests:
            entry = {"traces": {name: trace_digest(store.get(name, scale=SCALE,
                                                             seed=seed))
                                for name in TRACE_PROGRAMS}}
            for route in ("bus", "switched"):
                result = run_sweep(sweep_grid(seed, route), jobs=JOBS,
                                   store=TraceStore(disk_dir=cache / route))
                if not result.ok:
                    raise RuntimeError(f"sweep-{route} seed {seed} failed: "
                                       f"{[e.error for e in result.failed]}")
                entry[f"sweep-{route}"] = result.manifest_digest()
            doc["digests"][str(seed)] = entry
        shutil.rmtree(cache, ignore_errors=True)
        seed += 1
    return doc
