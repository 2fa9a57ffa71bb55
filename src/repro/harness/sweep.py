"""Sharded sweep engine over the content-addressed trace cache.

The paper's methodology is a grid — program x scale x seed x faults —
and every harness front end (experiments, ablations, replication,
figures, benchmarks) consumes traces drawn from that grid.  This module
is the one production engine behind all of them:

* :func:`parse_grid` expands a compact spec
  (``program=sor,2dfft scale=smoke seed=0..7``) into deduplicated,
  content-addressed :class:`~.store.TraceKey` work items, in a
  deterministic order;
* :func:`run_sweep` shards the missing keys across a **persistent**
  ``ProcessPoolExecutor`` (:func:`shared_pool` — initialized once per
  process with the program registry, reused by every later sweep and by
  :meth:`TraceStore.warm`), short-circuits cache hits without touching
  a worker, puts a failed attempt straight back on the queue (up to
  ``retries`` times) whether serial or pooled, and streams progress
  (done/hit/produced/failed, runs/sec, ETA) through a callback;
* every missing key, serial or pooled, is produced by one function,
  :func:`_produce`, through a :class:`~.store.TraceStore`: the sweep's
  own store in this process, or a store over the same cache directory
  inside a worker, which returns the finished :class:`SweepEntry`;
* the outcome is a :class:`SweepResult` whose :meth:`~SweepResult.manifest`
  is **deterministic**: sorted keys, per-trace SHA-256 digests, packet
  counts and simulated seconds — byte-identical whether the sweep ran
  serially, across N workers, or resumed over a warm cache.

The cache is the sweep's only resume record: an entry's npz lands
atomically before its metadata sidecar, so a rerun of a stopped or
killed sweep short-circuits every key that finished and produces the
rest.

Wall-clock statistics (worker seconds, throughput, ETA) are reported
alongside but deliberately excluded from the manifest, which is the
reproducibility artifact.  The CLI entry point is ``repro sweep``.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..atomic import write_atomic
from ..capture import trace_digest
from ..telemetry import Telemetry, disable_process_telemetry
from .resilience import DRAIN_TIMEOUT, ChaosPlan, _truncate_file
from .store import TRACE_SCHEMA_VERSION, CacheStats, TraceKey, TraceStore

__all__ = [
    "SWEEP_SCHEMA_VERSION",
    "GridError",
    "SweepGrid",
    "parse_grid",
    "expand_grid",
    "SweepEntry",
    "SweepProgress",
    "SweepResult",
    "run_sweep",
    "shared_pool",
    "shutdown_pool",
    "pool_stats",
]

#: Manifest layout version.  Bump when the manifest schema changes so
#: downstream consumers (CI byte-identity gates, benchmarks) can detect
#: incompatible files.
SWEEP_SCHEMA_VERSION = 1

#: Telemetry clock (never a direct ``time.perf_counter()`` call, so the
#: engine stays simlint-clean under SIM001 with the rest of ``src``).
_WALL = Telemetry(label="sweep-clock").clock


class GridError(ValueError):
    """A malformed or unknown grid-spec token."""


# ---------------------------------------------------------------------------
# Grid spec: parse and expand
# ---------------------------------------------------------------------------

#: Axes with dedicated value parsing; everything else is rejected so a
#: typo (``sclae=smoke``) fails loudly instead of silently running the
#: default grid.
_KNOWN_AXES = ("program", "scale", "seed", "iterations", "nprocs", "route",
               "faults")

_INT_AXES = ("seed", "iterations", "nprocs")

_SCALES = ("smoke", "default", "full")


def _int_values(axis: str, text: str) -> List[int]:
    """``0..7`` (inclusive range) or plain integers."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise GridError(f"bad {axis} range {text!r} (want N..M)") from None
        if hi < lo:
            raise GridError(f"empty {axis} range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise GridError(f"bad {axis} value {text!r} (want an integer)") from None


@dataclass(frozen=True)
class SweepGrid:
    """A parsed sweep grid: ordered (axis, values) pairs."""

    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]

    def values(self, axis: str, default=None):
        for name, vals in self.axes:
            if name == axis:
                return list(vals)
        return default

    @property
    def size(self) -> int:
        """Cartesian-product size before deduplication."""
        n = 1
        for _, vals in self.axes:
            n *= len(vals)
        return n

    def describe(self) -> str:
        """A canonical spec string that re-parses to an equal grid."""
        def render(v) -> str:
            if v is None:
                return "none"
            return getattr(v, "value", v) if not isinstance(v, str) else v

        tokens = []
        for name, vals in self.axes:
            sep = ";" if name == "faults" else ","
            tokens.append(f"{name}={sep.join(str(render(v)) for v in vals)}")
        return " ".join(tokens)


def parse_grid(spec: Union[str, Sequence[str]]) -> SweepGrid:
    """Parse grid tokens into a :class:`SweepGrid`.

    ``spec`` is one string or a sequence of ``axis=values`` tokens
    (whitespace-separated either way).  Values are comma-separated;
    integer axes accept ``N..M`` inclusive ranges; ``program=*`` means
    the experiments' warm set; ``faults`` values are separated by ``;``
    because fault-plan specs contain commas themselves
    (``faults=loss=0.001;loss=0.01,seed=1``), with ``none`` naming the
    fault-free run.
    """
    from ..programs import PROGRAMS

    if isinstance(spec, str):
        tokens = spec.split()
    else:
        tokens = [t for chunk in spec for t in str(chunk).split()]
    if not tokens:
        raise GridError("empty grid spec")

    axes: List[Tuple[str, Tuple[object, ...]]] = []
    seen = set()
    for token in tokens:
        axis, eq, rest = token.partition("=")
        axis = axis.strip().lower()
        if axis == "prog":
            axis = "program"
        if not eq or not rest:
            raise GridError(f"bad token {token!r} (want axis=value[,value...])")
        if axis not in _KNOWN_AXES:
            raise GridError(
                f"unknown axis {axis!r}; known: {', '.join(_KNOWN_AXES)}"
            )
        if axis in seen:
            raise GridError(f"axis {axis!r} given twice")
        seen.add(axis)

        values: List[object] = []
        if axis == "faults":
            from ..faults import FaultPlan

            for part in rest.split(";"):
                part = part.strip()
                if not part:
                    continue
                if part.lower() == "none":
                    values.append(None)
                    continue
                try:
                    FaultPlan.parse(part)  # validate early, fail loudly
                except ValueError as exc:
                    raise GridError(f"bad fault plan {part!r}: {exc}") from None
                # Keep the spec *string*: it round-trips through
                # describe()/parse_grid, and TraceKey.make canonicalizes
                # it so equal plans still dedup to one key.
                values.append(part)
        else:
            for part in rest.split(","):
                part = part.strip()
                if not part:
                    continue
                if axis in _INT_AXES:
                    values.extend(_int_values(axis, part))
                elif axis == "program":
                    if part == "*":
                        from .experiments import TRACE_PROGRAMS

                        values.extend(TRACE_PROGRAMS)
                    elif part in PROGRAMS:
                        values.append(part)
                    else:
                        raise GridError(
                            f"unknown program {part!r}; "
                            f"known: {', '.join(PROGRAMS)} (or *)"
                        )
                elif axis == "scale":
                    if part not in _SCALES:
                        raise GridError(
                            f"unknown scale {part!r}; known: {', '.join(_SCALES)}"
                        )
                    values.append(part)
                elif axis == "route":
                    from ..pvm import Route

                    low = part.lower()
                    if low == "switched":
                        # Pseudo-route: direct TCP over the switched
                        # fabric; kept as a string so the cache key is
                        # distinct from the Route enum values.
                        values.append(low)
                    else:
                        try:
                            values.append(Route(low))
                        except ValueError:
                            known = ", ".join(
                                sorted(r.value for r in Route) + ["switched"]
                            )
                            raise GridError(
                                f"unknown route {part!r}; known: {known}"
                            ) from None
        if not values:
            raise GridError(f"axis {axis!r} has no values in {token!r}")
        # Dedup values while preserving first-seen order.
        unique: List[object] = []
        for v in values:
            if v not in unique:
                unique.append(v)
        axes.append((axis, tuple(unique)))

    if "program" not in seen:
        raise GridError("grid needs a program axis (e.g. program=sor or program=*)")
    return SweepGrid(axes=tuple(axes))


def _grid_points(grid: SweepGrid):
    """Cartesian product of the grid's axes, as axis->value dicts."""
    points: List[Dict[str, object]] = [{}]
    for axis, values in grid.axes:
        points = [dict(p, **{axis: v}) for p in points for v in values]
    return points


def expand_grid(grid: SweepGrid) -> List[Tuple[TraceKey, dict]]:
    """Deduplicated ``(key, run_measured-overrides)`` work items.

    The returned order is deterministic: sorted by the key's
    ``(name, scale, seed, overrides)`` — independent of axis order in
    the spec, so a reordered spec produces the same manifest.
    """
    items: Dict[TraceKey, dict] = {}
    for point in _grid_points(grid):
        overrides: Dict[str, object] = {}
        for axis in ("iterations", "nprocs", "route"):
            if axis in point:
                overrides[axis] = point[axis]
        if point.get("faults") is not None:
            overrides["faults"] = point["faults"]
        key = TraceKey.make(
            point["program"],
            scale=point.get("scale", "default"),
            seed=point.get("seed", 0),
            **overrides,
        )
        items.setdefault(key, overrides)
    return sorted(
        items.items(),
        key=lambda kv: (kv[0].name, kv[0].scale, kv[0].seed, kv[0].overrides),
    )


def as_work_items(specs: Iterable) -> List[Tuple[TraceKey, dict]]:
    """Normalize warm-style ``(name, scale, seed[, overrides])`` specs
    (or ready ``(TraceKey, overrides)`` pairs) into deduped work items,
    preserving first-seen order."""
    items: "Dict[TraceKey, dict]" = {}
    for spec in specs:
        if isinstance(spec[0], TraceKey):
            key, overrides = spec
        elif len(spec) == 3:
            name, scale, seed = spec
            overrides = {}
            key = TraceKey.make(name, scale=scale, seed=seed)
        else:
            name, scale, seed, overrides = spec
            key = TraceKey.make(name, scale=scale, seed=seed, **overrides)
        items.setdefault(key, overrides)
    return list(items.items())


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_JOBS = 0
_POOL_STATS = {"started": 0, "reused": 0, "tasks": 0, "respawns": 0}
_ATEXIT_REGISTERED = False

#: How often a worker checks that the process that forked it still lives.
_PARENT_POLL_SECONDS = 0.5


def _exit_with_parent(parent: int) -> None:
    """Worker thread: exit once the sweep process is gone.

    Workers block on pipe ends they inherited from the parent, so a
    SIGKILLed parent never closes them; reparenting is the only sign.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _worker_init() -> None:
    """Run once per worker.

    Workers ignore SIGINT/SIGTERM: a Ctrl-C reaches the whole process
    group, and draining is the parent's job (it stops workers with the
    executor's shutdown handshake or SIGKILL).  A daemon thread exits
    the worker when the parent dies.  Finally the program registry and
    cluster machinery are pre-bound so every task after the first pays
    simulation cost only.  (Under the ``fork`` start method imports are
    inherited; under ``spawn`` this is what makes the pool *persistent*
    rather than paying the import tax per task.)"""
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_IGN)
    # A worker's counters could not reach the parent, so it attaches no
    # telemetry.  REPRO_SANITIZE stays: a worker's sanitizer can fail a key.
    disable_process_telemetry()
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     name="exit-with-parent", daemon=True).start()
    from ..fx import FxCluster  # noqa: F401 - imported for side effects
    from ..programs import PROGRAMS  # noqa: F401


def _pool_context():
    from multiprocessing import get_context

    for method in ("fork", "spawn"):
        try:
            return get_context(method)
        except ValueError:  # pragma: no cover - platform-dependent
            continue
    raise RuntimeError("no usable multiprocessing start method")


def shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The process-wide persistent worker pool, sized to ``jobs``.

    Created once and reused by every sweep and by
    :meth:`TraceStore.warm`; asking for a different size replaces it.
    Workers are initialized by :func:`_worker_init` and forked up front,
    so repeated sweeps never re-pay startup.  A pool broken by a dead
    worker is replaced by :func:`run_sweep` when it next dispatches.
    """
    global _POOL, _POOL_JOBS, _ATEXIT_REGISTERED
    if jobs < 2:
        raise ValueError(f"a worker pool needs jobs >= 2, got {jobs}")
    if _POOL is not None and _POOL_JOBS == jobs:
        _POOL_STATS["reused"] += 1
        return _POOL
    shutdown_pool()
    _POOL = ProcessPoolExecutor(jobs, mp_context=_pool_context(),
                                initializer=_worker_init)
    _POOL.submit(int).result()  # the first submit forks every worker
    _POOL_JOBS = jobs
    _POOL_STATS["started"] += 1
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_pool)
        _ATEXIT_REGISTERED = True
    return _POOL


def shutdown_pool() -> None:
    """Stop the persistent pool and reap its workers (tests, atexit)."""
    global _POOL, _POOL_JOBS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_JOBS = 0


def _kill_pool() -> None:
    """SIGKILL and reap every worker: a broken pool, or a drain past its
    cap.  Afterwards every future the pool handed out is done."""
    if _POOL is not None:
        # Workers ignore SIGTERM, so the executor's own terminate() on a
        # broken pool cannot stop one that is still busy.
        for proc in list((_POOL._processes or {}).values()):
            proc.kill()
    shutdown_pool()


def _replace_pool(jobs: int) -> ProcessPoolExecutor:
    """A fresh pool in place of one a dead worker broke."""
    _kill_pool()
    _POOL_STATS["respawns"] += 1
    return shared_pool(jobs)


def pool_stats() -> Dict[str, int]:
    """Lifetime pool counters: started / reused / tasks dispatched /
    respawns (pools replaced after a worker died)."""
    return dict(_POOL_STATS, jobs=_POOL_JOBS, alive=int(_POOL is not None))


def _raise_timeout(signum, frame) -> None:  # noqa: ARG001
    raise TimeoutError("task exceeded its task-timeout")


def _run_task(key: TraceKey, overrides: dict, cache_dir: Path, qmon_dir,
              attempt: int, chaos: Optional[ChaosPlan],
              timeout: Optional[float]) -> Tuple[SweepEntry, CacheStats]:
    """Pool entry: one attempt at one key, produced by :func:`_produce`
    on a fresh :class:`TraceStore` over the sweep's cache directory.
    Returns the entry and that store's counters, whose disk writes and
    quarantines the sweep adds to its own store's.

    ``timeout`` arms a ``SIGALRM`` interval timer inside the worker; its
    handler raises :class:`TimeoutError`, so a runaway key fails like any
    other error, goes through the retry path, and the worker survives.
    Chaos decisions are taken here, inside the worker, so a ``kill``
    takes the whole process down exactly like a real crash would: the
    executor in the parent is what must recover.
    """
    digest = key.digest()
    kill, hang, corrupt = (chaos.decide(digest, attempt) if chaos is not None
                           else (False, False, False))
    if timeout:
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        if kill:
            os._exit(17)  # simulate SIGKILL: no cleanup, no answer
        while hang:  # hold the task until the task timeout fires
            time.sleep(60)
        store = TraceStore(disk_dir=cache_dir)
        entry = _produce(store, key, overrides, qmon_dir)
    finally:
        if timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)
    if corrupt:
        # Corrupt *after* the digest was computed from the in-memory
        # trace: the sweep answer stays truthful, the disk entry rots —
        # exactly the failure `repro cache scrub` exists to catch.
        _truncate_file(cache_dir / f"{digest}.npz")
    return entry, store.stats


def _qmon_missing(qmon_dir, key: TraceKey, overrides: dict) -> bool:
    """A switched-route key whose queue-monitor manifest is not yet in
    ``qmon_dir`` (queue monitors only observe the switched fabric)."""
    return (qmon_dir is not None and overrides.get("route") == "switched"
            and not (Path(qmon_dir) / f"{key.digest()}.qmon.json").exists())


def _write_qmon_manifest(qmon_dir, key: TraceKey, monitor) -> None:
    """Atomically land one key's qmon manifest next to the sweep."""
    from ..netmon import build_manifest, write_qmon

    directory = Path(qmon_dir)
    directory.mkdir(parents=True, exist_ok=True)
    digest = key.digest()
    doc = build_manifest(monitor, meta={
        "program": key.name, "scale": key.scale, "seed": key.seed,
        "digest": digest,
    })
    write_qmon(directory / f"{digest}.qmon.json", doc)


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


@dataclass
class SweepEntry:
    """Outcome for one work key."""

    key: TraceKey
    digest: str
    trace_sha256: str = ""
    packets: int = 0
    sim_seconds: float = 0.0
    produced: bool = False     # simulated during this sweep
    cache_hit: bool = False    # served from the disk/memory cache
    error: Optional[str] = None
    wall_seconds: float = 0.0  # worker wall time (excluded from manifest)
    attempts: int = 1          # production attempts (excluded from manifest)

    @property
    def ok(self) -> bool:
        return self.error is None

    def manifest_row(self) -> dict:
        row = {
            "program": self.key.name,
            "scale": self.key.scale,
            "seed": self.key.seed,
            "overrides": {k: json.loads(v) for k, v in self.key.overrides},
            "digest": self.digest,
            "trace_sha256": self.trace_sha256,
            "packets": self.packets,
            "sim_seconds": round(self.sim_seconds, 9),
        }
        if self.error is not None:
            row["error"] = self.error
        return row


@dataclass
class SweepProgress:
    """Streaming progress, delivered to the callback after every key."""

    total: int
    done: int = 0
    hits: int = 0
    produced: int = 0
    failed: int = 0
    retries: int = 0
    requeued: int = 0
    quarantined: int = 0
    timeouts: int = 0
    elapsed: float = 0.0

    @property
    def rate(self) -> float:
        """Completed keys per wall second."""
        return self.done / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def eta_seconds(self) -> float:
        if self.done == 0 or self.done >= self.total:
            return 0.0
        return (self.total - self.done) / max(self.rate, 1e-9)

    def describe(self) -> str:
        extra = ""
        if self.retries or self.requeued or self.quarantined:
            extra = (f" [{self.retries} retried, {self.requeued} requeued, "
                     f"{self.quarantined} quarantined]")
        return (f"{self.done}/{self.total} done "
                f"({self.hits} hit, {self.produced} produced, "
                f"{self.failed} failed) "
                f"{self.rate:.1f} runs/s eta {self.eta_seconds:.0f}s{extra}")


@dataclass
class SweepResult:
    """A completed sweep: deterministic entries plus wall statistics."""

    entries: List[SweepEntry] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0
    #: Keys the whole grid wanted; > len(entries) after a graceful stop.
    total_keys: int = 0
    #: True when a stop request (SIGINT/SIGTERM) drained the sweep early;
    #: a rerun over the same cache produces only the missing keys.
    interrupted: bool = False
    #: Recovery tallies: retries, requeued, quarantined, timeouts.
    resilience: Dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return sum(1 for e in self.entries if e.cache_hit)

    @property
    def produced(self) -> int:
        return sum(1 for e in self.entries if e.produced)

    @property
    def failed(self) -> List[SweepEntry]:
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self) -> bool:
        return not self.failed and not self.interrupted

    def by_key(self) -> Dict[TraceKey, SweepEntry]:
        return {e.key: e for e in self.entries}

    def manifest(self) -> dict:
        """The deterministic sweep manifest.

        Identical for serial, pooled, and resumed executions of the
        same grid: it contains only content (sorted keys, trace
        SHA-256s, packet counts, simulated seconds) — never wall-clock
        measurements or hit/produced provenance.
        """
        return {
            "schema": SWEEP_SCHEMA_VERSION,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "keys": len(self.entries),
            "entries": [e.manifest_row() for e in self.entries],
        }

    def manifest_json(self) -> str:
        return json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n"

    def manifest_digest(self) -> str:
        import hashlib

        return hashlib.sha256(self.manifest_json().encode()).hexdigest()

    def write_manifest(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return write_atomic(path, self.manifest_json())

    def stats(self) -> dict:
        """Wall statistics (reported beside, never inside, the manifest)."""
        packets = sum(e.packets for e in self.entries if e.ok)
        return {
            "keys": len(self.entries),
            "total_keys": self.total_keys or len(self.entries),
            "cache_hits": self.hits,
            "produced": self.produced,
            "failed": len(self.failed),
            "interrupted": self.interrupted,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 6),
            "keys_per_second": round(
                len(self.entries) / self.wall_seconds, 3
            ) if self.wall_seconds > 0 else 0.0,
            "packets": packets,
            "sim_seconds": round(
                sum(e.sim_seconds for e in self.entries if e.ok), 6
            ),
            "resilience": dict(self.resilience),
        }


def _peek_cached(store: TraceStore, key: TraceKey) -> Optional[SweepEntry]:
    """A finished :class:`SweepEntry` iff the key's entry and its
    metadata sidecar are on disk.

    Reads only the sidecar (sha256/packets/duration), so a fully warm
    sweep never loads a trace, let alone touches a worker.  An entry
    without a readable sidecar is left to :func:`_produce`, whose
    ``store.get`` reads a loadable npz as a disk hit and writes a
    missing sidecar back.
    """
    if store.disk_dir is None:
        return None
    digest = key.digest()
    if not (store.disk_dir / f"{digest}.npz").exists():
        return None
    try:
        meta = json.loads((store.disk_dir / f"{digest}.json").read_text())
        return SweepEntry(
            key=key, digest=digest,
            trace_sha256=meta["trace_sha256"],
            packets=int(meta["packets"]),
            sim_seconds=float(meta["sim_seconds"]),
            cache_hit=True,
        )
    except (OSError, ValueError, KeyError):
        return None


def _produce(store: TraceStore, key: TraceKey, overrides: dict,
             qmon_dir=None) -> SweepEntry:
    """Produce one key through ``store``: the producer of every sweep
    key, serial (on the sweep's own store) or pooled (inside a worker,
    on a store over the same cache directory).

    The key counts as produced when ``store.get`` missed: a loadable
    entry is a disk hit, and an unreadable one is quarantined and
    produced afresh.  A switched-route key whose queue-monitor manifest
    is missing from ``qmon_dir`` is simulated under the monitor instead
    (trace bytes are unchanged) and written through if the store lacks
    it or its sidecar.  A failure is reported on the entry, never
    raised: one bad key must not poison the sweep.
    """
    digest = key.digest()
    t0 = _WALL()
    try:
        if _qmon_missing(qmon_dir, key, overrides):
            from ..programs import run_measured

            produced = key not in store
            detail: dict = {}
            trace = run_measured(key.name, scale=key.scale, seed=key.seed,
                                 qmon=True, detail=detail, **overrides)
            if produced or _peek_cached(store, key) is None:
                # A lost sidecar comes back with its npz rewritten from
                # this trace: a sidecar never vouches for unread bytes.
                store.put(key, trace)
            _write_qmon_manifest(qmon_dir, key, detail["qmon"])
        else:
            misses = store.stats.misses
            trace = store.get(key.name, scale=key.scale, seed=key.seed,
                              **overrides)
            produced = store.stats.misses > misses
    except Exception as exc:  # noqa: BLE001 - reported per key
        return SweepEntry(key=key, digest=digest, wall_seconds=_WALL() - t0,
                          error=f"{type(exc).__name__}: {exc}")
    return SweepEntry(
        key=key, digest=digest, trace_sha256=trace_digest(trace),
        packets=len(trace), sim_seconds=float(trace.duration),
        produced=produced, cache_hit=not produced, wall_seconds=_WALL() - t0,
    )


def run_sweep(
    grid: Union[SweepGrid, str, Sequence],
    jobs: int = 1,
    store: Optional[TraceStore] = None,
    progress: Optional[Callable[[SweepProgress, SweepEntry], None]] = None,
    retries: int = 2,
    chaos: Optional[ChaosPlan] = None,
    task_timeout: Optional[float] = None,
    stop=None,
    qmon_dir=None,
) -> SweepResult:
    """Execute a sweep: every grid key produced once, cache first.

    Parameters
    ----------
    grid:
        A :class:`SweepGrid`, a grid-spec string, or an iterable of
        warm-style ``(name, scale, seed[, overrides])`` specs.
    jobs:
        Worker processes.  ``1`` produces serially in-process; more
        shards cache misses across the persistent :func:`shared_pool`.
        A store without a disk layer always degrades to serial (a worker
        produces on a store over the same cache directory; without one
        there is nothing to share).
    store:
        The backing :class:`TraceStore`; defaults to the process-wide
        store (:func:`repro.harness.runner.trace_store`).
    progress:
        Callback invoked after every completed key with the running
        :class:`SweepProgress` and the finished :class:`SweepEntry`.
    retries:
        Further attempts per failed key (``>= 0``; default 2).  A failed
        attempt goes straight back on the queue; a key still failing
        after its last attempt is quarantined — recorded as failed,
        never allowed to stall the grid.
    chaos:
        Optional :class:`~repro.harness.resilience.ChaosPlan`; requires
        a pooled sweep (``jobs >= 2`` with a disk cache) because chaos
        kills live workers, and a ``task_timeout`` if it hangs tasks.
    task_timeout:
        Wall-second limit (``> 0``) on one pooled production, enforced
        by a timer inside the worker; a key past it fails with
        ``TimeoutError`` and goes through the retry path.
    stop:
        A ``threading.Event``; once set the sweep dispatches nothing
        more, lets in-flight keys finish (at most
        :data:`~repro.harness.resilience.DRAIN_TIMEOUT` seconds), records
        what finished, and returns with ``interrupted=True``.  A rerun
        over the same cache hits every key that finished and produces
        the rest.
    qmon_dir:
        Collect switch-queue manifests: every switched-route key lands
        ``<digest>.qmon.json`` under this directory.  Keys whose trace
        is cached but whose manifest is missing are re-simulated under
        the monitor (trace bytes are unchanged, so the cache entry and
        the sweep manifest stay byte-identical).

    Cache-hit keys short-circuit before dispatch: a fully warm sweep
    performs no simulation and spawns no worker.  An entry without a
    readable metadata sidecar is not a short-circuit hit; it goes to the
    producer, whose store reads a loadable npz as a disk hit and
    quarantines an unreadable one (``*.npz.corrupt``) before producing
    it afresh.  Failures are recorded per key (``SweepEntry.error``) and
    never abort the rest.

    Serial and pooled production share one loop and one producer
    (:func:`_produce`): at most ``jobs`` keys in flight, every failed
    attempt requeued at once until ``retries`` run out.  The files a
    worker's store writes or quarantines add to
    ``store.stats.disk_writes`` and ``store.stats.quarantined``, as they
    would in this process.  A dead worker breaks the whole executor, which
    cannot say whose worker it was, so the pool is rebuilt and every
    in-flight key is requeued and charged one attempt.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if task_timeout is not None and not 0 < task_timeout < math.inf:
        raise ValueError(
            "task timeout must be a positive number of seconds, "
            f"got {task_timeout}")
    if store is None:
        from .runner import trace_store

        store = trace_store()
    if isinstance(grid, (SweepGrid, str)):
        parsed = parse_grid(grid) if isinstance(grid, str) else grid
        items = expand_grid(parsed)
    else:
        items = as_work_items(grid)
    if chaos is not None and chaos.active and (
            jobs < 2 or store.disk_dir is None):
        raise ValueError(
            "chaos injection needs a pooled sweep: jobs >= 2 and a disk "
            "cache (chaos kills workers; there must be workers to kill)")
    if chaos is not None and chaos.hang and task_timeout is None:
        raise ValueError(
            "chaos hang needs a task timeout: only the task timer ends "
            "a hung task")

    t0 = _WALL()

    prog = SweepProgress(total=len(items))
    entries: Dict[TraceKey, SweepEntry] = {}

    def record(entry: SweepEntry) -> None:
        entries[entry.key] = entry
        prog.done += 1
        if entry.error is not None:
            prog.failed += 1
        elif entry.cache_hit:
            prog.hits += 1
        else:
            prog.produced += 1
        prog.elapsed = _WALL() - t0
        if progress is not None:
            progress(prog, entry)

    def stopping() -> bool:
        return stop is not None and stop.is_set()

    misses: List[Tuple[TraceKey, dict]] = []
    for key, overrides in items:
        if stopping():
            break
        hit = _peek_cached(store, key)
        if hit is not None and not _qmon_missing(qmon_dir, key, overrides):
            record(hit)
        else:
            misses.append((key, overrides))

    pool = None
    if misses and not stopping() and jobs > 1 and store.disk_dir is not None:
        store.disk_dir.mkdir(parents=True, exist_ok=True)
        pool = shared_pool(jobs)
    window = jobs if pool is not None else 1
    attempts: Dict[TraceKey, int] = {}
    ready = deque(misses)
    inflight: Dict[Future, Tuple[TraceKey, dict]] = {}
    drain_deadline = None

    def launch(item) -> Future:
        """Start one attempt: inline when serial, else on the pool."""
        key, overrides = item
        attempts[key] = attempts.get(key, 0) + 1
        if pool is None:
            future: Future = Future()
            future.set_result((_produce(store, key, overrides, qmon_dir),
                               None))
            return future
        future = pool.submit(_run_task, key, overrides, store.disk_dir,
                             qmon_dir, attempts[key], chaos, task_timeout)
        _POOL_STATS["tasks"] += 1
        return future

    def settle(item, future: Future) -> None:
        """A finished attempt: record it, requeue it, or quarantine the
        key."""
        key = item[0]
        attempt = attempts[key]
        exc = future.exception()
        if exc is None:
            entry, worker_stats = future.result()
            if worker_stats is not None:
                # A worker's store wrote and set aside files in the same
                # cache directory: count them here, as a serial key is.
                store.stats.disk_writes += worker_stats.disk_writes
                store.stats.quarantined += worker_stats.quarantined
        else:
            error = ("worker died" if isinstance(exc, BrokenProcessPool)
                     else f"{type(exc).__name__}: {exc}")
            entry = SweepEntry(key=key, digest=key.digest(), error=error)
        entry.attempts = attempt
        if entry.error is None:
            record(entry)
            return
        if stopping():
            return  # unfinished at the drain: a rerun produces it
        if entry.error.startswith("TimeoutError"):
            prog.timeouts += 1
        if attempt <= retries:
            if isinstance(exc, BrokenProcessPool):
                prog.requeued += 1
            else:
                prog.retries += 1
            ready.append(item)
            return
        if retries:
            prog.quarantined += 1
            entry.error = (f"quarantined after {attempt} attempts: "
                           f"{entry.error}")
        record(entry)

    def restart_pool() -> None:
        """A worker died: replace the pool, requeue every in-flight key."""
        nonlocal pool
        pool = _replace_pool(jobs)  # reaps the old one: all futures done
        for future in list(inflight):
            settle(inflight.pop(future), future)

    try:
        while ready or inflight:
            if stopping():
                ready.clear()
                if drain_deadline is None:
                    drain_deadline = _WALL() + DRAIN_TIMEOUT
                if not inflight:
                    break
                if _WALL() >= drain_deadline:
                    _kill_pool()  # the stragglers stay missing: rerun
                    break
            while ready and len(inflight) < window:
                item = ready.popleft()
                try:
                    inflight[launch(item)] = item
                except BrokenProcessPool:  # broke while idle
                    attempts[item[0]] -= 1  # never ran: not charged
                    ready.appendleft(item)
                    restart_pool()
            # Wake at least every 0.25 s to notice a stop request.
            timeout = 0.25 if stop is not None else None
            if drain_deadline is not None:
                timeout = min(timeout, max(0.0, drain_deadline - _WALL()))
            done, _ = wait(inflight, timeout=timeout,
                           return_when=FIRST_COMPLETED)
            if any(isinstance(f.exception(), BrokenProcessPool)
                   for f in done):
                restart_pool()
                continue
            for future in done:
                settle(inflight.pop(future), future)
    except BaseException:
        if inflight and pool is not None:
            _kill_pool()  # never leave workers busy behind an exception
        raise

    ordered = sorted(
        entries.values(),
        key=lambda e: (e.key.name, e.key.scale, e.key.seed, e.key.overrides),
    )
    return SweepResult(
        entries=ordered, jobs=jobs, wall_seconds=_WALL() - t0,
        total_keys=len(items),
        interrupted=stopping() and len(ordered) < len(items),
        resilience={"retries": prog.retries, "requeued": prog.requeued,
                    "quarantined": prog.quarantined,
                    "timeouts": prog.timeouts},
    )
