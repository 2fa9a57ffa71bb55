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
  a worker, retries failed keys under one
  :class:`~.resilience.RetryPolicy` whether serial or pooled, and
  streams progress (done/hit/produced/failed, runs/sec, ETA) through a
  callback;
* the outcome is a :class:`SweepResult` whose :meth:`~SweepResult.manifest`
  is **deterministic**: sorted keys, per-trace SHA-256 digests, packet
  counts and simulated seconds — byte-identical whether the sweep ran
  serially, across N workers, or resumed over a warm cache.

Wall-clock statistics (worker seconds, throughput, ETA) are reported
alongside but deliberately excluded from the manifest, which is the
reproducibility artifact.  The CLI entry point is ``repro sweep``.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import signal
import threading
import time
import zipfile
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..atomic import write_atomic
from ..capture import load_npz, trace_digest
from ..telemetry import Telemetry, disable_process_telemetry
from .resilience import (
    DEFAULT_RETRY,
    DRAIN_TIMEOUT,
    ChaosPlan,
    RetryPolicy,
    SweepJournal,
    produce_with_chaos,
)
from .store import TRACE_SCHEMA_VERSION, TraceKey, TraceStore, _write_entry

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


def _run_task(payload, timeout: Optional[float]):
    """Pool entry: :func:`produce_with_chaos` under an optional limit.

    The limit is a ``SIGALRM`` interval timer inside the worker; its
    handler raises :class:`TimeoutError`, so a runaway key fails like any
    other error, goes through the retry path, and the worker survives.
    """
    if not timeout:
        return produce_with_chaos(payload)
    signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return produce_with_chaos(payload)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _qmon_requested(overrides: dict) -> bool:
    """Queue monitors only observe the switched fabric."""
    return overrides.get("route") == "switched"


def _qmon_path(qmon_dir, digest: str) -> Path:
    return Path(qmon_dir) / f"{digest}.qmon.json"


def _write_qmon_manifest(qmon_dir, digest: str, monitor,
                         name: str, scale: str, seed: int) -> None:
    """Atomically land one key's qmon manifest next to the sweep."""
    from ..netmon import build_manifest, write_qmon

    directory = Path(qmon_dir)
    directory.mkdir(parents=True, exist_ok=True)
    doc = build_manifest(monitor, meta={
        "program": name, "scale": scale, "seed": seed, "digest": digest,
    })
    write_qmon(directory / f"{digest}.qmon.json", doc)


def _produce_one(task):
    """Pool worker: produce one trace through the disk cache.

    Module-level so it pickles under ``spawn``.  Returns ``(digest,
    trace sha256, packets, simulated seconds, produced?, worker wall
    seconds, error)``.  A failure is reported, never raised — one bad
    key must not poison the sweep.

    An optional 7th task element carries a qmon manifest directory:
    switched-route keys then run under queue monitors (trace bytes are
    unchanged) and land ``<digest>.qmon.json`` beside the sweep.
    """
    from ..programs import run_measured

    name, scale, seed, overrides, digest, cache_dir = task[:6]
    qmon_dir = task[6] if len(task) > 6 else None
    directory = Path(cache_dir)
    npz = directory / f"{digest}.npz"
    want_qmon = qmon_dir is not None and _qmon_requested(overrides)
    t0 = _WALL()
    try:
        npz_existed = npz.exists()
        if npz_existed and not (want_qmon
                                and not _qmon_path(qmon_dir, digest).exists()):
            # Raced or resumed: another worker (or a previous sweep)
            # already landed this entry (and its manifest, if asked for).
            try:
                trace = load_npz(npz)
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                npz_existed = False  # a torn or rotten entry: produce afresh
            else:
                return (digest, trace_digest(trace), len(trace),
                        float(trace.duration), False, _WALL() - t0, None)
        if want_qmon:
            detail: dict = {}
            trace = run_measured(name, scale=scale, seed=seed, qmon=True,
                                 detail=detail, **overrides)
            _write_qmon_manifest(qmon_dir, digest, detail["qmon"],
                                 name, scale, seed)
        else:
            trace = run_measured(name, scale=scale, seed=seed, **overrides)
        if npz_existed:
            sha = trace_digest(trace)
        else:
            sha = _write_entry(directory, digest, trace,
                               {"name": name, "scale": scale, "seed": seed,
                                "overrides": overrides})
        return (digest, sha, len(trace), float(trace.duration),
                not npz_existed, _WALL() - t0, None)
    except Exception as exc:  # noqa: BLE001 - reported per key
        return (digest, "", 0, 0.0, False, _WALL() - t0,
                f"{type(exc).__name__}: {exc}")


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
    replayed: bool = False     # recovered from a resume journal
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
    replayed: int = 0
    retries: int = 0
    requeued: int = 0
    quarantined: int = 0
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
    #: the missing keys are resumable from the journal + cache.
    interrupted: bool = False
    #: Recovery tallies: retries, requeued, quarantined, timeouts, replayed.
    resilience: Dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return sum(1 for e in self.entries
                   if e.cache_hit and not e.replayed)

    @property
    def produced(self) -> int:
        return sum(1 for e in self.entries if e.produced)

    @property
    def replayed(self) -> int:
        return sum(1 for e in self.entries if e.replayed)

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
            "replayed": self.replayed,
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
    """A finished :class:`SweepEntry` iff the key is already cached.

    Prefers the entry's metadata sidecar (sha256/packets/duration) so a
    fully warm sweep never loads a trace, let alone touches a worker;
    falls back to reading the npz when the sidecar predates the
    ``sim_seconds`` field or is unreadable.
    """
    if store.disk_dir is None:
        return None
    digest = key.digest()
    npz = store.disk_dir / f"{digest}.npz"
    if not npz.exists():
        return None
    meta_path = store.disk_dir / f"{digest}.json"
    try:
        meta = json.loads(meta_path.read_text())
        return SweepEntry(
            key=key, digest=digest,
            trace_sha256=meta["trace_sha256"],
            packets=int(meta["packets"]),
            sim_seconds=float(meta["sim_seconds"]),
            cache_hit=True,
        )
    except (OSError, ValueError, KeyError):
        pass
    try:
        trace = load_npz(npz)
    except Exception:  # noqa: BLE001 - corrupt entry: re-produce it
        return None
    return SweepEntry(
        key=key, digest=digest, trace_sha256=trace_digest(trace),
        packets=len(trace), sim_seconds=float(trace.duration),
        cache_hit=True,
    )


def _produce_serial(store: TraceStore, key: TraceKey, overrides: dict,
                    qmon_dir=None) -> SweepEntry:
    """In-process production through the store (jobs=1 / memory-only)."""
    digest = key.digest()
    cached = key in store
    want_qmon = (qmon_dir is not None and _qmon_requested(overrides)
                 and not _qmon_path(qmon_dir, digest).exists())
    t0 = _WALL()
    try:
        if want_qmon:
            # The manifest needs a live simulation; re-run under the
            # monitor (trace bytes are unchanged) and write through.
            from ..programs import run_measured

            detail: dict = {}
            trace = run_measured(key.name, scale=key.scale, seed=key.seed,
                                 qmon=True, detail=detail, **overrides)
            store.put(key, trace)
            _write_qmon_manifest(qmon_dir, digest, detail["qmon"],
                                 key.name, key.scale, key.seed)
        else:
            trace = store.get(key.name, scale=key.scale, seed=key.seed,
                              **overrides)
    except Exception as exc:  # noqa: BLE001 - reported per key
        return SweepEntry(key=key, digest=digest, wall_seconds=_WALL() - t0,
                          error=f"{type(exc).__name__}: {exc}")
    return SweepEntry(
        key=key, digest=digest, trace_sha256=trace_digest(trace),
        packets=len(trace), sim_seconds=float(trace.duration),
        produced=not cached, cache_hit=cached, wall_seconds=_WALL() - t0,
    )


def run_sweep(
    grid: Union[SweepGrid, str, Sequence],
    jobs: int = 1,
    store: Optional[TraceStore] = None,
    progress: Optional[Callable[[SweepProgress, SweepEntry], None]] = None,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosPlan] = None,
    task_timeout: Optional[float] = None,
    journal: Optional[SweepJournal] = None,
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
        A store without a disk layer always degrades to serial (workers
        write through the disk cache; without one there is nothing to
        share).
    store:
        The backing :class:`TraceStore`; defaults to the process-wide
        store (:func:`repro.harness.runner.trace_store`).
    progress:
        Callback invoked after every completed key with the running
        :class:`SweepProgress` and the finished :class:`SweepEntry`.
    retry:
        :class:`~repro.harness.resilience.RetryPolicy` for failed keys
        (default: 3 attempts with seeded-jitter exponential backoff).
        A key still failing after its last attempt is quarantined —
        recorded as failed, never allowed to stall the grid.
    chaos:
        Optional :class:`~repro.harness.resilience.ChaosPlan`; requires
        a pooled sweep (``jobs >= 2`` with a disk cache) because chaos
        kills live workers.
    task_timeout:
        Wall-second limit on one pooled production, enforced by a timer
        inside the worker; a key past it fails with ``TimeoutError`` and
        goes through the retry path.
    journal:
        :class:`~repro.harness.resilience.SweepJournal` making the sweep
        crash-safe: completed keys are replayed from the journal on a
        rerun (``resilience["replayed"]``) and every completion is
        fsync'd.
    stop:
        A ``threading.Event``; once set the sweep dispatches nothing
        more, lets in-flight keys finish (at most
        :data:`~repro.harness.resilience.DRAIN_TIMEOUT` seconds), records
        what finished, and returns with ``interrupted=True``.  Keys still
        unfinished stay unrecorded, so a rerun resumes them.
    qmon_dir:
        Collect switch-queue manifests: every switched-route key lands
        ``<digest>.qmon.json`` under this directory.  Keys whose trace
        is cached but whose manifest is missing are re-simulated under
        the monitor (trace bytes are unchanged, so the cache entry and
        the sweep manifest stay byte-identical).

    Cache-hit keys short-circuit before dispatch: a fully warm sweep
    performs no simulation and spawns no worker.  Failures are recorded
    per key (``SweepEntry.error``) and never abort the rest.

    Serial and pooled production share one loop: at most ``jobs`` keys
    in flight, every failed attempt routed through ``retry`` (backoff,
    then quarantine).  A dead worker breaks the whole executor, which
    cannot say whose worker it was, so the pool is rebuilt and every
    in-flight key is requeued and charged one attempt.
    """
    if store is None:
        from .runner import trace_store

        store = trace_store()
    if isinstance(grid, (SweepGrid, str)):
        parsed = parse_grid(grid) if isinstance(grid, str) else grid
        items = expand_grid(parsed)
    else:
        items = as_work_items(grid)
    retry = retry if retry is not None else DEFAULT_RETRY
    if chaos is not None and chaos.active and (
            jobs < 2 or store.disk_dir is None):
        raise ValueError(
            "chaos injection needs a pooled sweep: jobs >= 2 and a disk "
            "cache (chaos kills workers; there must be workers to kill)")

    t0 = _WALL()

    prog = SweepProgress(total=len(items))
    entries: Dict[TraceKey, SweepEntry] = {}
    tallies = {"retries": 0, "requeued": 0, "quarantined": 0,
               "timeouts": 0, "replayed": 0}

    def record(entry: SweepEntry) -> None:
        entries[entry.key] = entry
        prog.done += 1
        if entry.error is not None:
            prog.failed += 1
            if journal is not None:
                journal.append({"event": "failed", "digest": entry.digest,
                                "error": entry.error,
                                "attempts": entry.attempts})
        elif entry.cache_hit and not entry.replayed:
            prog.hits += 1
        else:
            if entry.replayed:
                prog.replayed += 1
            else:
                prog.produced += 1
            if journal is not None and not entry.replayed:
                journal.append({
                    "event": "done", "digest": entry.digest,
                    "trace_sha256": entry.trace_sha256,
                    "packets": entry.packets,
                    "sim_seconds": entry.sim_seconds,
                    "produced": entry.produced,
                })
        prog.elapsed = _WALL() - t0
        if progress is not None:
            progress(prog, entry)

    def on_event(kind: str, ident: str, **info) -> None:
        """Retry transitions: count, journal, and stream them."""
        if kind == "retry":
            tallies["retries"] += 1
            prog.retries += 1
        elif kind == "requeue":
            tallies["requeued"] += 1
            prog.requeued += 1
        elif kind == "timeout":
            tallies["timeouts"] += 1
        elif kind == "quarantine":
            tallies["quarantined"] += 1
            prog.quarantined += 1
        if journal is not None:
            journal.append(dict({"event": kind, "digest": ident}, **info))

    # Crash-safe resume: rows already journaled replay without touching
    # the cache, the workers, or the simulator.
    replayed_rows: Dict[str, dict] = {}
    if journal is not None:
        replayed_rows = journal.replay()
        journal.rotate(replayed_rows)  # atomic compaction of old noise

    def stopping() -> bool:
        return stop is not None and stop.is_set()

    misses: List[Tuple[TraceKey, dict]] = []
    for key, overrides in items:
        if stopping():
            break
        digest = key.digest()
        row = replayed_rows.get(digest)
        if row is not None:
            tallies["replayed"] += 1
            record(SweepEntry(
                key=key, digest=digest,
                trace_sha256=row.get("trace_sha256", ""),
                packets=int(row.get("packets", 0)),
                sim_seconds=float(row.get("sim_seconds", 0.0)),
                cache_hit=True, replayed=True,
            ))
            continue
        hit = _peek_cached(store, key)
        if (hit is not None and qmon_dir is not None
                and _qmon_requested(overrides)
                and not _qmon_path(qmon_dir, digest).exists()):
            hit = None  # cached trace, missing manifest: re-produce
        if hit is not None:
            record(hit)
        else:
            misses.append((key, overrides))

    pool = None
    if misses and not stopping() and jobs > 1 and store.disk_dir is not None:
        store.disk_dir.mkdir(parents=True, exist_ok=True)
        pool = shared_pool(jobs)
    window = jobs if pool is not None else 1
    chaos_doc = chaos.as_dict() if chaos is not None and chaos.active \
        else None
    attempts: Dict[TraceKey, int] = {}
    ready = deque(misses)
    waiting: list = []  # backoff min-heap of (due, seq, (key, overrides))
    seq = itertools.count()
    inflight: Dict[Future, Tuple[TraceKey, dict]] = {}
    drain_deadline = None

    def launch(item) -> Future:
        """Start one attempt: inline when serial, else on the pool."""
        key, overrides = item
        attempts[key] = attempts.get(key, 0) + 1
        if pool is None:
            future: Future = Future()
            future.set_result(_produce_serial(store, key, overrides,
                                              qmon_dir=qmon_dir))
            return future
        task = (key.name, key.scale, key.seed, overrides, key.digest(),
                str(store.disk_dir),
                str(qmon_dir) if qmon_dir is not None else None)
        future = pool.submit(_run_task, (task, attempts[key], chaos_doc),
                             task_timeout)
        _POOL_STATS["tasks"] += 1
        return future

    def settle(item, future: Future) -> None:
        """A finished attempt: record it, back off for a retry, or
        quarantine the key."""
        key = item[0]
        attempt = attempts[key]
        exc = future.exception()
        if exc is None:
            entry = future.result()
            if not isinstance(entry, SweepEntry):
                entry = _pooled_entry(store, key, entry)
        else:
            error = ("worker died" if isinstance(exc, BrokenProcessPool)
                     else f"{type(exc).__name__}: {exc}")
            entry = SweepEntry(key=key, digest=key.digest(), error=error)
        entry.attempts = attempt
        if entry.error is None:
            record(entry)
            return
        if stopping():
            return  # unfinished at the drain: left for a resume
        if entry.error.startswith("TimeoutError"):
            on_event("timeout", entry.digest, attempt=attempt)
        if attempt < retry.max_attempts:
            kind = "requeue" if isinstance(exc, BrokenProcessPool) \
                else "retry"
            on_event(kind, entry.digest, attempt=attempt, error=entry.error)
            heappush(waiting, (_WALL() + retry.delay(entry.digest, attempt),
                               next(seq), item))
            return
        if retry.max_attempts > 1:
            on_event("quarantine", entry.digest, attempts=attempt,
                     error=entry.error)
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
        while ready or waiting or inflight:
            if stopping():
                ready.clear()
                waiting.clear()
                if drain_deadline is None:
                    drain_deadline = _WALL() + DRAIN_TIMEOUT
                if not inflight:
                    break
                if _WALL() >= drain_deadline:
                    _kill_pool()  # the stragglers stay resumable
                    break
            now = _WALL()
            while waiting and waiting[0][0] <= now:
                ready.append(heappop(waiting)[2])
            while ready and len(inflight) < window:
                item = ready.popleft()
                try:
                    inflight[launch(item)] = item
                except BrokenProcessPool:  # broke while idle
                    attempts[item[0]] -= 1  # never ran: not charged
                    ready.appendleft(item)
                    restart_pool()
            deadlines = [waiting[0][0]] if waiting else []
            if stop is not None:
                deadlines.append(now + 0.25)  # stay responsive to stop
            if drain_deadline is not None:
                deadlines.append(drain_deadline)
            timeout = max(0.0, min(deadlines) - now) if deadlines else None
            if not inflight:
                time.sleep(timeout or 0.0)  # only backoffs are pending
                continue
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
    interrupted = stopping() and len(ordered) < len(items)
    if interrupted and journal is not None:
        journal.append({"event": "interrupted", "done": len(ordered),
                        "total": len(items)})
    return SweepResult(
        entries=ordered, jobs=jobs, wall_seconds=_WALL() - t0,
        total_keys=len(items), interrupted=interrupted, resilience=tallies,
    )


def _pooled_entry(store: TraceStore, key: TraceKey, outcome) -> SweepEntry:
    """A worker's :func:`_produce_one` outcome tuple as a SweepEntry."""
    digest, sha, packets, sim_s, produced, wall, error = outcome
    if produced:
        store.stats.disk_writes += 1
    return SweepEntry(
        key=key, digest=digest, trace_sha256=sha, packets=packets,
        sim_seconds=sim_s, produced=produced,
        cache_hit=not produced and error is None,
        wall_seconds=wall, error=error,
    )
