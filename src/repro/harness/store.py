"""TraceStore: parallel, persistent trace production.

Every figure, table, ablation, and replication run analyses traces that
are expensive to produce (minutes of discrete-event simulation) and
cheap to store (a compressed structured array).  The store separates
trace *production* from trace *analysis*:

* an in-memory LRU layer bounds the per-process working set and keeps
  the hot traces of a figure sweep resident;
* an on-disk cache under ``results/.trace-cache/`` persists finished
  traces across processes, keyed by a content digest of everything that
  determines the trace bytes — program name, scale, seed, run-time
  overrides, and a pipeline schema version;
* :meth:`TraceStore.warm` fans production out across a
  ``multiprocessing`` pool, one worker per (program, scale, seed) job.
  Each worker produces through a store over the same on-disk cache, so
  a warmed store serves benchmarks, figures, ablations, and the CLI
  without re-simulating.

Production is deterministic (the DES is exactly repeatable given a
seed), so parallel and serial production yield byte-identical traces;
``repro cache warm`` prints each trace's SHA-256 so that property is
checkable from the command line.

Cache key schema (``TRACE_SCHEMA_VERSION``)
-------------------------------------------
The digest covers ``(schema, name, scale, seed, overrides)`` where
``overrides`` is the canonicalized kwargs forwarded to
:func:`repro.programs.run_measured` (iterations, nprocs, route,
``program_kwargs``, ``cluster_kwargs``, ...).  Bump the schema version
whenever simulation semantics change — MAC timing, TCP segmentation,
work-model calibration — so stale traces can never masquerade as fresh
ones.  ``repro cache clear`` wipes the directory outright.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..atomic import write_atomic
from ..capture import PacketTrace, load_npz, save_npz_atomic, trace_digest
from ..faults import FaultPlan
from ..programs import run_measured

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceKey",
    "CacheStats",
    "TraceStore",
    "ScrubEntry",
    "ScrubReport",
]

#: Bump when simulation semantics change: any MAC/transport/work-model
#: fix invalidates every cached trace.  Version 2 = post carrier-sense /
#: busy-time / zero-byte-send fixes.  Version 3 = fault injection: the
#: trace dtype gained the ``retx`` column and fault plans join the key
#: (fault-free simulation dynamics are unchanged).
TRACE_SCHEMA_VERSION = 3

#: Environment switch: set REPRO_TRACE_CACHE to a directory to enable
#: the persistent layer for every process (empty string disables).
CACHE_ENV_VAR = "REPRO_TRACE_CACHE"


def _canonical(value):
    """Reduce override values to a JSON-stable form for digesting."""
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if isinstance(value, FaultPlan):
        return _canonical(value.canonical())
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


@dataclass(frozen=True)
class TraceKey:
    """Everything that determines a produced trace's bytes."""

    name: str
    scale: str = "default"
    seed: int = 0
    overrides: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def make(cls, name: str, scale: str = "default", seed: int = 0,
             **overrides) -> "TraceKey":
        # A fault plan keys on its canonical form, so an equal plan
        # spelled as a spec string, dict, or FaultPlan digests equally
        # (and faults=None digests like no faults at all).
        if "faults" in overrides:
            plan = FaultPlan.coerce(overrides["faults"])
            if plan is None:
                del overrides["faults"]
            else:
                overrides["faults"] = plan.canonical()
        frozen = tuple(
            (k, json.dumps(_canonical(v), sort_keys=True))
            for k, v in sorted(overrides.items())
        )
        return cls(name=name, scale=scale, seed=seed, overrides=frozen)

    def digest(self) -> str:
        payload = json.dumps(
            {
                "schema": TRACE_SCHEMA_VERSION,
                "name": self.name,
                "scale": self.scale,
                "seed": self.seed,
                "overrides": list(self.overrides),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        tail = f" +{len(self.overrides)} overrides" if self.overrides else ""
        return f"{self.name}/{self.scale}/seed{self.seed}{tail}"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters across both cache layers."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_writes: int = 0
    quarantined: int = 0

    @property
    def requests(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.requests
        return (self.memory_hits + self.disk_hits) / n if n else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_writes": self.disk_writes,
            "quarantined": self.quarantined,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class ScrubEntry:
    """One cache entry's integrity verdict."""

    digest: str
    status: str                  # ok | corrupt | orphan | repaired
    detail: Optional[str] = None


@dataclass
class ScrubReport:
    """Outcome of a :meth:`TraceStore.scrub` pass."""

    checked: int = 0
    ok: int = 0
    corrupt: List[ScrubEntry] = field(default_factory=list)
    orphans: List[ScrubEntry] = field(default_factory=list)
    repaired: int = 0
    quarantined: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def as_dict(self) -> dict:
        return {
            "checked": self.checked,
            "ok": self.ok,
            "corrupt": [{"digest": e.digest, "detail": e.detail}
                        for e in self.corrupt],
            "orphans": [e.digest for e in self.orphans],
            "repaired": self.repaired,
            "quarantined": self.quarantined,
        }

    def describe(self) -> str:
        return (f"scrub: {self.checked} checked, {self.ok} ok, "
                f"{len(self.corrupt)} corrupt, {len(self.orphans)} orphaned, "
                f"{self.repaired} repaired, {self.quarantined} quarantined")


def _stat_signature(path: Path) -> Optional[tuple]:
    """The identity of a file's current bytes: (inode, size, mtime-ns).

    ``os.replace`` swaps in a different inode, so a concurrent writer
    refreshing an entry always changes the signature — the seam the
    quarantine race-guard (and its tests) key on.
    """
    try:
        st = path.stat()
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _decode_overrides(raw: dict) -> dict:
    """Sidecar ``key.overrides`` back to ``run_measured`` kwargs.

    Every entry is written through :meth:`TraceStore._disk_store`, whose
    sidecar holds JSON-encoded strings (the frozen :class:`TraceKey`
    form).  Older sweep workers wrote their own sidecars holding the raw
    dict; such caches are input from outside the program, and
    ``repro cache scrub --repair`` must still rebuild them, so accept
    both.
    """
    kwargs = {}
    for name, value in (raw or {}).items():
        if isinstance(value, str):
            try:
                kwargs[name] = json.loads(value)
                continue
            except ValueError:
                pass
        kwargs[name] = value
    return kwargs


def _key_doc(key: TraceKey) -> dict:
    """A key as its sidecar records it."""
    return {"name": key.name, "scale": key.scale, "seed": key.seed,
            "overrides": dict(key.overrides)}


def _write_sidecar(directory: Path, digest: str, trace: PacketTrace,
                   describe: dict) -> None:
    """Atomically write one entry's metadata sidecar for ``trace``."""
    meta = {
        "schema": TRACE_SCHEMA_VERSION,
        "key": describe,
        "packets": len(trace),
        "sim_seconds": float(trace.duration),
        "trace_sha256": trace_digest(trace),
    }
    write_atomic(directory / f"{digest}.json",
                 json.dumps(meta, indent=2, default=str))


def _write_entry(directory: Path, digest: str, trace: PacketTrace,
                 describe: dict) -> None:
    """Write the npz + metadata pair for one cache entry atomically.

    The npz lands before its metadata sidecar, so a sidecar's presence
    implies a readable trace; both are written to unique temp files and
    renamed into place (two workers racing on the same key can never
    leave a torn entry — and determinism makes their bytes identical).
    """
    directory.mkdir(parents=True, exist_ok=True)
    save_npz_atomic(trace, directory / f"{digest}.npz")
    _write_sidecar(directory, digest, trace, describe)


class TraceStore:
    """Two-layer trace cache with parallel production.

    Parameters
    ----------
    capacity:
        Maximum traces held in memory; least-recently-used entries are
        evicted once exceeded (they remain on disk when persistence is
        enabled).
    disk_dir:
        Directory for the persistent layer, or ``None`` for memory-only
        operation (the default for unit tests, where stale traces must
        never mask code changes).
    """

    def __init__(self, capacity: int = 32,
                 disk_dir: Optional[os.PathLike] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.disk_dir: Optional[Path] = Path(disk_dir) if disk_dir else None
        self.stats = CacheStats()
        self._lru: "OrderedDict[TraceKey, PacketTrace]" = OrderedDict()

    @classmethod
    def from_env(cls, capacity: int = 32) -> "TraceStore":
        """A store honouring the ``REPRO_TRACE_CACHE`` environment switch."""
        return cls(capacity=capacity,
                   disk_dir=os.environ.get(CACHE_ENV_VAR) or None)

    # -- lookup --------------------------------------------------------
    def get(self, name: str, scale: str = "default", seed: int = 0,
            **overrides) -> PacketTrace:
        """The trace for a key, produced at most once across layers."""
        key = TraceKey.make(name, scale=scale, seed=seed, **overrides)
        trace = self._lru.get(key)
        if trace is not None:
            self._lru.move_to_end(key)
            self.stats.memory_hits += 1
            return trace
        trace = self._disk_load(key)
        if trace is not None:
            self.stats.disk_hits += 1
        else:
            self.stats.misses += 1
            trace = run_measured(name, scale=scale, seed=seed, **overrides)
            self._disk_store(key, trace)
        self._insert(key, trace)
        return trace

    def put(self, key: TraceKey, trace: PacketTrace) -> None:
        """Insert an externally produced trace (and persist it)."""
        self._disk_store(key, trace)
        self._insert(key, trace)

    def __contains__(self, key: TraceKey) -> bool:
        if key in self._lru:
            return True
        return self._disk_path(key) is not None

    def __len__(self) -> int:
        return len(self._lru)

    # -- memory layer --------------------------------------------------
    def _insert(self, key: TraceKey, trace: PacketTrace) -> None:
        self._lru[key] = trace
        self._lru.move_to_end(key)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
            self.stats.evictions += 1

    # -- disk layer ----------------------------------------------------
    def _disk_path(self, key: TraceKey) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        path = self.disk_dir / f"{key.digest()}.npz"
        return path if path.exists() else None

    def _disk_load(self, key: TraceKey) -> Optional[PacketTrace]:
        path = self._disk_path(key)
        if path is None:
            return None
        signature = _stat_signature(path)
        try:
            trace = load_npz(path)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            # A truncated or foreign file is a miss — quarantine it so
            # the fresh entry we are about to produce can land, and so
            # the corruption is visible in ``cache stats`` instead of
            # silently costing a re-simulation every run.
            self._quarantine(path, signature)
            return None
        if not path.with_suffix(".json").exists():
            # A loadable npz whose sidecar is gone: ``load_npz`` has just
            # checked the zip CRCs, so heal the entry from these bytes,
            # and the next sweep short-circuits the key again.  A cache
            # this process cannot write to still serves the trace.
            try:
                _write_sidecar(self.disk_dir, path.stem, trace, _key_doc(key))
            except OSError:
                pass
            else:
                self.stats.disk_writes += 1
        return trace

    def _quarantine(self, path: Path,
                    signature: Optional[tuple] = None) -> bool:
        """Set a cache file aside as ``*.corrupt``.

        ``signature`` is the :func:`_stat_signature` observed when the
        file was judged corrupt.  If a concurrent writer has since
        ``os.replace``'d a fresh entry into place, the inode signature
        differs and the quarantine is abandoned — we must never eat a
        valid entry that merely shares a name with the corpse we read.
        """
        try:
            if signature is not None and _stat_signature(path) != signature:
                return False  # racing writer already healed the entry
            path.rename(path.with_name(path.name + ".corrupt"))
            self.stats.quarantined += 1
            return True
        except OSError:  # pragma: no cover - already renamed or gone
            return False

    def quarantined_entries(self) -> List[Path]:
        """Cache files set aside as unreadable (``*.corrupt``)."""
        if self.disk_dir is None or not self.disk_dir.exists():
            return []
        return sorted(self.disk_dir.glob("*.corrupt"))

    # -- integrity scrubbing -------------------------------------------
    def scrub(self, repair: bool = False) -> ScrubReport:
        """Verify every persisted entry's bytes against its sidecar.

        Each ``<digest>.npz`` is loaded and its content SHA-256
        recomputed; a load failure or a mismatch against the sidecar's
        ``trace_sha256`` marks the entry corrupt and quarantines both
        files (``*.corrupt``).  A loadable npz without a sidecar is
        reported as an orphan and left alone (it may be mid-write by a
        concurrent producer — the npz always lands first).

        With ``repair=True``, corrupt entries whose sidecar still names
        the key are re-produced through the engine and written back.

        The scrub is safe to run against live writers: before
        quarantining, the file's stat signature is re-checked and a
        freshly ``os.replace``'d entry is re-verified instead of eaten.
        """
        report = ScrubReport()
        if self.disk_dir is None or not self.disk_dir.exists():
            return report
        for npz in sorted(self.disk_dir.glob("*.npz")):
            if npz.name.startswith("."):
                continue  # a writer's temp file
            digest = npz.stem
            report.checked += 1
            verdict = self._scrub_one(npz)
            for _retry in range(2):
                if verdict[0] != "corrupt":
                    break
                # Possibly a racing writer mid-heal: if the bytes have
                # changed since the verdict, judge the new bytes.
                if _stat_signature(npz) == verdict[2]:
                    break
                verdict = self._scrub_one(npz)
            status, detail, signature, meta = verdict
            if status == "ok":
                report.ok += 1
                continue
            if status == "orphan":
                report.orphans.append(ScrubEntry(digest, "orphan", detail))
                continue
            entry = ScrubEntry(digest, "corrupt", detail)
            if self._quarantine(npz, signature):
                report.quarantined += 1
                sidecar = npz.with_suffix(".json")
                if sidecar.exists():
                    self._quarantine(sidecar)
            if repair and meta is not None:
                try:
                    key_doc = meta.get("key") or {}
                    trace = run_measured(
                        key_doc["name"], scale=key_doc.get("scale", "default"),
                        seed=int(key_doc.get("seed", 0)),
                        **_decode_overrides(key_doc.get("overrides")),
                    )
                    _write_entry(self.disk_dir, digest, trace, key_doc)
                    self.stats.disk_writes += 1
                    entry.status = "repaired"
                    report.repaired += 1
                except Exception as exc:  # noqa: BLE001 - per-entry
                    entry.detail = (f"{detail}; repair failed: "
                                    f"{type(exc).__name__}: {exc}")
            report.corrupt.append(entry)
        return report

    def _scrub_one(self, npz: Path):
        """Judge one entry: (status, detail, stat-signature, sidecar)."""
        signature = _stat_signature(npz)
        if signature is None:
            return ("ok", "vanished mid-scrub", None, None)
        meta = None
        try:
            meta = json.loads(npz.with_suffix(".json").read_text())
        except (OSError, ValueError):
            meta = None
        try:
            trace = load_npz(npz)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            return ("corrupt", f"unreadable: {type(exc).__name__}: {exc}",
                    signature, meta)
        if meta is None:
            return ("orphan", "no metadata sidecar", signature, None)
        expected = meta.get("trace_sha256")
        actual = trace_digest(trace)
        if expected is not None and actual != expected:
            return ("corrupt",
                    f"sha256 mismatch: sidecar {expected[:12]}… "
                    f"vs bytes {actual[:12]}…", signature, meta)
        return ("ok", None, signature, meta)

    def _disk_store(self, key: TraceKey, trace: PacketTrace) -> None:
        if self.disk_dir is None:
            return
        _write_entry(self.disk_dir, key.digest(), trace, _key_doc(key))
        self.stats.disk_writes += 1

    # -- maintenance ---------------------------------------------------
    def clear(self, disk: bool = False) -> int:
        """Drop the memory layer; with ``disk=True`` also delete the
        persistent entries.  Returns the number of disk entries removed."""
        self._lru.clear()
        removed = 0
        if disk and self.disk_dir is not None and self.disk_dir.exists():
            for path in sorted(self.disk_dir.iterdir()):
                if (path.suffix in (".npz", ".json", ".corrupt")
                        and not path.name.startswith(".")):
                    path.unlink()
                    removed += 1
        return removed

    def disk_entries(self) -> List[dict]:
        """Metadata of every persisted entry (for ``repro cache stats``)."""
        if self.disk_dir is None or not self.disk_dir.exists():
            return []
        entries = []
        for meta_path in sorted(self.disk_dir.glob("*.json")):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue
            meta["digest"] = meta_path.stem
            npz = meta_path.with_suffix(".npz")
            meta["bytes"] = npz.stat().st_size if npz.exists() else 0
            entries.append(meta)
        return entries

    # -- parallel production -------------------------------------------
    def warm(self, specs: Iterable[Tuple], jobs: int = 1) -> list:
        """Produce traces for ``specs`` in parallel, through the disk cache.

        Parameters
        ----------
        specs:
            Iterable of ``(name, scale, seed)`` tuples or
            ``(name, scale, seed, overrides_dict)``.
        jobs:
            Worker processes; 1 produces serially in-process (still
            writing through the cache), which is also the fallback when
            no disk layer is configured.

        Returns the sweep's :class:`~repro.harness.sweep.SweepEntry` for
        each unique key, in spec order.  Workers inherit the DES's
        determinism, so the recorded ``trace_sha256`` values are
        identical however the work is split.

        This is a thin facade over the sweep engine
        (:func:`repro.harness.sweep.run_sweep`): requested keys are
        deduplicated up front, cache hits short-circuit without touching
        a worker, and misses shard across the *persistent* process-wide
        pool (:func:`~repro.harness.sweep.shared_pool`) rather than a
        fresh ``multiprocessing.Pool`` per call.  Every miss is produced
        through :meth:`get`: on this store when serial, or in a worker on
        a store over the same disk layer, so a pooled key lands in the
        cache exactly as a serial one; only the serial path also fills
        this store's memory layer.
        """
        from .sweep import as_work_items, run_sweep

        keys = as_work_items(specs)
        by_key = run_sweep(keys, jobs=jobs, store=self).by_key()
        return [by_key[key] for key, _overrides in keys]

    def __repr__(self):  # pragma: no cover - cosmetic
        where = self.disk_dir or "memory-only"
        return (f"<TraceStore {len(self._lru)}/{self.capacity} in memory, "
                f"{where}, {self.stats.as_dict()}>")
