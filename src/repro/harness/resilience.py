"""Self-healing machinery for the sweep service.

Production campaigns treat partial failure as the steady state: workers
die, tasks hang, processes get SIGKILLed mid-sweep, and cache entries
rot on disk.  This module holds the policies the sweep engine
(:mod:`repro.harness.sweep`) recovers with:

* :class:`RetryPolicy` — exponential backoff with **seeded,
  deterministic jitter** and a poison-key quarantine after
  ``max_attempts``, so one pathological config cannot stall a grid;
* :class:`ChaosPlan` — a seeded fault-injection grammar
  (``kill-worker=P,hang=P,corrupt-cache=P,seed=N``) whose decisions are
  pure hash functions, so every recovery path is exercised
  deterministically in tests and CI;
* :class:`SweepJournal` — an append-only, fsync'd
  ``journal.jsonl`` with atomic rotation; replaying it is what makes
  ``repro sweep --journal FILE`` crash-safe after a SIGKILL or reboot.

The engine's executor rebuilds a pool whose worker died and enforces
``task_timeout`` inside the worker; everything here is wall-clock-aware
(backoff is wall time by definition) but **never** feeds wall readings
into simulation state: the recovery layer retries, requeues, and
replays work whose outputs are deterministic, so a sweep that survived
three worker kills emits a manifest byte-identical to one that saw none.

The sweep counts each recovery in ``SweepResult.resilience``:
``retries``, ``requeued``, ``quarantined``, ``timeouts``, ``replayed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "ChaosError",
    "ChaosPlan",
    "RetryPolicy",
    "SweepJournal",
    "produce_with_chaos",
]

#: Journal line-format version, recorded in the ``begin`` row.
JOURNAL_SCHEMA_VERSION = 1

#: Cap on how long a graceful shutdown waits for in-flight tasks before
#: their workers are killed anyway (the journal keeps the keys resumable).
DRAIN_TIMEOUT = 30.0


def _unit(seed: int, *parts) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from hashed parts.

    Every retry-jitter and chaos decision routes through this, so a
    given ``(seed, key, attempt)`` always rolls the same dice — the
    property that makes chaos tests repeatable and CI-debuggable.
    """
    payload = ":".join([str(seed), *map(str, parts)]).encode()
    return int(hashlib.sha256(payload).hexdigest()[:13], 16) / 16 ** 13


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a quarantine cap.

    ``max_attempts`` counts total tries: ``3`` means the first run plus
    two retries; a key still failing afterwards is *quarantined* — its
    error is recorded and the sweep moves on.  ``max_attempts=1``
    disables retries entirely.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.jitter < 0:
            raise ValueError("backoff_base and jitter must be >= 0")

    def delay(self, ident: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``ident``.

        Deterministic: the jitter term is a pure hash of
        ``(seed, ident, attempt)``, never a live RNG draw.
        """
        base = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        return base * (1.0 + self.jitter * _unit(self.seed, "retry",
                                                ident, attempt))


#: The engine default: two retries with ~50 ms base backoff, enough to
#: ride out transient worker deaths without taxing deterministic errors.
DEFAULT_RETRY = RetryPolicy()


# ---------------------------------------------------------------------------
# Chaos plan
# ---------------------------------------------------------------------------


class ChaosError(ValueError):
    """A malformed chaos spec."""


_CHAOS_KEYS = ("kill-worker", "hang", "corrupt-cache", "seed")


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded, deterministic failure injection for pooled sweeps.

    Spec grammar (comma-separated, any subset)::

        kill-worker=P     worker calls os._exit mid-task with probability P
        hang=P            worker sleeps until the task timeout fires
        corrupt-cache=P   the freshly written npz is truncated on disk
        seed=N            decision seed (default 0)

    Kill and hang decisions are per ``(digest, attempt)`` hash draws, so
    a key killed on its first attempt usually survives its second — and
    the whole failure schedule replays identically for a given seed.
    Corruption is drawn once per digest (as its first attempt): which
    attempt finally lands an entry depends on which keys shared the pool
    when a worker died, and the set of rotten entries must not.
    """

    kill_worker: float = 0.0
    hang: float = 0.0
    corrupt_cache: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("kill_worker", "hang", "corrupt_cache"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ChaosError(f"{name.replace('_', '-')} probability "
                                 f"must be in [0, 1], got {p}")

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse ``kill-worker=P,hang=P,corrupt-cache=P,seed=N``."""
        fields = {"seed": 0}
        for token in str(spec).split(","):
            token = token.strip()
            if not token:
                continue
            key, eq, value = token.partition("=")
            key = key.strip().lower()
            if not eq or key not in _CHAOS_KEYS:
                raise ChaosError(
                    f"bad chaos token {token!r}; known: "
                    + ", ".join(f"{k}=..." for k in _CHAOS_KEYS))
            try:
                fields[key.replace("-", "_")] = (
                    int(value) if key == "seed" else float(value))
            except ValueError:
                raise ChaosError(
                    f"bad chaos value in {token!r}") from None
        return cls(**fields)

    @property
    def active(self) -> bool:
        return bool(self.kill_worker or self.hang or self.corrupt_cache)

    def describe(self) -> str:
        """Canonical spec string; re-parses to an equal plan."""
        parts = []
        if self.kill_worker:
            parts.append(f"kill-worker={self.kill_worker}")
        if self.hang:
            parts.append(f"hang={self.hang}")
        if self.corrupt_cache:
            parts.append(f"corrupt-cache={self.corrupt_cache}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)

    def as_dict(self) -> dict:
        return {"kill_worker": self.kill_worker, "hang": self.hang,
                "corrupt_cache": self.corrupt_cache, "seed": self.seed}

    def decide(self, ident: str, attempt: int) -> Tuple[bool, bool, bool]:
        """``(kill, hang, corrupt)`` decisions for one task attempt."""
        return (
            _unit(self.seed, "kill", ident, attempt) < self.kill_worker,
            _unit(self.seed, "hang", ident, attempt) < self.hang,
            _unit(self.seed, "corrupt", ident, 1) < self.corrupt_cache,
        )

    def corrupted_idents(self, idents: Sequence[str]) -> List[str]:
        """The subset of ``idents`` whose entry the plan corrupts — what
        a scrubber test must detect, exhaustively."""
        return [i for i in idents if self.decide(i, 1)[2]]


def _truncate_file(path: Path) -> None:
    """Chaos corruption: truncate an entry to half its bytes, exactly the
    torn-write shape a crashed writer or bad disk leaves behind."""
    try:
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
    except OSError:  # pragma: no cover - entry raced away; nothing to corrupt
        pass


def produce_with_chaos(payload) -> tuple:
    """Pool worker entry: one sweep task, under an optional chaos plan.

    ``payload`` is ``(task, attempt, chaos_dict_or_None)`` where ``task``
    is the sweep engine's standard production tuple.  Chaos decisions
    are evaluated here, inside the worker, so a ``kill`` takes the whole
    process down exactly like a real crash would — the executor in the
    parent is what must recover.
    """
    task, attempt, chaos_doc = payload
    digest = task[4]
    if chaos_doc:
        plan = ChaosPlan(**chaos_doc)
        kill, hang, corrupt = plan.decide(digest, attempt)
        if kill:
            os._exit(17)  # simulate SIGKILL: no cleanup, no answer
        if hang:
            while True:  # hold the task until the task timeout fires
                time.sleep(60)
    else:
        corrupt = False
    from .sweep import _produce_one

    out = _produce_one(task)
    if corrupt:
        # Corrupt *after* the digest was computed from the in-memory
        # trace: the sweep answer stays truthful, the disk entry rots —
        # exactly the failure `repro cache scrub` exists to catch.
        _truncate_file(Path(task[5]) / f"{digest}.npz")
    return out


# ---------------------------------------------------------------------------
# Sweep journal
# ---------------------------------------------------------------------------


class SweepJournal:
    """Append-only, fsync'd record of a sweep's completed keys.

    One JSON object per line.  ``done`` rows carry everything a resumed
    sweep needs to replay a key without re-reading its cache entry;
    ``retry``/``requeue``/``quarantine``/``interrupted`` rows are the
    audit trail.  A torn final line (the crash landed mid-append) is
    skipped on replay, never fatal.

    :meth:`rotate` is the atomic compaction used when a resume opens an
    existing journal: the surviving ``done`` rows are rewritten to a
    temp file, fsync'd, and ``os.replace``d over the old journal, so
    the file on disk is always either the old complete journal or the
    new complete one.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = None

    # -- replay --------------------------------------------------------
    def replay(self) -> Dict[str, dict]:
        """``digest -> done row`` for every completed key on record."""
        rows: Dict[str, dict] = {}
        try:
            text = self.path.read_text()
        except OSError:
            return rows
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue  # torn tail from a crash mid-append
            if row.get("event") == "done" and row.get("digest"):
                rows[row["digest"]] = row
        return rows

    # -- writing -------------------------------------------------------
    def _open(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def append(self, row: dict) -> None:
        """Append one row durably (flush + fsync before returning)."""
        fh = self._open()
        fh.write(json.dumps(row, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())

    def rotate(self, done_rows: Dict[str, dict]) -> None:
        """Atomically rewrite the journal down to ``done_rows``."""
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(
                    {"event": "begin", "schema": JOURNAL_SCHEMA_VERSION,
                     "replayed": len(done_rows)}, sort_keys=True) + "\n")
                for digest in sorted(done_rows):
                    fh.write(json.dumps(done_rows[digest], sort_keys=True)
                             + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)
        self._sync_dir()

    def _sync_dir(self) -> None:
        """Best-effort directory fsync so the rotation itself is durable."""
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
