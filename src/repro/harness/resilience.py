"""Failure injection for the sweep service.

Production campaigns treat partial failure as the steady state: workers
die, tasks hang, processes get SIGKILLed mid-sweep, and cache entries
rot on disk.  The sweep engine (:mod:`repro.harness.sweep`) recovers
from each: it rebuilds a pool whose worker died and requeues the keys
in flight, fails a key past its ``task_timeout`` inside the worker,
puts every failed attempt straight back on the queue until its
``retries`` run out (then quarantines the key), and resumes a stopped
or killed sweep from the content-addressed trace cache, whose entries
land atomically.

This module holds :class:`ChaosPlan`, a seeded fault-injection grammar
(``kill-worker=P,hang=P,corrupt-cache=P,seed=N``) whose decisions are
pure hash functions, so every recovery path is exercised
deterministically in tests and CI.  Recovery is wall-clock-aware but
**never** feeds wall readings into simulation state: it retries and
requeues work whose outputs are deterministic, so a sweep that survived
three worker kills emits a manifest byte-identical to one that saw none.

The sweep counts each recovery in ``SweepResult.resilience``:
``retries``, ``requeued``, ``quarantined``, ``timeouts``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

__all__ = [
    "ChaosError",
    "ChaosPlan",
]

#: Cap on how long a graceful shutdown waits for in-flight tasks before
#: their workers are killed anyway (the keys they held stay missing from
#: the cache, so a rerun produces them).
DRAIN_TIMEOUT = 30.0


def _unit(seed: int, *parts) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from hashed parts.

    Every chaos decision routes through this, so a given
    ``(seed, key, attempt)`` always rolls the same dice — the property
    that makes chaos tests repeatable and CI-debuggable.
    """
    payload = ":".join([str(seed), *map(str, parts)]).encode()
    return int(hashlib.sha256(payload).hexdigest()[:13], 16) / 16 ** 13


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
                          (so a sweep takes it only with a timeout)
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

