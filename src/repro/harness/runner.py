"""Shared trace production with caching.

Figures 3-7 all analyse the same five kernel traces and Figures 8-11 the
same AIRSHED trace, so traces are produced once per (program, scale,
seed, overrides) and shared — within a process through the
:class:`~repro.harness.store.TraceStore` LRU layer, and across processes
through its on-disk cache (enabled by the ``REPRO_TRACE_CACHE``
environment variable, ``repro cache``, or :func:`configure_trace_store`).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from ..capture import PacketTrace
from .store import TraceStore

__all__ = [
    "get_trace",
    "prefetch_traces",
    "clear_trace_cache",
    "trace_store",
    "configure_trace_store",
    "set_default_faults",
    "default_faults",
    "REPRESENTATIVE_CONNECTIONS",
]

#: The representative connection analysed per program (paper §6.1):
#: SOR/2DFFT pick an arbitrary (adjacent, for SOR) machine pair; T2DFFT a
#: sender-half -> receiver-half pair; SEQ and HIST have no representative
#: connection because their patterns are not symmetric.
REPRESENTATIVE_CONNECTIONS: Dict[str, Tuple[int, int]] = {
    "sor": (1, 2),
    "2dfft": (1, 2),
    "t2dfft": (0, 2),
    "airshed": (1, 2),
}

_STORE: TraceStore = TraceStore.from_env()

#: Fault plan injected into every :func:`get_trace` that does not pass
#: its own ``faults`` override (set by ``repro --faults``).
_DEFAULT_FAULTS = None


def set_default_faults(faults):
    """Install a process-wide fault plan for trace production.

    Every subsequent :func:`get_trace` call without an explicit
    ``faults`` override runs under this plan (and keys the cache on it).
    Pass ``None`` to clear.  Returns the previous default so callers can
    restore it.
    """
    global _DEFAULT_FAULTS
    previous = _DEFAULT_FAULTS
    _DEFAULT_FAULTS = faults
    return previous


def default_faults():
    """The process-wide fault plan, or None."""
    return _DEFAULT_FAULTS


def trace_store() -> TraceStore:
    """The process-wide trace store."""
    return _STORE


def configure_trace_store(
    capacity: Optional[int] = None,
    disk_dir: Optional[os.PathLike] = None,
) -> TraceStore:
    """Replace the process-wide store (e.g. to enable the disk layer).

    Statistics reset; the memory layer starts empty.  Returns the new
    store.
    """
    global _STORE
    _STORE = TraceStore(
        capacity=capacity if capacity is not None else _STORE.capacity,
        disk_dir=disk_dir,
    )
    return _STORE


def get_trace(name: str, scale: str = "default", seed: int = 0,
              **overrides) -> PacketTrace:
    """The measured trace of one program, cached across experiments.

    ``overrides`` (iterations, nprocs, route, ``faults``,
    ``program_kwargs``, ``cluster_kwargs``, ...) are forwarded to
    :func:`repro.programs.run_measured` and participate in the cache key,
    so ablation variants are cached alongside the standard runs.  When a
    process-wide fault plan is set (:func:`set_default_faults`) it
    applies to every call without its own ``faults`` override.
    """
    if _DEFAULT_FAULTS is not None and "faults" not in overrides:
        overrides["faults"] = _DEFAULT_FAULTS
    return _STORE.get(name, scale=scale, seed=seed, **overrides)


def prefetch_traces(specs, jobs: int = 1):
    """Produce a batch of traces through the sweep engine, cache first.

    ``specs`` are warm-style ``(name, scale, seed[, overrides])`` tuples
    (deduplicated before fan-out).  With ``jobs > 1`` the cache misses
    shard across the persistent sweep worker pool in spec order, so a
    batch lists its longest traces first; later
    :func:`get_trace` calls for the same keys then hit the cache instead
    of simulating serially.  The process-wide default fault plan applies
    exactly as it would in :func:`get_trace`.  Returns the
    :class:`~repro.harness.sweep.SweepResult` (failures are recorded per
    key, not raised — the serial fallback in the caller will surface
    them with full tracebacks).
    """
    from .sweep import run_sweep

    if _DEFAULT_FAULTS is not None:
        patched = []
        for spec in specs:
            if len(spec) == 3:
                name, scale, seed = spec
                overrides = {}
            else:
                name, scale, seed, overrides = spec
                overrides = dict(overrides)
            overrides.setdefault("faults", _DEFAULT_FAULTS)
            patched.append((name, scale, seed, overrides))
        specs = patched
    return run_sweep(specs, jobs=jobs, store=_STORE)


def clear_trace_cache() -> None:
    """Drop the in-memory layer (the disk layer, if any, is kept)."""
    _STORE.clear()
