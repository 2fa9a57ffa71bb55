"""Trace/model comparison metrics.

Quantifies the elementary characteristics the paper lists in §7.1 and
the fidelity of model-generated traffic:

* :func:`series_nrmse` — reconstruction error between bandwidth signals;
* :func:`connection_correlation` — "correlated traffic along many
  connections": mean pairwise correlation of per-connection bandwidth;
* :func:`burst_size_constancy` — "constant burst sizes": dispersion of
  per-burst byte totals;
* :func:`find_bursts` — segment a trace into bursts separated by idle
  gaps.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import binned_bandwidth
from ..capture import PacketTrace

__all__ = [
    "series_nrmse",
    "connection_correlation",
    "find_bursts",
    "burst_size_constancy",
]


def series_nrmse(a: np.ndarray, b: np.ndarray) -> float:
    """RMS difference normalized by the RMS of ``a``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = np.sqrt(np.mean(a**2))
    if denom == 0:
        return 0.0 if np.allclose(b, 0) else float("inf")
    return float(np.sqrt(np.mean((a - b) ** 2)) / denom)


def connection_correlation(
    trace: PacketTrace,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    bin_width: float = 0.050,
    min_packets: int = 4,
) -> float:
    """Mean pairwise Pearson correlation of per-connection bandwidth.

    The paper: synchronized communication phases imply the active
    connections' traffic is *correlated* and, under strong
    synchronization, in phase.  Returns NaN when fewer than two
    connections qualify.
    """
    groups = trace.by_connection()
    if pairs is None:
        pairs = list(groups)
    if len(trace) < 2:
        return float("nan")
    t0 = float(trace.times[0])
    t1 = float(trace.times[-1]) + bin_width
    series = []
    for src, dst in pairs:
        conn = groups.get((src, dst))
        if conn is None or len(conn) < min_packets:
            continue
        s = binned_bandwidth(conn, bin_width, t0=t0, t1=t1)
        if s.values.std() > 0:
            series.append(s.values)
    if len(series) < 2:
        return float("nan")
    correlations = [
        float(np.corrcoef(x, y)[0, 1]) for x, y in combinations(series, 2)
    ]
    return float(np.mean(correlations))


def find_bursts(
    trace: PacketTrace,
    gap: float = 0.050,
) -> List[Tuple[float, float, int]]:
    """Segment a trace into bursts separated by idle gaps > ``gap``.

    Returns (start_time, total_bytes, n_packets) per burst.
    """
    if len(trace) == 0:
        return []
    t = trace.times
    sizes = trace.sizes.astype(np.float64)
    breaks = np.flatnonzero(np.diff(t) > gap) + 1
    segments = np.split(np.arange(len(t)), breaks)
    bursts = []
    for seg in segments:
        bursts.append(
            (float(t[seg[0]]), float(sizes[seg].sum()), int(len(seg)))
        )
    return bursts


def burst_size_constancy(
    trace: PacketTrace,
    gap: float = 0.050,
    drop_edges: bool = True,
) -> float:
    """Coefficient of variation of burst byte totals (lower = more
    constant, the paper's "constant burst sizes").

    ``drop_edges`` discards the first and last burst, which a finite
    capture usually truncates.
    """
    bursts = find_bursts(trace, gap=gap)
    if drop_edges and len(bursts) > 4:
        bursts = bursts[1:-1]
    if len(bursts) < 2:
        return float("nan")
    totals = np.array([b for _, b, _ in bursts], dtype=np.float64)
    mean = totals.mean()
    if mean == 0:
        return float("nan")
    return float(totals.std() / mean)
