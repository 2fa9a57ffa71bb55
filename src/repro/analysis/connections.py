"""Per-connection aggregate views of a trace.

The paper's §7.1 stresses that collective patterns "may not necessarily
be characterized by the behavior of a single connection": which
connections carry traffic, and how much, is itself the signature of the
pattern.  :func:`traffic_matrix` recovers the Figure-1 connectivity
structure straight from a measured trace.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..capture import PacketTrace

__all__ = ["traffic_matrix", "connection_table", "active_connections"]


def traffic_matrix(trace: PacketTrace, n_hosts: Optional[int] = None
                   ) -> np.ndarray:
    """Bytes sent from host *i* to host *j*, as an (n, n) matrix.

    Broadcast frames (a negative destination) name no host column and
    are left out; :func:`connection_table` lists them as ``(src, -1)``.
    """
    if n_hosts is None:
        hosts = trace.hosts()
        n_hosts = int(hosts.max()) + 1 if len(hosts) else 0
    m = np.zeros((n_hosts, n_hosts), dtype=np.int64)
    if len(trace) == 0:
        return m
    unicast = trace.dsts >= 0
    np.add.at(m, (trace.srcs[unicast], trace.dsts[unicast]),
              trace.sizes[unicast])
    return m


def connection_table(trace: PacketTrace) -> List[Tuple[int, int, int, int]]:
    """Per-connection (src, dst, packets, bytes), heaviest first."""
    rows = [
        (src, dst, len(conn), conn.total_bytes)
        for (src, dst), conn in trace.by_connection().items()
    ]
    rows.sort(key=lambda r: r[3], reverse=True)
    return rows


def active_connections(trace: PacketTrace, min_bytes: int = 0
                       ) -> List[Tuple[int, int]]:
    """(src, dst) pairs carrying more than ``min_bytes``."""
    return [
        (s, d) for s, d, _n, total in connection_table(trace)
        if total > min_bytes
    ]
