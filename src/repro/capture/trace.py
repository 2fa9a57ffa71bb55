"""Packet traces: the tcpdump of the simulated LAN.

A :class:`TraceRecorder` listens promiscuously on the bus and records,
for every frame, the fields the paper's methodology kept: timestamp,
measured size (data + TCP/UDP header + IP header + Ethernet header and
trailer), protocol, source, and destination.  The finished
:class:`PacketTrace` is a NumPy structured array, so every analysis in
:mod:`repro.analysis` is vectorized.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..net import EthernetBus, EthernetFrame
from ..transport import PROTO_TCP, PROTO_UDP, TcpSegment, UdpDatagram

__all__ = [
    "PacketTrace",
    "TraceRecorder",
    "bin_slots",
    "KIND_TCP_DATA",
    "KIND_TCP_ACK",
    "KIND_UDP",
]

#: Packet kind codes (finer than IP protocol: ACKs are their own class).
KIND_TCP_DATA = 0
KIND_TCP_ACK = 1
KIND_UDP = 2
KIND_OTHER = 3

TRACE_DTYPE = np.dtype(
    [
        ("time", np.float64),
        ("size", np.uint32),
        ("src", np.int32),
        ("dst", np.int32),
        ("proto", np.uint8),
        ("kind", np.uint8),
        ("retx", np.uint8),  # 1 = TCP retransmission (loss recovery)
    ]
)


class PacketTrace:
    """An immutable packet trace backed by a structured array."""

    def __init__(self, data: np.ndarray):
        if data.dtype != TRACE_DTYPE:
            raise ValueError(f"expected dtype {TRACE_DTYPE}, got {data.dtype}")
        self._data = data

    # -- construction -----------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Iterable[Tuple]) -> "PacketTrace":
        """Build from an iterable of (time, size, src, dst, proto, kind)
        or (..., kind, retx) tuples; a missing retx column means no
        retransmissions."""
        rows = [tuple(r) for r in rows]
        want = len(TRACE_DTYPE)
        rows = [r + (0,) if len(r) == want - 1 else r for r in rows]
        arr = np.array(rows, dtype=TRACE_DTYPE)
        return cls(arr)

    @classmethod
    def from_columns(cls, time, size, src, dst, proto, kind, retx=0
                     ) -> "PacketTrace":
        """Build from one array per field, in :data:`TRACE_DTYPE` order.

        ``time`` sets the packet count; any other argument may be a
        scalar, which every packet shares.
        """
        data = np.zeros(len(time), dtype=TRACE_DTYPE)
        for name, column in zip(TRACE_DTYPE.names,
                                (time, size, src, dst, proto, kind, retx)):
            data[name] = column
        return cls(data)

    @classmethod
    def empty(cls) -> "PacketTrace":
        return cls(np.empty(0, dtype=TRACE_DTYPE))

    @classmethod
    def concat(cls, traces) -> "PacketTrace":
        """Merge traces into one, sorted by timestamp (stable)."""
        traces = list(traces)
        if not traces:
            return cls.empty()
        data = np.concatenate([t.data for t in traces])
        order = np.argsort(data["time"], kind="stable")
        return cls(data[order])

    # -- columns -------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def times(self) -> np.ndarray:
        return self._data["time"]

    @property
    def sizes(self) -> np.ndarray:
        return self._data["size"]

    @property
    def srcs(self) -> np.ndarray:
        return self._data["src"]

    @property
    def dsts(self) -> np.ndarray:
        return self._data["dst"]

    @property
    def protos(self) -> np.ndarray:
        return self._data["proto"]

    @property
    def kinds(self) -> np.ndarray:
        return self._data["kind"]

    @property
    def retransmits(self) -> np.ndarray:
        """1 where the packet is a TCP retransmission, else 0."""
        return self._data["retx"]

    # -- scalars --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    @property
    def duration(self) -> float:
        """Seconds between first and last packet (0 for < 2 packets)."""
        if len(self._data) < 2:
            return 0.0
        return float(self._data["time"][-1] - self._data["time"][0])

    @property
    def total_bytes(self) -> int:
        return int(self._data["size"].sum())

    def retransmit_share(self) -> float:
        """Fraction of trace bytes carried by retransmitted segments —
        the run summary's retransmission-traffic share."""
        total = self._data["size"].sum()
        if total == 0:
            return 0.0
        retx = self._data["size"][self._data["retx"] != 0].sum()
        return float(retx) / float(total)

    # -- filters ---------------------------------------------------------------
    def _where(self, mask: np.ndarray) -> "PacketTrace":
        return PacketTrace(self._data[mask])

    def connection(self, src: int, dst: int) -> "PacketTrace":
        """The paper's *connection*: a simplex machine-to-machine channel.

        All packets from machine ``src`` to machine ``dst``, regardless of
        port or protocol — message TCP, daemon UDP, and the ACKs this
        machine sends for the symmetric channel alike.
        """
        return self._where((self.srcs == src) & (self.dsts == dst))

    def between(self, t0: float, t1: float) -> "PacketTrace":
        """Packets with t0 <= time < t1."""
        t = self.times
        return self._where((t >= t0) & (t < t1))

    def protocol(self, proto: int) -> "PacketTrace":
        return self._where(self.protos == proto)

    def subset(self, hosts) -> "PacketTrace":
        """Packets whose source *and* destination are both in ``hosts``.

        Isolates one application's traffic when several programs share
        the LAN on disjoint machine sets.
        """
        hosts = np.asarray(sorted(hosts))
        return self._where(
            np.isin(self.srcs, hosts) & np.isin(self.dsts, hosts)
        )

    def kind(self, kind: int) -> "PacketTrace":
        return self._where(self.kinds == kind)

    def hosts(self) -> np.ndarray:
        """Sorted unique machine ids appearing in the trace."""
        return np.unique(np.concatenate([self.srcs, self.dsts]))

    def _connection_keys(self) -> np.ndarray:
        """One int64 per packet that orders packets by (src, dst).

        ``src << 32`` plus ``dst + 2**31``: the low word is never
        negative, so a BROADCAST (-1) destination sorts before host 0.
        """
        return ((self.srcs.astype(np.int64) << 32)
                + (self.dsts.astype(np.int64) + 2**31))

    @staticmethod
    def _pairs(keys: np.ndarray) -> List[Tuple[int, int]]:
        """Decode :meth:`_connection_keys` values back to (src, dst)."""
        return list(zip((keys >> 32).tolist(),
                        ((keys & 0xFFFFFFFF) - 2**31).tolist()))

    def connections(self) -> List[Tuple[int, int]]:
        """All (src, dst) pairs that carried at least one packet, sorted."""
        return self._pairs(np.unique(self._connection_keys()))

    def by_connection(self) -> Dict[Tuple[int, int], "PacketTrace"]:
        """Every connection's packets, in :meth:`connections` order.

        One stable sort groups the whole trace, so each connection's
        packets keep their trace order: ``by_connection()[(s, d)]``
        equals ``connection(s, d)``.
        """
        keys = self._connection_keys()
        order = np.argsort(keys, kind="stable")
        uniq, firsts = np.unique(keys[order], return_index=True)
        groups = np.split(self._data[order], firsts[1:])
        return dict(zip(self._pairs(uniq), map(PacketTrace, groups)))

    def shifted(self, t0: float) -> "PacketTrace":
        """A copy with timestamps rebased so the trace starts at ``t0``."""
        data = self._data.copy()
        if len(data):
            data["time"] += t0 - data["time"][0]
        return PacketTrace(data)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<PacketTrace {len(self)} packets over {self.duration:.3f}s>"


def bin_slots(counts) -> Tuple[np.ndarray, np.ndarray]:
    """Lay out ``counts[i]`` packets per bin, bin after bin.

    Returns, for each packet, its bin index and its rank within that
    bin, the two columns a traffic source needs to place its packets
    without a per-packet loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    bins = np.repeat(np.arange(len(counts)), counts)
    firsts = np.cumsum(counts) - counts
    return bins, np.arange(len(bins)) - firsts[bins]


class TraceRecorder:
    """Promiscuous capture of every frame delivered on a bus."""

    def __init__(self, bus: EthernetBus):
        self._rows: list = []
        self._bus = bus
        bus.add_listener(self._on_frame)

    def _on_frame(self, frame: EthernetFrame, now: float) -> None:
        pdu = frame.payload
        retx = 0
        if isinstance(pdu, TcpSegment):
            proto = PROTO_TCP
            kind = KIND_TCP_ACK if pdu.is_ack else KIND_TCP_DATA
            if pdu.retransmit:
                retx = 1
        elif isinstance(pdu, UdpDatagram):
            proto = PROTO_UDP
            kind = KIND_UDP
        else:
            proto = 0
            kind = KIND_OTHER
        self._rows.append(
            (now, frame.size, frame.src, frame.dst, proto, kind, retx)
        )

    @property
    def drops(self) -> list:
        """The medium's drop events — frames the capture never saw
        because the network destroyed them (loss, corruption, queue
        overflow, excessive collisions)."""
        return list(self._bus.drop_log)

    def __len__(self) -> int:
        return len(self._rows)

    def trace(self) -> PacketTrace:
        """Snapshot the capture as an immutable trace."""
        if not self._rows:
            return PacketTrace.empty()
        return PacketTrace(np.array(self._rows, dtype=TRACE_DTYPE))

    def clear(self) -> None:
        self._rows.clear()
