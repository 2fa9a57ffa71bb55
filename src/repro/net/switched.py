"""A switched full-duplex LAN with per-flow bandwidth reservations.

The paper's motivation (§1): "next generation LANs, such as ATM, will
supply quality of service guarantees for connections.  Parallel programs
may be able to benefit from such guarantees."  This substrate is that
next-generation LAN: every station has a dedicated full-duplex link to
one output-queued switch, and (src, dst) flows may *reserve* bandwidth —
reserved traffic is served with strict priority, policed by a token
bucket, so a program with reservations keeps its burst bandwidth no
matter the cross traffic.

The class implements the same interface as
:class:`~repro.net.medium.EthernetBus` (``attach`` / ``add_listener`` /
``transmit`` / ``stats``), so :class:`~repro.net.nic.Nic`, the trace
recorder, and the whole Fx stack run over it unchanged — pass
``medium="switched"`` to :class:`~repro.fx.runtime.FxCluster`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..des import Simulator
from .frame import BROADCAST, EthernetFrame
from .medium import BusStats, DropEvent, EthernetBus

__all__ = ["SwitchedFabric", "Reservation"]


@dataclass
class Reservation:
    """A token-bucket bandwidth guarantee for one (src, dst) flow."""

    src: int
    dst: int
    rate_bps: float
    bucket_bytes: int
    tokens: float = 0.0
    last_update: float = 0.0

    #: Byte tolerance absorbing float rounding in the refill arithmetic
    #: (without it a frame can starve forever a hair short of its cost).
    _EPS = 1e-6

    def refill(self, now: float) -> None:
        self.tokens = min(
            float(self.bucket_bytes),
            self.tokens + (now - self.last_update) * self.rate_bps / 8.0,
        )
        self.last_update = now

    def eligible(self, now: float, nbytes: int) -> bool:
        self.refill(now)
        return self.tokens >= nbytes - self._EPS

    def consume(self, nbytes: int) -> None:
        self.tokens -= nbytes

    def time_until(self, nbytes: int) -> float:
        """Seconds until ``nbytes`` worth of tokens will be available."""
        deficit = nbytes - self.tokens
        if deficit <= self._EPS:
            return 0.0
        return deficit * 8.0 / self.rate_bps


class _OutputPort:
    """One station's downlink: strict priority to reserved flows."""

    #: The subsystem observers file this queue's events under.
    layer = "net.switched"

    def __init__(self, fabric: "SwitchedFabric", station_id: int):
        self.fabric = fabric
        self.station_id = station_id
        self.reserved: Deque[Tuple[EthernetFrame, Reservation]] = deque()
        self.best_effort: Deque[EthernetFrame] = deque()
        self._wakeup = None
        self.queued_bytes = 0
        fabric.sim.process(self._drain(), name=f"port{station_id}")

    def enqueue(self, frame: EthernetFrame) -> None:
        res = self.fabric._reservations.get((frame.src, frame.dst))
        if res is not None:
            self.reserved.append((frame, res))
        else:
            self.best_effort.append(frame)
        self.queued_bytes += frame.size
        probe = self.fabric.sim.probe
        if probe is not None:
            probe.on_enqueue(self, frame, self.fabric.sim.now)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _drain(self):
        sim = self.fabric.sim
        link_bps = self.fabric.link_bps
        probe = sim.probe
        while True:
            if not self.reserved and not self.best_effort:
                self._wakeup = sim.event()
                yield self._wakeup
                continue
            frame: Optional[EthernetFrame] = None
            # Strict priority: an *eligible* reserved frame goes first.
            if self.reserved:
                head, res = self.reserved[0]
                if res.eligible(sim.now, head.size):
                    res.consume(head.size)
                    frame = head
                    self.reserved.popleft()
                elif not self.best_effort:
                    # nothing else to send: wait for tokens
                    wait = res.time_until(head.size)
                    if probe is not None:
                        probe.on_token_wait(self, head, sim.now, wait)
                    yield sim.timeout(wait)
                    continue
            if frame is None and self.best_effort:
                frame = self.best_effort.popleft()
            if frame is None:  # pragma: no cover - defensive
                continue
            tx = frame.wire_bits / link_bps
            if probe is not None:
                probe.on_service_start(self, frame, sim.now, tx)
            yield sim.timeout(tx)
            self.queued_bytes -= frame.size
            self.fabric.stats.busy_time += tx
            self.fabric._deliver(frame, self.station_id)
            if probe is not None:
                probe.on_delivered(self, frame, sim.now)


class SwitchedFabric:
    """An output-queued switch with dedicated full-duplex links.

    Parameters
    ----------
    link_bps:
        Per-link bandwidth, both directions (10 Mb/s by default so the
        shared-vs-switched comparison is apples to apples).
    switch_latency:
        Fixed store-and-forward latency added between uplink and the
        output queue.
    """

    #: The subsystem observers file this medium's events under.
    layer = "net.switched"

    def __init__(
        self,
        sim: Simulator,
        link_bps: float = 10e6,
        switch_latency: float = 10e-6,
        seed: int = 0,
    ):
        self.sim = sim
        self.link_bps = float(link_bps)
        self.switch_latency = switch_latency
        self.stats = BusStats()
        self.drop_log: List[DropEvent] = []
        self._stations: Dict[int, Callable[[EthernetFrame, float], None]] = {}
        self._listeners: List[Callable[[EthernetFrame, float], None]] = []
        self._ports: Dict[int, _OutputPort] = {}
        self._reservations: Dict[Tuple[int, int], Reservation] = {}

    def attach_monitor(self, monitor):
        """Subscribe a pure-observer queue monitor
        (:class:`~repro.netmon.FabricMonitor`, one per fabric) before the
        run starts; returns it."""
        return monitor.attach(self)

    #: Same contract as the shared bus.
    record_drop = EthernetBus.record_drop

    # -- interface shared with EthernetBus ---------------------------------
    @property
    def bandwidth_bps(self) -> float:
        return self.link_bps

    @property
    def capacity_bytes_per_s(self) -> float:
        return self.link_bps / 8.0

    def attach(self, station_id: int, rx: Callable[[EthernetFrame, float], None]):
        if station_id in self._stations:
            raise ValueError(f"station id {station_id} already attached")
        self._stations[station_id] = rx
        self._ports[station_id] = _OutputPort(self, station_id)

    def add_listener(self, listener: Callable[[EthernetFrame, float], None]):
        self._listeners.append(listener)

    def tx_time(self, frame: EthernetFrame) -> float:
        return frame.wire_bits / self.link_bps

    def transmit(self, frame: EthernetFrame):
        """Uplink transmission, then switch to the output port(s).

        A generator with the same contract as ``EthernetBus.transmit``;
        the calling NIC serializes its own uplink.
        """
        sim = self.sim
        yield sim.timeout(self.tx_time(frame))
        yield sim.timeout(self.switch_latency)
        if frame.dst == BROADCAST:
            for sid, port in self._ports.items():
                if sid != frame.src:
                    port.enqueue(frame)
        else:
            port = self._ports.get(frame.dst)
            if port is None:
                self.stats.frames_dropped += 1
                self.record_drop("no-port", frame)
                return False
            port.enqueue(frame)
        return True

    # -- QoS ---------------------------------------------------------------
    def reserve(self, src: int, dst: int, rate_bps: float,
                bucket_bytes: int = 64 * 1024) -> Reservation:
        """Guarantee ``rate_bps`` to the (src, dst) flow.

        The flow's frames take strict priority on dst's downlink, policed
        by a token bucket so it cannot starve best-effort traffic beyond
        its reservation.
        """
        if rate_bps <= 0 or rate_bps > self.link_bps:
            raise ValueError(
                f"rate {rate_bps} outside (0, {self.link_bps}]"
            )
        if bucket_bytes < 2048:
            raise ValueError("bucket must hold at least one frame burst")
        key = (src, dst)
        if key in self._reservations:
            raise ValueError(f"flow {key} already reserved")
        existing = sum(
            r.rate_bps for (s, d), r in self._reservations.items() if d == dst
        )
        if existing + rate_bps > self.link_bps:
            raise ValueError(
                f"reservations on port {dst} would exceed the link"
            )
        res = Reservation(src, dst, rate_bps, bucket_bytes,
                          tokens=float(bucket_bytes),
                          last_update=self.sim.now)
        self._reservations[key] = res
        return res

    def release_reservation(self, src: int, dst: int) -> None:
        if (src, dst) not in self._reservations:
            raise KeyError(f"no reservation for flow ({src}, {dst})")
        del self._reservations[(src, dst)]

    # -- delivery ------------------------------------------------------------
    def _deliver(self, frame: EthernetFrame, dst_station: int) -> None:
        """Hand a frame leaving ``dst_station``'s port to that station."""
        now = self.sim.now
        self.stats.frames_delivered += 1
        self.stats.bytes_delivered += frame.size
        for listener in self._listeners:
            listener(frame, now)
        rx = self._stations.get(dst_station)
        if rx is not None and dst_station != frame.src:
            rx(frame, now)
