"""Network interface: a FIFO transmit queue in front of the shared bus.

Each station owns one NIC.  Outbound frames queue in order; a single
transmit process drains the queue through the bus's CSMA/CD procedure, so
a station never has two frames in flight — exactly the discipline of the
paper's single built-in Ethernet adaptors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..des import Event, Simulator, Store
from .frame import EthernetFrame
from .medium import EthernetBus

__all__ = ["Nic", "NicStats"]


@dataclass
class NicStats:
    frames_sent: int = 0
    frames_received: int = 0
    frames_dropped: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    max_queue_depth: int = 0


class Nic:
    """One station's interface to the bus.

    Parameters
    ----------
    sim:
        Driving simulator.
    bus:
        The shared Ethernet.
    station_id:
        This station's address on the bus.
    queue_limit:
        Finite transmit-queue depth; a send arriving while the queue
        holds this many frames is dropped at the adapter (counted in
        ``stats.frames_dropped`` and the medium's drop log).  ``None``
        (the default) queues without bound.
    """

    #: The subsystem observers file this queue's events under.
    layer = "net.nic"

    def __init__(self, sim: Simulator, bus: EthernetBus, station_id: int,
                 queue_limit: Optional[int] = None):
        if queue_limit is not None and queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.sim = sim
        self.bus = bus
        self.station_id = station_id
        self.queue_limit = queue_limit
        self.stats = NicStats()
        self._queue: Store = Store(sim)
        self._rx_handler: Optional[Callable[[EthernetFrame, float], None]] = None
        bus.attach(station_id, self._on_rx)
        self._tx_proc = sim.process(self._tx_loop(), name=f"nic{station_id}-tx")

    # -- transmit --------------------------------------------------------
    def send(self, frame: EthernetFrame):
        """Queue a frame for transmission (returns immediately).

        Returns an event that fires once the frame has left the wire
        (value True) or was dropped after too many collisions (False).
        Callers that need wire-pacing — e.g. a TCP sender cutting
        segments from its stream — wait on it; fire-and-forget callers
        ignore it.
        """
        if frame.src != self.station_id:
            raise ValueError(
                f"frame src {frame.src} does not match station {self.station_id}"
            )
        queue = self._queue
        done = Event(self.sim)
        if (self.queue_limit is not None
                and len(queue) >= self.queue_limit):
            self.stats.frames_dropped += 1
            self.bus.record_drop("queue-overflow", frame)
            done.succeed(False)
            return done
        queue.put((frame, done))
        depth = len(queue)
        stats = self.stats
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        probe = self.sim.probe
        if probe is not None:
            probe.on_enqueue(self, frame, self.sim._now)
        return done

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _tx_loop(self):
        # Per-frame hot loop: the collaborators and the observer fan-out
        # are fixed once the run starts, so bind them at first resume.
        sim = self.sim
        get = self._queue.get
        transmit = self.bus.transmit
        stats = self.stats
        probe = sim.probe
        if probe is not None:
            probe.on_nic_up(self)
        while True:
            frame, done = yield get()
            if probe is not None:
                probe.on_frame_offered(self, frame, sim._now)
            delivered = yield from transmit(frame)
            if delivered:
                stats.frames_sent += 1
                stats.bytes_sent += frame.size
            else:
                stats.frames_dropped += 1
            if probe is not None:
                probe.on_frame_sent(self, frame, delivered, sim._now)
            done.succeed(delivered)

    # -- receive ---------------------------------------------------------
    def set_rx_handler(self, handler: Callable[[EthernetFrame, float], None]):
        """Install the upper-layer (IP stack) receive callback."""
        self._rx_handler = handler

    def _on_rx(self, frame: EthernetFrame, now: float) -> None:
        self.stats.frames_received += 1
        self.stats.bytes_received += frame.size
        if self._rx_handler is not None:
            self._rx_handler(frame, now)
