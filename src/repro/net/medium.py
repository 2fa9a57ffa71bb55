"""A shared-medium CSMA/CD Ethernet bus.

All stations share one collision domain, as on the paper's multi-segment
bridged Ethernet.  The model keeps the three pieces of MAC behaviour that
shape the measured traffic:

* **carrier sense** — a station defers while the medium is busy, which
  serializes the synchronized bursts of SPMD communication phases;
* **collisions** — stations that begin transmitting within one contention
  window of each other collide, jam, and retry;
* **binary exponential backoff** — retry delays randomize, breaking the
  symmetry of simultaneous senders.

The default 10 Mb/s bandwidth gives the paper's 1.25 MB/s aggregate
ceiling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..des import Simulator
from .frame import BROADCAST, EthernetFrame

__all__ = ["EthernetBus", "BusStats", "DropEvent"]


@dataclass(frozen=True)
class DropEvent:
    """One frame that the network destroyed instead of delivering.

    ``reason`` is ``"excess-collisions"``, ``"queue-overflow"``,
    ``"loss"``, or ``"corrupt"``.  Every drop anywhere in the simulated
    network lands in the medium's ``drop_log``, so a trace consumer can
    account for vanished frames alongside the delivered ones.
    """

    time: float
    reason: str
    src: int
    dst: int
    size: int


class _Window:
    """One contention window: stations starting within it collide."""

    __slots__ = ("start", "members", "collided")

    def __init__(self, start: float):
        self.start = start
        self.members = 0
        self.collided = False


@dataclass
class BusStats:
    """Counters accumulated over a simulation run.

    ``busy_time`` counts time the medium carried *signal*: delivered
    frames plus the union of post-collision jam intervals.  The
    inter-frame gap is deliberately excluded — the IFG is enforced
    silence, so counting it would report a saturated medium as >100%
    utilized; ``_busy_until`` still covers it for carrier-sense
    purposes.
    """

    frames_delivered: int = 0
    bytes_delivered: int = 0
    collisions: int = 0
    frames_dropped: int = 0
    busy_time: float = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` during which the medium carried
        frames or jam signal."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0


class EthernetBus:
    """The shared collision domain.

    Parameters
    ----------
    sim:
        The driving simulator.
    bandwidth_bps:
        Raw medium bandwidth; 10 Mb/s reproduces the paper's LAN.
    slot_time:
        Ethernet slot time (backoff quantum), 51.2 us at 10 Mb/s.
    contention_window:
        Window after a transmission begins during which another station's
        start causes a collision (models propagation delay).
    ifg_time:
        Inter-frame gap, 9.6 us at 10 Mb/s.
    max_attempts:
        Attempts before a frame is dropped.  Real Ethernet gives up
        after 16, and real TCP retransmits; TCP-lite has no
        retransmission, so the default ``None`` retries forever (with
        the backoff exponent capped) and the reliability contract moves
        down to the MAC.  Pass an integer to study drops.
    seed:
        Seed for the backoff RNG — simulations are exactly repeatable.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`; consulted once
        per successfully transmitted frame to decide loss/corruption.
    """

    #: The subsystem observers file this medium's events under.
    layer = "net.medium"

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 10e6,
        slot_time: float = 51.2e-6,
        contention_window: float = 25.6e-6,
        ifg_time: float = 9.6e-6,
        jam_time: float = 4.8e-6,
        max_attempts: Optional[int] = None,
        seed: int = 0,
        fault_injector=None,
    ):
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.slot_time = slot_time
        self.contention_window = contention_window
        self.ifg_time = ifg_time
        self.jam_time = jam_time
        self.max_attempts = max_attempts
        self.rng = random.Random(seed)
        self.fault_injector = fault_injector
        self.stats = BusStats()
        #: Every drop anywhere on this network, in time order.
        self.drop_log: List[DropEvent] = []

        self._busy_until: float = 0.0
        self._window: Optional[_Window] = None
        self._stations: Dict[int, Callable[[EthernetFrame, float], None]] = {}
        self._listeners: List[Callable[[EthernetFrame, float], None]] = []

    # -- wiring --------------------------------------------------------
    def attach(self, station_id: int, rx: Callable[[EthernetFrame, float], None]):
        """Register a station's receive handler."""
        if station_id in self._stations:
            raise ValueError(f"station id {station_id} already attached")
        self._stations[station_id] = rx

    def add_listener(self, listener: Callable[[EthernetFrame, float], None]):
        """Attach a promiscuous listener that sees every delivered frame."""
        self._listeners.append(listener)

    def record_drop(self, reason: str, frame: EthernetFrame) -> None:
        """Log a destroyed frame (callers keep their own counters)."""
        now = self.sim.now
        self.drop_log.append(
            DropEvent(time=now, reason=reason,
                      src=frame.src, dst=frame.dst, size=frame.size)
        )
        probe = self.sim.probe
        if probe is not None:
            probe.on_drop(frame, reason, now)

    @property
    def capacity_bytes_per_s(self) -> float:
        """Aggregate bandwidth in bytes/second (1.25 MB/s at 10 Mb/s)."""
        return self.bandwidth_bps / 8.0

    def tx_time(self, frame: EthernetFrame) -> float:
        """Seconds the frame occupies the medium."""
        return frame.wire_bits / self.bandwidth_bps

    # -- MAC -------------------------------------------------------------
    def transmit(self, frame: EthernetFrame):
        """CSMA/CD transmission; a generator to ``yield from`` in a process.

        Returns True on delivery, False if the frame was dropped after
        ``max_attempts`` collisions.
        """
        sim = self.sim
        probe = sim.probe
        # Hot path: one transmit per frame, several yields each.  Fixed
        # parameters are localized and every wait is a bare-delay sleep
        # (see the DES sleep protocol) — same events at the same
        # instants, none of the Timeout machinery.
        contention_window = self.contention_window
        stats = self.stats
        attempt = 0
        while True:
            # Carrier sense: defer while the medium is busy.  The deadline
            # may extend while we wait, so loop.
            while sim._now < self._busy_until:
                yield self._busy_until - sim._now  # sleep: carrier busy

            # Same-instant gap: the current contention window may have
            # closed with its sole transmitter determined, while the
            # winner's process — whose resume event can be ordered after
            # ours at this timestamp — has not yet raised ``_busy_until``.
            # Sensing "idle" here would let this station contend against
            # (or, worse, transmit over) a frame that is already committed
            # to the wire.  Yield once so the winner resumes first and
            # raises the busy deadline, then re-sense.
            w = self._window
            if (
                w is not None
                and not w.collided
                and sim._now >= w.start + contention_window
            ):
                yield 0.0  # sleep one slot: let the winner re-sense first
                continue

            # Start transmitting: join (or open) the contention window.
            if w is None or sim._now > w.start + contention_window:
                w = _Window(sim._now)
                self._window = w
            w.members += 1
            if w.members > 1 and not w.collided:
                w.collided = True
                stats.collisions += 1
                if probe is not None:
                    probe.on_collision(self, sim._now)

            yield contention_window  # sleep: contention window

            w.members -= 1
            if w.members == 0 and self._window is w:
                self._window = None

            if w.collided:
                # Collision: jam, back off, retry.  Count the jam signal
                # toward busy_time — without it utilization() undercounts
                # exactly when the medium is congested.  Colliding
                # stations' jams overlap, so only the interval this jam
                # extends the deadline by is added (the union, not the
                # sum).
                jam_end = sim._now + self.jam_time
                jam_added = jam_end - max(self._busy_until, sim._now)
                if jam_added > 0:
                    stats.busy_time += jam_added
                self._busy_until = max(self._busy_until, jam_end)
                attempt += 1
                if self.max_attempts is not None and attempt >= self.max_attempts:
                    stats.frames_dropped += 1
                    self.record_drop("excess-collisions", frame)
                    return False
                backoff = self.rng.randrange(0, 1 << min(attempt, 10))
                if probe is not None:
                    probe.on_backoff(self, frame, attempt, sim._now)
                yield self.jam_time + backoff * self.slot_time  # sleep: backoff
                continue

            # Sole transmitter: hold the medium for the frame + IFG.
            tx_time = frame.wire_bits / self.bandwidth_bps
            now = sim._now
            if probe is not None:
                probe.on_bus_transmission(now, now + tx_time)
            busy = now + tx_time + self.ifg_time
            if busy > self._busy_until:
                self._busy_until = busy
            yield tx_time  # sleep: frame on the wire
            stats.busy_time += tx_time
            # Wire faults: a lost or corrupted frame occupied the medium
            # (and counts as sent by the NIC) but is never delivered.
            if self.fault_injector is not None:
                fate = self.fault_injector.frame_fate(frame, sim._now)
                if fate is not None:
                    stats.frames_dropped += 1
                    self.record_drop(fate, frame)
                    return True
            self._deliver(frame)
            return True

    # -- delivery ---------------------------------------------------------
    def _deliver(self, frame: EthernetFrame) -> None:
        sim = self.sim
        now = sim._now
        stats = self.stats
        stats.frames_delivered += 1
        stats.bytes_delivered += frame.size
        probe = sim.probe
        if probe is not None:
            probe.on_delivered(self, frame, now)
        for listener in self._listeners:
            listener(frame, now)
        if frame.dst == BROADCAST:
            for sid, rx in self._stations.items():
                if sid != frame.src:
                    rx(frame, now)
        else:
            rx = self._stations.get(frame.dst)
            if rx is not None:
                rx(frame, now)
