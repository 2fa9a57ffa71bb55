"""The runtime simulation sanitizer.

Enabled with ``Simulator(sanitize=True)`` or ``REPRO_SANITIZE=1``, a
:class:`SimSanitizer` subscribes to the simulator's probe
(:mod:`repro.des.probe`) and asserts the invariants the determinism
contract rests on:

* **causality** — no event pops off the heap with a timestamp behind
  the clock (:meth:`on_pop`);
* **medium exclusivity** — successful frame transmissions on the shared
  Ethernet are monotone and non-overlapping (:meth:`on_bus_transmission`;
  post-collision jam bursts legitimately overlap and are exempt);
* **per-NIC conservation** — at end of run, every frame a NIC on the
  shared bus counted as sent is accounted for on the wire (delivered,
  lost, or corrupted) and every adapter-level drop appears in the bus
  drop log (:meth:`verify_end_of_run`, reconciling ``NicStats`` against
  ``bus.drop_log``);
* **TCP stream sanity** — per pipe, new data segments extend the stream
  contiguously, retransmissions never invent unsent bytes, and
  cumulative ACKs are monotone and never acknowledge beyond the
  highest byte sent (:meth:`on_tcp_data` / :meth:`on_tcp_ack`).

The sanitizer is strictly an observer: it creates no events, draws no
random numbers, and keeps all bookkeeping outside simulation state, so a
sanitized run produces byte-identical traces to an unsanitized one
(enforced by the test suite's golden digests).  This module deliberately
imports nothing from the simulation packages — the DES core imports *it*
lazily, so there is no cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["SanitizerError", "SimSanitizer"]


class SanitizerError(AssertionError):
    """A simulation invariant was violated.

    Carries the offending ``event`` (when there is one), the ``host``
    involved, and the simulation ``time`` of the violation.
    """

    def __init__(self, message: str, *, event=None,
                 host: Optional[int] = None, time: Optional[float] = None):
        self.event = event
        self.host = host
        self.time = time
        context = []
        if host is not None:
            context.append(f"host={host}")
        if time is not None:
            context.append(f"sim-time={time:.9f}")
        if event is not None:
            context.append(f"event={event!r}")
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)


class SimSanitizer:
    """Invariant checks subscribed to one :class:`~repro.des.Simulator`.

    Every hook is a cheap synchronous assertion or a tally for the
    end-of-run check.
    """

    def __init__(self):
        #: Total assertions evaluated (visibility for tests/--stats).
        self.checks = 0
        self._last_tx_end = 0.0
        self._nics: List = []
        self._delivered_by_src: Dict[int, int] = {}
        # id(pipe) -> [highest byte ever sent, last cumulative ack, pipe]
        self._tcp: Dict[int, list] = {}

    # -- scheduler causality ------------------------------------------
    def on_pop(self, time: float, now: float, event) -> None:
        """Called by ``Simulator.step`` for every event leaving the heap."""
        self.checks += 1
        if time < now:
            raise SanitizerError(
                f"event scheduled into the past: pops at t={time:.9f} "
                f"with the clock already at {now:.9f}",
                event=event, time=now,
            )

    # -- network -------------------------------------------------------
    def on_nic_up(self, nic) -> None:
        """A NIC's transmit process started: check it at end of run."""
        self._nics.append(nic)

    def on_delivered(self, where, frame, now: float) -> None:
        """Count a delivered frame against its source station."""
        self._delivered_by_src[frame.src] = \
            self._delivered_by_src.get(frame.src, 0) + 1

    def on_bus_transmission(self, start: float, end: float) -> None:
        """A sole transmitter holds the medium for [start, end]."""
        self.checks += 1
        if end < start:
            raise SanitizerError(
                f"bus busy interval runs backwards: [{start:.9f}, {end:.9f}]",
                time=start,
            )
        if start < self._last_tx_end:
            raise SanitizerError(
                f"overlapping bus transmissions: new frame starts at "
                f"{start:.9f} while the previous one holds the medium "
                f"until {self._last_tx_end:.9f}",
                time=start,
            )
        self._last_tx_end = end

    # -- TCP streams ---------------------------------------------------
    def _pipe_state(self, pipe) -> list:
        state = self._tcp.get(id(pipe))
        if state is None:
            state = [0, 0, pipe]
            self._tcp[id(pipe)] = state
        return state

    @staticmethod
    def _pipe_label(pipe) -> str:
        return f"{pipe.src_stack.host_id}->{pipe.dst_stack.host_id}"

    def on_tcp_data(self, pipe, seg) -> None:
        """Called for every data segment the sender cuts."""
        self.checks += 1
        state = self._pipe_state(pipe)
        highest = state[0]
        end = seg.seq + seg.data_len
        if seg.seq > highest:
            raise SanitizerError(
                f"TCP sequence gap on {self._pipe_label(pipe)}: segment "
                f"starts at byte {seg.seq} but only {highest} bytes were "
                "ever sent",
                host=pipe.src_stack.host_id, time=pipe.sim.now,
            )
        if not seg.retransmit and seg.seq != highest:
            raise SanitizerError(
                f"TCP sequence regression on {self._pipe_label(pipe)}: "
                f"new data segment starts at byte {seg.seq}, expected "
                f"{highest}, without being marked a retransmission",
                host=pipe.src_stack.host_id, time=pipe.sim.now,
            )
        if end > highest:
            state[0] = end

    def on_tcp_ack(self, pipe, ack_no: int) -> None:
        """Called for every cumulative ACK the receiver emits."""
        self.checks += 1
        state = self._pipe_state(pipe)
        if ack_no < state[1]:
            raise SanitizerError(
                f"TCP cumulative ACK moved backwards on "
                f"{self._pipe_label(pipe)}: {ack_no} after {state[1]}",
                host=pipe.dst_stack.host_id, time=pipe.sim.now,
            )
        if ack_no > state[0]:
            raise SanitizerError(
                f"TCP ACK beyond the stream on {self._pipe_label(pipe)}: "
                f"acknowledges byte {ack_no} but only {state[0]} bytes "
                "were ever sent",
                host=pipe.dst_stack.host_id, time=pipe.sim.now,
            )
        state[1] = ack_no

    # -- end-of-run conservation --------------------------------------
    def on_run_end(self, runtime, program, now: float) -> None:
        self.verify_end_of_run()

    def verify_end_of_run(self) -> None:
        """Reconcile per-NIC counters against the wire's accounting.

        For every NIC on the shared bus::

            frames_sent    == delivered + lost-on-wire + corrupted
            frames_dropped == queue-overflow + excess-collision drops

        where the right-hand sides come from the delivered-frame hooks
        and the bus's ``drop_log``.  Frames still queued at shutdown are
        in neither ledger, so the equations hold mid-flight-free.  The
        switched fabric is exempt: broadcast fan-out, ``no-port`` drops
        and frames still queued at output ports break the first one.
        """
        for nic in self._nics:
            bus = nic.bus
            if bus.layer != "net.medium":
                continue
            self.checks += 1
            host = nic.station_id
            drops: Dict[str, int] = {}
            for event in bus.drop_log:
                if event.src == host:
                    drops[event.reason] = drops.get(event.reason, 0) + 1
            delivered = self._delivered_by_src.get(host, 0)
            lost = drops.get("loss", 0)
            corrupted = drops.get("corrupt", 0)
            wire = delivered + lost + corrupted
            if nic.stats.frames_sent != wire:
                raise SanitizerError(
                    f"NIC conservation violated on host {host}: "
                    f"frames_sent={nic.stats.frames_sent} but the wire "
                    f"accounts for {wire} (delivered={delivered}, "
                    f"lost={lost}, corrupted={corrupted})",
                    host=host, time=nic.sim.now,
                )
            overflow = drops.get("queue-overflow", 0)
            excess = drops.get("excess-collisions", 0)
            if nic.stats.frames_dropped != overflow + excess:
                raise SanitizerError(
                    f"NIC drop accounting violated on host {host}: "
                    f"frames_dropped={nic.stats.frames_dropped} but the "
                    f"drop log records {overflow + excess} "
                    f"(queue-overflow={overflow}, "
                    f"excess-collisions={excess})",
                    host=host, time=nic.sim.now,
                )
