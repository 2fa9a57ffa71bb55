"""TCP-lite: reliable byte-stream transport over the simulated Ethernet.

On a fault-free medium the simulated MAC retries until delivery, and
TCP-lite models only what shapes the measured traffic:

* segmentation at the MSS — large messages become runs of 1518-byte
  frames plus one remainder frame (the paper's trimodal size histograms);
* a sliding window that paces the sender off returning ACKs;
* delayed ACKs (ack-every-second-segment with a 200 ms fallback timer) —
  the source of the 58-byte packet population;
* *pushed* writes: PVM writes every message — and every fragment of a
  multi-pack message — with TCP_NODELAY, so each write's bytes are
  segmented on their own; segments never span a push boundary.  This is
  why T2DFFT's fragment-list messages produce a variety of packet sizes
  (one odd remainder per fragment) while copy-loop kernels produce clean
  trimodal traffic (paper §4/§6.1), and why SEQ's element messages each
  ride their own 90-byte frame;
* bounded socket send buffer, so the application blocks and stays
  synchronized with its peers.

Under an injected :class:`~repro.faults.FaultPlan` frames do vanish, so
a pipe constructed with ``loss_recovery=True`` additionally runs real
loss-recovery machinery:

* RFC 6298 RTO estimation (SRTT/RTTVAR, Karn's algorithm, exponential
  backoff) with go-back-N retransmission on timeout;
* duplicate-ACK counting with fast retransmit at the classic threshold
  of three, guarded by a recover point so one loss window triggers at
  most one fast retransmit;
* a sequence-aware receiver that buffers out-of-order arrivals, acks
  duplicates immediately, and acks immediately when a hole fills.

The machinery is off by default because its timers would retransmit
spuriously on a saturated-but-lossless medium; fault-free runs stay
byte-identical to the recovery-free transport.  Retransmitted segments
carry ``retransmit=True`` so capture can separate goodput from
retransmission traffic.

Sequence and delivery bookkeeping is done in byte counts; payload bytes
are never materialized.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple

from ..des import Event, Simulator, Store
from ..des.events import PENDING, TRIGGERED
from ..net import EthernetFrame
from .headers import IP_HEADER, TCP_HEADER, TCP_MSS

__all__ = ["TcpPipe", "TcpConnection", "TcpSegment", "DeliveredMessage"]

#: Fixed IP+TCP header bytes per segment.
TCP_OVERHEAD = IP_HEADER + TCP_HEADER  # 40


class TcpSegment:
    """One TCP segment on the wire (data or pure ACK)."""

    __slots__ = ("pipe", "seq", "data_len", "ack_no", "is_ack", "retransmit")

    def __init__(self, pipe: "TcpPipe", seq: int, data_len: int,
                 ack_no: int = 0, is_ack: bool = False,
                 retransmit: bool = False):
        self.pipe = pipe
        self.seq = seq
        self.data_len = data_len
        self.ack_no = ack_no
        self.is_ack = is_ack
        self.retransmit = retransmit

    @property
    def payload_size(self) -> int:
        """IP datagram size: headers plus data."""
        return TCP_OVERHEAD + self.data_len


@dataclass(slots=True)
class DeliveredMessage:
    """An application message handed up by the receiving endpoint."""

    obj: Any
    nbytes: int
    src_host: int
    dst_host: int
    time: float


class TcpPipe:
    """One direction of a TCP connection: src host sends, dst host receives.

    ACKs for this pipe travel on the reverse path as 58-byte frames.

    Parameters
    ----------
    window:
        Sender window in bytes (receiver's advertised window).
    sndbuf:
        Socket send-buffer size; :meth:`send` blocks when it is full.
    mss:
        Maximum segment payload.
    delayed_ack_timeout:
        Fallback delayed-ACK timer (BSD-style 200 ms).
    ack_every:
        Send an immediate ACK after this many unacknowledged segments.
    loss_recovery:
        Enable retransmission machinery (RTO, fast retransmit,
        out-of-order receive buffering).  Required for progress on a
        lossy medium; leave off on a reliable one.
    rto_initial / rto_min / rto_max:
        RFC 6298 RTO bounds.  ``rto_min`` defaults to 1 s (the RFC's
        conservative floor, safely above the 200 ms delayed-ACK timer).
    dupack_threshold:
        Duplicate ACKs that trigger a fast retransmit.
    """

    def __init__(
        self,
        sim: Simulator,
        src_stack,
        dst_stack,
        window: int = 32768,
        sndbuf: int = 65536,
        mss: int = TCP_MSS,
        delayed_ack_timeout: float = 0.2,
        ack_every: int = 2,
        loss_recovery: bool = False,
        rto_initial: float = 1.0,
        rto_min: float = 1.0,
        rto_max: float = 60.0,
        dupack_threshold: int = 3,
    ):
        if window <= 0 or sndbuf <= 0 or mss <= 0:
            raise ValueError("window, sndbuf, and mss must be positive")
        if mss > TCP_MSS:
            raise ValueError(f"mss {mss} exceeds Ethernet MSS {TCP_MSS}")
        if not 0 < rto_min <= rto_max:
            raise ValueError("need 0 < rto_min <= rto_max")
        if dupack_threshold < 1:
            raise ValueError(f"dupack_threshold must be >= 1, got {dupack_threshold}")
        self.sim = sim
        self.src_stack = src_stack
        self.dst_stack = dst_stack
        # Immutable endpoint facts, cached off the stacks: the data
        # path reads them per segment, per ACK, and per delivery.
        self._src_host = src_stack.host_id
        self._dst_host = dst_stack.host_id
        self.window = window
        self.sndbuf = sndbuf
        self.mss = mss
        self.delayed_ack_timeout = delayed_ack_timeout
        self.ack_every = ack_every
        self.loss_recovery = loss_recovery
        self.rto_initial = rto_initial
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.dupack_threshold = dupack_threshold

        # sender state (lives on src host)
        self._enqueued = 0          # total bytes accepted from the app
        self._snd_nxt = 0           # next byte to transmit
        self._snd_una = 0           # lowest unacknowledged byte
        self._snd_max = 0           # highest byte ever transmitted
        self._markers: Deque[Tuple[int, Any, int]] = deque()  # (end, obj, nbytes)
        self._push_offsets: Deque[int] = deque()  # segment-boundary fences
        self._send_waiters: Deque[Tuple[Event, int]] = deque()
        self._wakeup: Optional[Event] = None

        # loss-recovery sender state
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = rto_initial
        self._rtt_pending: Optional[Tuple[int, float]] = None  # (end_seq, t_sent)
        self._rto_deadline: Optional[float] = None
        self._rto_timer_running = False
        self._dupacks = 0
        self._recover = 0           # fast-retransmit guard point

        # receiver state (lives on dst host)
        self._rcv_bytes = 0         # contiguous bytes received
        self._ooo: Dict[int, int] = {}  # out-of-order intervals: seq -> end
        self._segs_since_ack = 0
        self._ack_timer_token = 0
        self._ack_timer_armed = False
        self.mailbox: Store = Store(sim)

        # stats
        self.segments_sent = 0
        self.acks_sent = 0
        self.bytes_sent = 0
        self.retransmits = 0
        self.bytes_retransmitted = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.dupacks_received = 0

        self._sender_proc = sim.process(self._sender(), name="tcp-sender")

    # -- application interface (sender side) --------------------------
    def send(self, nbytes: int, obj: Any = None, push: bool = True) -> Event:
        """Queue an application message of ``nbytes``.

        The returned event fires when the message has been fully accepted
        into the socket send buffer (possibly immediately).  Waiting on it
        gives PVM's blocking-send semantics.

        ``push`` (the default — PVM sets TCP_NODELAY) fences the write:
        no segment will span the boundary between these bytes and a
        later write, so every write's final segment is its own (possibly
        small) packet.  ``push=False`` lets the stream coalesce across
        the boundary.
        """
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        sim = self.sim
        ev = Event(sim)
        enqueued = self._enqueued = self._enqueued + nbytes
        self._markers.append((enqueued, obj, nbytes))
        if push:
            self._push_offsets.append(enqueued)
        if enqueued - self._snd_una <= self.sndbuf:
            # Fresh event, cannot have triggered: succeed() inlined.
            ev._state = TRIGGERED
            sim._ready.append(ev)
        else:
            # Fires once enough bytes have been ACKed out of the buffer.
            self._send_waiters.append((ev, enqueued))
        wakeup = self._wakeup
        if wakeup is not None and wakeup._state == PENDING:
            wakeup.succeed()
        # A zero-byte message on an otherwise idle connection is already
        # fully "received": its marker needs no data segment to satisfy
        # it, so draining only in on_data_segment would strand it forever.
        self._deliver_ready(sim._now)
        return ev

    def _buffer_used(self) -> int:
        return self._enqueued - self._snd_una

    @property
    def bytes_in_flight(self) -> int:
        return self._snd_nxt - self._snd_una

    @property
    def bytes_unsent(self) -> int:
        return self._enqueued - self._snd_nxt

    # -- sender process ------------------------------------------------
    def _wake_sender(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _segment_fence(self) -> Optional[int]:
        """The first push fence strictly beyond ``_snd_nxt``, or None.

        Without loss recovery ``_snd_nxt`` only moves forward, so fences
        at or before it are popped for good (the original fast path).
        With recovery a timeout can rewind ``_snd_nxt``, so fences stay
        queued until *acknowledged* and the lookup scans past the ones
        already behind the send point.
        """
        fences = self._push_offsets
        if not self.loss_recovery:
            while fences and fences[0] <= self._snd_nxt:
                fences.popleft()
            return fences[0] if fences else None
        while fences and fences[0] <= self._snd_una:
            fences.popleft()
        for off in fences:
            if off > self._snd_nxt:
                return off
        return None

    def _sender(self):
        sim = self.sim
        probe = sim.probe
        emit = self.src_stack.emit
        dst_host = self._dst_host
        mss = self.mss
        window = self.window
        while True:
            snd_nxt = self._snd_nxt
            avail = self._enqueued - snd_nxt
            space = window - (snd_nxt - self._snd_una)
            if avail <= 0 or space <= 0:
                self._wakeup = wakeup = Event(sim)
                yield wakeup
                continue
            data_len = min(mss, avail, space)
            # Respect push fences: never cut a segment across one.
            fence = self._segment_fence()
            if fence is not None and fence - snd_nxt < data_len:
                data_len = fence - snd_nxt
            retransmit = snd_nxt < self._snd_max
            seg = TcpSegment(self, snd_nxt, data_len,
                             retransmit=retransmit)
            if probe is not None:
                probe.on_tcp_data(self, seg)
            self._snd_nxt = snd_nxt = snd_nxt + data_len
            self.segments_sent += 1
            self.bytes_sent += data_len
            if retransmit:
                self.retransmits += 1
                self.bytes_retransmitted += data_len
            elif self.loss_recovery:
                if self._rtt_pending is None:
                    # Karn: time only first transmissions.
                    self._rtt_pending = (self._snd_nxt, sim.now)
            if self._snd_nxt > self._snd_max:
                self._snd_max = self._snd_nxt
            if self.loss_recovery and self._rto_deadline is None:
                self._restart_rto()
            # Wait for the frame to leave the wire before cutting the next
            # segment.  Segments are thus cut *late*, from whatever bytes
            # have accumulated — small application writes coalesce into
            # full segments whenever they outpace the medium, which is the
            # stream behaviour behind the paper's packet-size shapes.
            yield emit(dst_host, seg)
            if probe is not None:
                probe.on_tcp_data_sent(self, seg, sim._now)

    # -- RTO machinery (sender side, loss_recovery only) ----------------
    def _restart_rto(self) -> None:
        """(Re)start the retransmission timer ``_rto`` from now."""
        self._rto_deadline = self.sim.now + self._rto
        if not self._rto_timer_running:
            self._rto_timer_running = True
            self.sim.process(self._rto_loop(), name="tcp-rto")

    def _cancel_rto(self) -> None:
        self._rto_deadline = None

    def _rto_loop(self):
        # One lazy-deadline timer process per armed interval: it sleeps
        # to the current deadline, re-sleeps when ACKs pushed it out, and
        # exits when all data is acknowledged (so an idle simulation
        # drains instead of ticking forever).
        while self._rto_deadline is not None:
            delay = self._rto_deadline - self.sim.now
            if delay > 0:
                yield delay  # sleep to the (movable) deadline
                continue
            self._on_rto_expired()
        self._rto_timer_running = False

    def _on_rto_expired(self) -> None:
        if self._snd_una >= self._snd_max:  # nothing outstanding
            self._cancel_rto()
            return
        self.timeouts += 1
        probe = self.sim.probe
        if probe is not None:
            probe.on_tcp_rto(self)
        # Exponential backoff (Karn); the next successful RTT sample
        # recomputes the estimate.
        self._rto = min(self._rto * 2.0, self.rto_max)
        self._rtt_pending = None
        self._dupacks = 0
        self._recover = self._snd_max
        self._snd_nxt = self._snd_una  # go-back-N
        self._restart_rto()
        self._wake_sender()

    def _take_rtt_sample(self, sample: float) -> None:
        """RFC 6298 SRTT/RTTVAR update."""
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        rto = self._srtt + 4.0 * self._rttvar
        self._rto = min(max(rto, self.rto_min), self.rto_max)

    # -- receiver side ---------------------------------------------------
    def _deliver_ready(self, now: float) -> None:
        """Hand up every application message whose bytes are all received."""
        markers = self._markers
        rcv = self._rcv_bytes
        while markers and markers[0][0] <= rcv:
            _end, obj, nbytes = markers.popleft()
            self.mailbox.put(
                DeliveredMessage(
                    obj=obj,
                    nbytes=nbytes,
                    src_host=self._src_host,
                    dst_host=self._dst_host,
                    time=now,
                )
            )

    def on_data_segment(self, seg: TcpSegment, now: float) -> None:
        """Called by the destination stack when a data segment arrives."""
        if self.loss_recovery:
            self._on_data_recovery(seg, now)
            return
        self._rcv_bytes += seg.data_len
        # Deliver any application messages now fully received.
        self._deliver_ready(now)
        self._delayed_ack()

    def _on_data_recovery(self, seg: TcpSegment, now: float) -> None:
        seq, end = seg.seq, seg.seq + seg.data_len
        if end <= self._rcv_bytes:
            # Complete duplicate: ack immediately so the sender's
            # duplicate-ACK counter advances.
            self._send_ack()
            return
        if seq > self._rcv_bytes:
            # A hole precedes this segment: buffer and send a dup ACK.
            self._ooo[seq] = max(self._ooo.get(seq, 0), end)
            self._send_ack()
            return
        # In-order (possibly overlapping) data: advance and drain any
        # buffered intervals it connects to.
        had_hole = bool(self._ooo)
        self._rcv_bytes = end
        drained = True
        while drained:
            drained = False
            for s in list(self._ooo):
                if s <= self._rcv_bytes:
                    e = self._ooo.pop(s)
                    if e > self._rcv_bytes:
                        self._rcv_bytes = e
                    drained = True
        self._deliver_ready(now)
        if had_hole:
            # Filling a hole acks immediately (RFC 5681 §4.2).
            self._send_ack()
        else:
            self._delayed_ack()

    def _delayed_ack(self) -> None:
        self._segs_since_ack += 1
        if self._segs_since_ack >= self.ack_every:
            self._send_ack()
        elif not self._ack_timer_armed:
            self._ack_timer_armed = True
            self._ack_timer_token += 1
            self.sim.process(
                self._ack_timer(self._ack_timer_token), name="tcp-ack-timer"
            )

    def _ack_timer(self, token: int):
        yield self.delayed_ack_timeout  # sleep
        if self._ack_timer_armed and token == self._ack_timer_token:
            self._send_ack()

    def _send_ack(self) -> None:
        self._segs_since_ack = 0
        self._ack_timer_armed = False
        sim = self.sim
        ack = TcpSegment(self, 0, 0, ack_no=self._rcv_bytes, is_ack=True)
        probe = sim.probe
        if probe is not None:
            probe.on_tcp_ack(self, ack.ack_no)
        self.acks_sent += 1
        self.dst_stack.emit(self._src_host, ack)

    # -- ACK arrival (back on sender side) -------------------------------
    def on_ack(self, seg: TcpSegment, now: float) -> None:
        if seg.ack_no > self._snd_una:
            self._snd_una = seg.ack_no
            if self.loss_recovery:
                self._dupacks = 0
                if (self._rtt_pending is not None
                        and seg.ack_no >= self._rtt_pending[0]):
                    self._take_rtt_sample(now - self._rtt_pending[1])
                    self._rtt_pending = None
                if self._snd_una >= self._snd_max:
                    self._cancel_rto()
                else:
                    self._restart_rto()
            self._wake_sender()
            while self._send_waiters and (
                self._send_waiters[0][1] - self._snd_una <= self.sndbuf
            ):
                ev, _end = self._send_waiters.popleft()
                ev.succeed()
        elif (self.loss_recovery and seg.ack_no == self._snd_una
                and self._snd_max > self._snd_una):
            self.dupacks_received += 1
            self._dupacks += 1
            if (self._dupacks == self.dupack_threshold
                    and self._snd_una >= self._recover):
                # Fast retransmit: resend from the cumulative-ACK point.
                self.fast_retransmits += 1
                probe = self.sim.probe
                if probe is not None:
                    probe.on_tcp_fast_retransmit(self)
                self._recover = self._snd_max
                self._rtt_pending = None  # Karn: sample is now tainted
                self._snd_nxt = self._snd_una
                self._restart_rto()
                self._wake_sender()


class TcpConnection:
    """A full-duplex TCP connection: two pipes between two host stacks."""

    def __init__(self, stack_a, stack_b, **pipe_kwargs):
        if stack_a.host_id == stack_b.host_id:
            raise ValueError("TCP connection endpoints must differ")
        self.stack_a = stack_a
        self.stack_b = stack_b
        self.forward = TcpPipe(stack_a.sim, stack_a, stack_b, **pipe_kwargs)
        self.reverse = TcpPipe(stack_a.sim, stack_b, stack_a, **pipe_kwargs)

    def pipe_from(self, host_id: int) -> TcpPipe:
        """The sending pipe whose source is ``host_id``."""
        if host_id == self.stack_a.host_id:
            return self.forward
        if host_id == self.stack_b.host_id:
            return self.reverse
        raise ValueError(f"host {host_id} is not an endpoint of this connection")
