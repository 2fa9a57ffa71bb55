"""Per-port queue monitors for the switched fabric.

The monitors are pure observers in the same sense as :mod:`repro.telemetry`
and the simlint sanitizer: attached to a :class:`SwitchedFabric` before the
run, they subscribe to its simulator's probe (:mod:`repro.des.probe`),
receive the output ports' queue-transition hooks, and keep all bookkeeping
outside simulation state.  They never
create events, never draw random numbers, and never mutate frames — a
monitored run produces a byte-identical trace to an unmonitored one.

The design follows PrintQueue (SIGCOMM'22): per-port queue monitors record a
queue-depth time series on every enqueue/dequeue/drop transition, attribute
each delivered frame's queuing delay to the flows that occupied the queue in
front of it, and aggregate both into coarse time windows with top-k
contributor rankings.  Microbursts are detected post hoc from the depth
series (depth >= threshold sustained for >= a minimum duration).

Attribution model
-----------------
A frame's queue delay is the time from enqueue to the start of its own
transmission.  Every second of that delay is attributed to exactly one flow:

* when a frame F starts transmitting (service time ``tx``), every frame still
  waiting in the queue is charged ``tx`` seconds against F's flow;
* when a frame arrives while another frame is mid-transmission, it is charged
  the *remaining* transmission time against the in-service flow;
* when the drain loop sleeps waiting for reservation tokens, every waiting
  frame (including the starved head itself) is charged the wait against the
  token-starved head's flow.

For best-effort traffic the attributed seconds therefore sum exactly to the
measured queue delay — an invariant the test-suite checks against
hand-computed queue occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..transport import TcpSegment, UdpDatagram

__all__ = ["QmonConfig", "FabricMonitor", "PortMonitor", "flow_of"]


@dataclass(frozen=True)
class QmonConfig:
    """Configuration for switch-queue monitoring.

    ``window`` is the PrintQueue-style coarse aggregation window in simulated
    seconds (default 10 ms, matching the paper's measurement bin).
    ``burst_depth`` is the queue depth (frames) at or above which an interval
    counts as a microburst, ``burst_min_duration`` the minimum sustained
    duration in seconds, and ``top_k`` the number of contributor flows
    reported per window and per burst.
    """

    window: float = 0.010
    burst_depth: int = 4
    burst_min_duration: float = 0.0
    top_k: int = 3

    def __post_init__(self) -> None:
        if self.window <= 0.0:
            raise ValueError("qmon window must be positive")
        if self.burst_depth < 1:
            raise ValueError("qmon burst_depth must be >= 1")
        if self.burst_min_duration < 0.0:
            raise ValueError("qmon burst_min_duration must be >= 0")
        if self.top_k < 1:
            raise ValueError("qmon top_k must be >= 1")

    @classmethod
    def coerce(cls, value) -> Optional["QmonConfig"]:
        """Normalise a user-facing flag into a config (or None = disabled)."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(f"cannot interpret qmon setting {value!r}")

    def canonical(self) -> dict:
        return {
            "window": self.window,
            "burst_depth": self.burst_depth,
            "burst_min_duration": self.burst_min_duration,
            "top_k": self.top_k,
        }


def flow_of(frame) -> str:
    """Stable flow label for a frame: ``"<src>-><dst>/<kind>"``.

    Kind classification mirrors the capture-layer TraceRecorder so qmon
    output lines up with pcap/analysis flow names.
    """
    pdu = frame.payload
    if isinstance(pdu, TcpSegment):
        kind = "tcp-ack" if pdu.is_ack else "tcp-data"
    elif isinstance(pdu, UdpDatagram):
        kind = "udp"
    else:
        kind = "other"
    return f"{frame.src}->{frame.dst}/{kind}"


class _FrameRecord:
    """Shadow bookkeeping for one queued frame (keyed by object identity)."""

    __slots__ = ("flow", "size", "enqueue_t", "service_t", "delayed_by")

    def __init__(self, flow: str, size: int, enqueue_t: float) -> None:
        self.flow = flow
        self.size = size
        self.enqueue_t = enqueue_t
        self.service_t = enqueue_t
        self.delayed_by: Dict[str, float] = {}

    def charge(self, flow: str, seconds: float) -> None:
        if seconds > 0.0:
            self.delayed_by[flow] = self.delayed_by.get(flow, 0.0) + seconds


@dataclass
class _Window:
    """Per-window aggregates (PrintQueue TimeWindows)."""

    max_depth: int = 0
    frames_enqueued: int = 0
    bytes_by_flow: Dict[str, int] = field(default_factory=dict)
    # victim flow -> contributor flow -> attributed seconds
    delay_matrix: Dict[str, Dict[str, float]] = field(default_factory=dict)


class PortMonitor:
    """Observer for one output port of the switched fabric."""

    def __init__(self, station_id: int, config: QmonConfig, telemetry=None) -> None:
        self.station_id = station_id
        self.config = config
        self.telemetry = telemetry
        # (time, depth_frames, depth_bytes, kind) with kind in enq/deq/drop.
        self.samples: List[Tuple[float, int, int, str]] = []
        # (time, flow, bytes) for every enqueue — contributor rankings.
        self.enqueues: List[Tuple[float, str, int]] = []
        self.windows: Dict[int, _Window] = {}
        self.drops: List[dict] = []
        self.depth_frames = 0
        self.depth_bytes = 0
        self.max_depth_frames = 0
        self.max_depth_bytes = 0
        self.frames_enqueued = 0
        self.bytes_enqueued = 0
        self.frames_delivered = 0
        self.bytes_delivered = 0
        self.delay_total = 0.0
        self.delay_max = 0.0
        self._waiting: Dict[int, _FrameRecord] = {}
        # (record, service_end_time) of the frame currently on the wire.
        self._in_service: Optional[Tuple[_FrameRecord, float]] = None

    # -- transition hooks ---------------------------------------------------

    def on_enqueue(self, frame, now: float) -> None:
        rec = _FrameRecord(flow_of(frame), frame.size, now)
        svc = self._in_service
        if svc is not None:
            in_flight, end = svc
            rec.charge(in_flight.flow, end - now)
        self._waiting[id(frame)] = rec
        self.depth_frames += 1
        self.depth_bytes += frame.size
        self.frames_enqueued += 1
        self.bytes_enqueued += frame.size
        win = self._window(now)
        win.frames_enqueued += 1
        win.bytes_by_flow[rec.flow] = win.bytes_by_flow.get(rec.flow, 0) + frame.size
        win.max_depth = max(win.max_depth, self.depth_frames)
        self.enqueues.append((now, rec.flow, frame.size))
        self._sample(now, "enq")

    def on_service_start(self, frame, now: float, tx_seconds: float) -> None:
        rec = self._waiting.pop(id(frame), None)
        if rec is None:  # pragma: no cover - defensive; enqueue always precedes
            rec = _FrameRecord(flow_of(frame), frame.size, now)
        rec.service_t = now
        for waiter in self._waiting.values():
            waiter.charge(rec.flow, tx_seconds)
        self._in_service = (rec, now + tx_seconds)
        # Depth is unchanged: the in-service frame still occupies the port
        # (matching _OutputPort.queued_bytes, which decrements at delivery).

    def on_token_wait(self, frame, now: float, wait_seconds: float) -> None:
        head = self._waiting.get(id(frame))
        flow = head.flow if head is not None else flow_of(frame)
        for waiter in self._waiting.values():
            waiter.charge(flow, wait_seconds)

    def on_delivered(self, frame, now: float) -> None:
        svc = self._in_service
        self._in_service = None
        rec = svc[0] if svc is not None else _FrameRecord(flow_of(frame), frame.size, now)
        self.depth_frames -= 1
        self.depth_bytes -= frame.size
        self.frames_delivered += 1
        self.bytes_delivered += frame.size
        delay = rec.service_t - rec.enqueue_t
        self.delay_total += delay
        self.delay_max = max(self.delay_max, delay)
        if rec.delayed_by:
            matrix = self._window(rec.enqueue_t).delay_matrix
            row = matrix.setdefault(rec.flow, {})
            for contrib, seconds in rec.delayed_by.items():
                row[contrib] = row.get(contrib, 0.0) + seconds
        self._sample(now, "deq")

    def on_drop(self, frame, reason: str, now: float) -> None:
        occupants: Dict[str, int] = {}
        for rec in self._waiting.values():
            occupants[rec.flow] = occupants.get(rec.flow, 0) + rec.size
        if self._in_service is not None:
            rec = self._in_service[0]
            occupants[rec.flow] = occupants.get(rec.flow, 0) + rec.size
        self.drops.append(
            {
                "time": now,
                "reason": reason,
                "flow": flow_of(frame),
                "size": frame.size,
                "depth_frames": self.depth_frames,
                "depth_bytes": self.depth_bytes,
                "occupants": occupants,
            }
        )
        self._sample(now, "drop")

    # -- internals ----------------------------------------------------------

    def _window(self, t: float) -> _Window:
        idx = int(t / self.config.window)
        win = self.windows.get(idx)
        if win is None:
            win = self.windows[idx] = _Window()
        return win

    def _sample(self, now: float, kind: str) -> None:
        self.samples.append((now, self.depth_frames, self.depth_bytes, kind))
        self.max_depth_frames = max(self.max_depth_frames, self.depth_frames)
        self.max_depth_bytes = max(self.max_depth_bytes, self.depth_bytes)
        if self.telemetry is not None:
            self.telemetry.sample(
                "queue depth (frames)",
                f"port{self.station_id}",
                now,
                float(self.depth_frames),
            )

    # -- post-processing ----------------------------------------------------

    def mean_depth_frames(self) -> float:
        """Time-weighted mean queue depth over the sampled span."""
        if len(self.samples) < 2:
            return float(self.samples[0][1]) if self.samples else 0.0
        area = 0.0
        prev_t, prev_depth = self.samples[0][0], self.samples[0][1]
        for t, depth, _bytes, _kind in self.samples[1:]:
            area += prev_depth * (t - prev_t)
            prev_t, prev_depth = t, depth
        span = self.samples[-1][0] - self.samples[0][0]
        return area / span if span > 0.0 else float(self.samples[0][1])

    def bursts(self) -> List[dict]:
        """Microburst intervals: depth >= burst_depth for >= min duration."""
        cfg = self.config
        out: List[dict] = []
        start: Optional[float] = None
        peak = 0
        for t, depth, _bytes, _kind in self.samples:
            if depth >= cfg.burst_depth:
                if start is None:
                    start, peak = t, depth
                else:
                    peak = max(peak, depth)
            elif start is not None:
                self._close_burst(out, start, t, peak)
                start, peak = None, 0
        if start is not None:
            self._close_burst(out, start, self.samples[-1][0], peak)
        return out

    def _close_burst(self, out: List[dict], start: float, end: float, peak: int) -> None:
        if end - start < self.config.burst_min_duration:
            return
        contrib: Dict[str, int] = {}
        for t, flow, size in self.enqueues:
            if start <= t <= end:
                contrib[flow] = contrib.get(flow, 0) + size
        top = sorted(contrib.items(), key=lambda kv: (-kv[1], kv[0]))
        out.append(
            {
                "start": start,
                "end": end,
                "duration": end - start,
                "peak_depth_frames": peak,
                "top_contributors": top[: self.config.top_k],
            }
        )

    def window_reports(self) -> List[dict]:
        """Per-window aggregates, sorted by window index."""
        reports = []
        for idx in sorted(self.windows):
            win = self.windows[idx]
            top = sorted(win.bytes_by_flow.items(), key=lambda kv: (-kv[1], kv[0]))
            reports.append(
                {
                    "index": idx,
                    "start": idx * self.config.window,
                    "max_depth_frames": win.max_depth,
                    "frames_enqueued": win.frames_enqueued,
                    "top_contributors": top[: self.config.top_k],
                    "delay_matrix": {
                        victim: dict(sorted(row.items()))
                        for victim, row in sorted(win.delay_matrix.items())
                    },
                }
            )
        return reports

    def delay_matrix(self) -> Dict[str, Dict[str, float]]:
        """Whole-run "who delayed whom": victim flow -> contributor -> secs."""
        total: Dict[str, Dict[str, float]] = {}
        for win in self.windows.values():
            for victim, row in win.delay_matrix.items():
                dst = total.setdefault(victim, {})
                for contrib, seconds in row.items():
                    dst[contrib] = dst.get(contrib, 0.0) + seconds
        return {v: dict(sorted(r.items())) for v, r in sorted(total.items())}


class FabricMonitor:
    """Fabric-wide queue monitor: one :class:`PortMonitor` per output port.

    Attach with ``fabric.attach_monitor(FabricMonitor(config))`` before the
    run starts.  The hooks record switch output ports only — NIC transmit
    queues fire ``on_enqueue`` too — and everything here is observer-only
    bookkeeping.
    """

    def __init__(self, config=None) -> None:
        self.config = QmonConfig.coerce(config) or QmonConfig()
        self.fabric = None
        self.ports: Dict[int, PortMonitor] = {}
        # Drops that could not be tied to an existing port (e.g. "no-port").
        self.unrouted_drops: List[dict] = []
        self._telemetry = None

    def attach(self, fabric) -> "FabricMonitor":
        """Subscribe to ``fabric``'s simulator; a fabric takes one monitor."""
        sim = fabric.sim
        if any(isinstance(s, FabricMonitor) and s.fabric is fabric
               for s in sim.subscribers):
            raise ValueError("a queue monitor is already attached")
        self.fabric = fabric
        self._telemetry = sim.telemetry
        return sim.subscribe(self)

    def port(self, station_id: int) -> PortMonitor:
        mon = self.ports.get(station_id)
        if mon is None:
            mon = self.ports[station_id] = PortMonitor(
                station_id, self.config, self._telemetry
            )
        return mon

    # -- probe hooks -------------------------------------------------------

    def on_enqueue(self, queue, frame, now: float) -> None:
        if queue.layer == "net.switched":
            self.port(queue.station_id).on_enqueue(frame, now)

    def on_service_start(self, port, frame, now: float, tx: float) -> None:
        self.port(port.station_id).on_service_start(frame, now, tx)

    def on_token_wait(self, port, frame, now: float, wait: float) -> None:
        self.port(port.station_id).on_token_wait(frame, now, wait)

    def on_delivered(self, where, frame, now: float) -> None:
        if where.layer == "net.switched":
            self.port(where.station_id).on_delivered(frame, now)

    def on_drop(self, frame, reason: str, now: float) -> None:
        mon = self.ports.get(frame.dst)
        if mon is not None:
            mon.on_drop(frame, reason, now)
        else:
            self.unrouted_drops.append(
                {
                    "time": now,
                    "reason": reason,
                    "flow": flow_of(frame),
                    "size": frame.size,
                }
            )

    # -- summaries ----------------------------------------------------------

    def max_depth_frames(self) -> int:
        return max((p.max_depth_frames for p in self.ports.values()), default=0)

    def total_drops(self) -> int:
        return sum(len(p.drops) for p in self.ports.values()) + len(self.unrouted_drops)

    def total_bursts(self) -> int:
        return sum(len(p.bursts()) for p in self.ports.values())
