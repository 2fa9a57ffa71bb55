"""Telemetry core: spans, counters, and gauges.

A :class:`Telemetry` instance rides along with a simulation the same way
the runtime sanitizer does: it subscribes to the simulator's probe
(:mod:`repro.des.probe`) and turns the hooks it implements into spans
and counters; with nothing subscribed, every hook site costs one
``is None`` test.  Like the sanitizer, telemetry is strictly an
**observer** — it creates no events, draws no random numbers, and keeps
all bookkeeping outside simulation state, so an instrumented run
produces byte-identical traces to an uninstrumented one (enforced by
golden-digest tests).

Two kinds of measurement are collected:

* **spans** — named intervals keyed by *both* simulation time and wall
  time, carrying a category (the subsystem) and a track (the simulated
  entity: ``run``, ``rank2``, ``nic1``, ``tcp 1->2``, ``port0``, ...).
  The span taxonomy — run → program phase → bus transaction → TCP
  segment — is documented in ``docs/architecture.md``.
* **counters / gauges** — monotone event counts (events popped, frames
  offered/delivered/dropped, collisions, backoff rounds, retransmits,
  bytes per connection) and last/max-value gauges.

Wall-clock readings come from an injectable ``clock`` callable (default
``time.perf_counter``); they are recorded next to simulation state,
never fed into it, which is why telemetry cannot perturb determinism.

This module deliberately imports nothing from the simulation packages —
the DES core imports *it* lazily, so there is no cycle.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Span",
    "Telemetry",
    "process_telemetry",
    "enable_process_telemetry",
    "disable_process_telemetry",
]

#: The wall clock used when none is injected.  Telemetry measures wall
#: time by design; readings are recorded beside simulation state and
#: never fed back into it (the determinism contract's carve-out for
#: observer-only instrumentation).
_WALL_CLOCK = time.perf_counter


class Span:
    """One named interval on one track.

    ``sim_start``/``sim_end`` are simulation seconds (``None`` for
    spans recorded outside a live simulation);
    ``wall_start``/``wall_end`` are wall seconds from the telemetry
    instance's clock.  ``parent_id`` is the span open on the same track
    when this one began (or the run root), giving the hierarchy
    run → program phase → bus transaction → TCP segment.
    """

    __slots__ = ("span_id", "parent_id", "name", "category", "track",
                 "sim_start", "sim_end", "wall_start", "wall_end", "args")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 category: str, track: str, sim_start: Optional[float],
                 wall_start: float, args: Optional[dict]):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.track = track
        self.sim_start = sim_start
        self.sim_end: Optional[float] = None
        self.wall_start = wall_start
        self.wall_end: Optional[float] = None
        self.args = args

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    @property
    def wall_duration(self) -> Optional[float]:
        if self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"<Span {self.name!r} cat={self.category} track={self.track} "
                f"sim=[{self.sim_start}, {self.sim_end}]>")


class Telemetry:
    """Counters, gauges, and spans for one (or more) runs.

    Parameters
    ----------
    label:
        Free-form identification carried into exports.
    clock:
        Wall-clock callable; injectable so tests can drive deterministic
        wall timestamps.
    max_spans:
        Retention cap: spans beyond it are counted
        (``telemetry.spans_dropped``) but not stored, bounding memory on
        full-scale runs.
    max_samples:
        Retention cap for counter-series samples (see :meth:`sample`);
        samples beyond it are counted (``telemetry.samples_dropped``)
        but not stored.
    """

    def __init__(self, label: str = "", clock: Optional[Callable[[], float]] = None,
                 max_spans: int = 1_000_000, max_samples: int = 1_000_000):
        if max_spans < 0:
            raise ValueError(f"max_spans must be >= 0, got {max_spans}")
        if max_samples < 0:
            raise ValueError(f"max_samples must be >= 0, got {max_samples}")
        self.label = label
        self.clock: Callable[[], float] = clock if clock is not None else _WALL_CLOCK
        self.max_spans = max_spans
        self.max_samples = max_samples
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: (track, name) -> [(sim_time, value), ...] counter time series.
        self.series: Dict[tuple, List[tuple]] = {}
        self._n_samples = 0
        self.spans: List[Span] = []
        self.wall_epoch = self.clock()
        self._next_span_id = 0
        self._open_by_track: Dict[str, List[Span]] = {}
        self._root: Optional[Span] = None
        #: Spans the simulation hooks opened, by ``id()`` of what they
        #: follow (frame, output port, segment, message, rank, run).  The
        #: entry holds the subject, so its id is not reused while open.
        self._open_by_subject: Dict[int, tuple] = {}
        #: Attempts so far of each frame on the shared bus, by ``id()``.
        self._attempts: Dict[int, int] = {}

    # -- counters / gauges --------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Increment a monotone counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record a gauge's latest value."""
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Record a gauge as the maximum value ever seen."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def sample(self, name: str, track: str, sim_time: float, value: float) -> None:
        """Append one point to the ``(track, name)`` counter time series.

        Series render as Perfetto counter tracks ("C" events) in the
        Chrome export — e.g. per-port queue depth next to the TCP spans.
        Beyond ``max_samples`` points are counted but not stored.
        """
        if self._n_samples >= self.max_samples:
            self.count("telemetry.samples_dropped")
            return
        self._n_samples += 1
        self.series.setdefault((track, name), []).append((sim_time, value))

    # -- spans ---------------------------------------------------------
    def begin(self, name: str, category: str, track: str,
              sim_time: Optional[float] = None, root: bool = False,
              **args: Any) -> Span:
        """Open a span on ``track`` at ``sim_time`` (and wall now)."""
        self._next_span_id += 1
        stack = self._open_by_track.setdefault(track, [])
        if stack:
            parent_id: Optional[int] = stack[-1].span_id
        elif self._root is not None and not root:
            parent_id = self._root.span_id
        else:
            parent_id = None
        span = Span(self._next_span_id, parent_id, name, category, track,
                    sim_time, self.clock(), args or None)
        stack.append(span)
        if root:
            self._root = span
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.count("telemetry.spans_dropped")
        return span

    def end(self, span: Span, sim_time: Optional[float] = None) -> Span:
        """Close a span (idempotent on the track stack)."""
        span.sim_end = sim_time
        span.wall_end = self.clock()
        stack = self._open_by_track.get(span.track)
        if stack is not None:
            try:
                stack.remove(span)
            except ValueError:
                pass
        if self._root is span:
            self._root = None
        return span

    def complete(self, name: str, category: str, track: str,
                 sim_start: Optional[float], sim_end: Optional[float],
                 **args: Any) -> Span:
        """Record a span whose bounds are already known (zero wall width)."""
        span = self.begin(name, category, track, sim_start, **args)
        self.end(span, sim_end)
        return span

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended, across all tracks."""
        return [s for stack in self._open_by_track.values() for s in stack]

    # -- simulation hooks (repro.des.probe) ------------------------------
    def on_pop(self, time: float, now: float, entry) -> None:
        """One event left the schedule (the hottest hook)."""
        self.counters["des.events_popped"] = \
            self.counters.get("des.events_popped", 0) + 1

    def _open(self, subject, name: str, category: str, track: str,
              sim_time: float, **args: Any) -> None:
        self._open_by_subject[id(subject)] = (
            subject, self.begin(name, category, track, sim_time, **args))

    def _close(self, subject, sim_time: float) -> Optional[Span]:
        entry = self._open_by_subject.pop(id(subject), None)
        if entry is None:
            return None
        return self.end(entry[1], sim_time)

    def on_enqueue(self, queue, frame, now: float) -> None:
        if queue.layer == "net.nic":
            self.count("nic.frames_queued")
            self.gauge_max("nic.max_queue_depth", queue.queue_depth)

    def on_frame_offered(self, nic, frame, now: float) -> None:
        self.count("bus.frames_offered")
        layer = nic.bus.layer
        kind = "frame" if layer == "net.medium" else "uplink"
        self._open(frame, f"{kind} {frame.size}B", layer, f"nic{frame.src}",
                   now, src=frame.src, dst=frame.dst, size=frame.size)
        self._attempts[id(frame)] = 1

    def on_collision(self, bus, now: float) -> None:
        self.count("bus.collisions")

    def on_backoff(self, bus, frame, attempt: int, now: float) -> None:
        self.count("bus.backoff_rounds")
        if id(frame) in self._attempts:
            self._attempts[id(frame)] = attempt + 1

    def on_delivered(self, where, frame, now: float) -> None:
        self.count("bus.frames_delivered")
        self.count("bus.bytes_delivered", frame.size)
        if self._close(where, now) is None:  # not a downlink: the bus
            self._end_frame(frame, now, "delivered")

    def on_drop(self, frame, reason: str, now: float) -> None:
        self.count("net.frames_dropped")
        self.count(f"drops.{reason}")
        self._end_frame(frame, now, reason)

    def on_frame_sent(self, nic, frame, sent: bool, now: float) -> None:
        if sent:
            self.count("nic.frames_sent")
            self.count("nic.bytes_sent", frame.size)
        self._end_frame(frame, now)

    def _end_frame(self, frame, now: float, outcome: Optional[str] = None) -> None:
        """Close a frame's span by frame identity, not by track: a
        queue-overflow drop can land while another frame from the same
        NIC is on the wire."""
        attempts = self._attempts.pop(id(frame), None)
        span = self._close(frame, now)
        if span is not None and outcome is not None \
                and span.category == "net.medium":
            # Bus frames record how the transaction ended; an
            # excess-collision drop never won an attempt.
            span.args["outcome"] = outcome
            if outcome != "excess-collisions":
                span.args["attempts"] = attempts

    def on_service_start(self, port, frame, now: float, tx: float) -> None:
        self._open(port, f"downlink {frame.size}B", port.layer,
                   f"port{port.station_id}", now, src=frame.src, dst=frame.dst)

    def on_tcp_data(self, pipe, seg) -> None:
        flow = f"{pipe.src_stack.host_id}->{pipe.dst_stack.host_id}"
        self.count("tcp.segments_sent")
        self.count("tcp.bytes_sent", seg.data_len)
        self.count(f"conn.{flow}.bytes", seg.data_len)
        if seg.retransmit:
            self.count("tcp.retransmits")
            self.count("tcp.bytes_retransmitted", seg.data_len)
        self._open(seg, f"seg {seg.data_len}B", "transport.tcp", f"tcp {flow}",
                   pipe.sim.now, seq=seg.seq, retransmit=seg.retransmit)

    def on_tcp_data_sent(self, pipe, seg, now: float) -> None:
        self._close(seg, now)

    def on_tcp_ack(self, pipe, ack_no: int) -> None:
        self.count("tcp.acks_sent")

    def on_tcp_rto(self, pipe) -> None:
        self.count("tcp.rto_timeouts")

    def on_tcp_fast_retransmit(self, pipe) -> None:
        self.count("tcp.fast_retransmits")

    def on_pvm_send_begin(self, src, dst, message, route, now: float) -> None:
        self.count("pvm.messages_sent")
        self.count("pvm.message_bytes", message.data_bytes)
        self._open(message, f"pvm_send {message.data_bytes}B", "pvm.vm",
                   f"host{src.host_id}", now,
                   src_task=src.tid, dst_task=dst.tid, route=route.value)

    def on_pvm_send_end(self, src, dst, message, now: float) -> None:
        self._close(message, now)

    def on_daemon_route(self, daemon, task_msg, dst_host: int) -> None:
        self.count("pvm.datagrams_routed")

    def on_daemon_drop(self, daemon, what) -> None:
        self.count("pvm.daemon_drops")

    def on_keepalive(self, daemon, peer_host: int) -> None:
        self.count("pvm.keepalives_sent")

    def on_compute(self, rank: int, start: float, end: float, work) -> None:
        self.count("fx.compute_phases")
        self.complete("compute", "fx.program", f"rank{rank}", start, end,
                      rank=rank, work=work)

    def on_rank_begin(self, program, ctx, iterations: int, now: float) -> None:
        self._open(ctx, f"{program.name}-rank{ctx.rank}", "fx.program",
                   f"rank{ctx.rank}", now, rank=ctx.rank, iterations=iterations)

    def on_rank_end(self, program, ctx, now: float) -> None:
        self._close(ctx, now)

    def on_run_begin(self, runtime, program, iterations: int, now: float) -> None:
        self._open(runtime, f"run {program.name}", "harness.runner", "run",
                   now, root=True, program=program.name,
                   nprocs=runtime.nprocs, iterations=iterations,
                   seed=runtime.cluster.seed)

    def on_run_end(self, runtime, program, now: float) -> None:
        self._close(runtime, now)
        self.gauge("run.sim_seconds", now)
        # Frames still in flight keep their spans open, as before, but a
        # long-lived instance must not hold the finished run alive.
        self._open_by_subject.clear()
        self._attempts.clear()

    # -- aggregation ---------------------------------------------------
    def spans_by_category(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.category] = out.get(span.category, 0) + 1
        return out

    def __repr__(self):  # pragma: no cover - cosmetic
        return (f"<Telemetry {self.label!r} spans={len(self.spans)} "
                f"counters={len(self.counters)}>")


# -- process-wide instance ------------------------------------------------
#: The shared instance every ``Simulator()`` attaches while one is
#: installed, so counters aggregate across every simulator a command
#: builds (the experiments harness runs many).  ``--telemetry`` installs
#: it for one command.  ``repro profile`` uses a private instance
#: instead, so its spans cover exactly one run.
_PROCESS_TELEMETRY: Optional[Telemetry] = None


def process_telemetry() -> Optional[Telemetry]:
    """The process-wide telemetry instance, or ``None`` when disabled."""
    return _PROCESS_TELEMETRY


def enable_process_telemetry(tel: Optional[Telemetry] = None) -> Telemetry:
    """Install (or return the existing) process-wide telemetry instance."""
    global _PROCESS_TELEMETRY
    if tel is not None:
        _PROCESS_TELEMETRY = tel
    elif _PROCESS_TELEMETRY is None:
        _PROCESS_TELEMETRY = Telemetry(label="process")
    return _PROCESS_TELEMETRY


def disable_process_telemetry() -> Optional[Telemetry]:
    """Detach and return the process-wide instance (for tests/CLI)."""
    global _PROCESS_TELEMETRY
    tel, _PROCESS_TELEMETRY = _PROCESS_TELEMETRY, None
    return tel
