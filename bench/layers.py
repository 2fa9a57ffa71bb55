"""Isolated layer microbenchmarks.

Each benchmark builds one layer from its public constructors, drives a
fixed batch of work through it, and repeats the batch until at least
``min_seconds`` of wall time have passed; the reported number is the
median over ``runs`` such runs.  Where the layer has a closed-form model
the benchmark checks the simulation against it, and a failed check is a
failed operation, like a wrong trace digest.

Which workload each number should move is tabulated in ``README.md``.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from typing import Callable, Dict

from repro.capture import PacketTrace, load_npz, save_npz, trace_digest
from repro.des import Simulator, Store
from repro.harness import TraceKey, TraceStore
from repro.net import EthernetBus, EthernetFrame, Nic, SwitchedFabric
from repro.pvm import PvmMessage, VirtualMachine
from repro.telemetry import Telemetry
from repro.transport import HostStack

from workloads import CLOCK, Check

MIN_SECONDS = 0.5
RUNS = 5

PINGPONG_EXCHANGES = 2000
PINGPONG_DELAY = 1e-6     # one sleep per exchange, so the future-event queue works too
BUS_FRAMES = 1000
FULL_PAYLOAD = 1500       # IP datagram bytes: a 1518-byte measured frame
MIN_PAYLOAD = 46          # a 64-byte measured frame
CONTENDERS = 4
TCP_MESSAGES = 100
TCP_MESSAGE_BYTES = 8192
PVM_MESSAGES = 100
PVM_FRAGMENTS = 4
PVM_FRAGMENT_BYTES = 2000


def median_rate(batch: Callable[[], float], min_seconds: float, runs: int) -> float:
    """Median over ``runs`` of units per wall second, where one run
    repeats ``batch`` (which returns the units it did) for at least
    ``min_seconds``."""
    rates = []
    for _ in range(runs):
        units = 0.0
        t0 = CLOCK()
        while True:
            units += batch()
            elapsed = CLOCK() - t0
            if elapsed >= min_seconds:
                break
        rates.append(units / elapsed)
    return statistics.median(rates)


# -- DES ----------------------------------------------------------------

def _pingpong(exchanges: int, telemetry=None) -> Simulator:
    sim = Simulator(telemetry=telemetry)
    ping, pong = Store(sim), Store(sim)

    def left():
        for i in range(exchanges):
            ping.put(i)
            yield pong.get()
            yield PINGPONG_DELAY

    def right():
        for _ in range(exchanges):
            item = yield ping.get()
            pong.put(item)

    sim.process(left(), name="ping")
    sim.process(right(), name="pong")
    sim.run()
    return sim


def des_pingpong(check: Check, min_seconds: float, runs: int) -> Dict[str, float]:
    """Two processes trading one item back and forth through two Stores."""
    tel = Telemetry(label="pingpong")
    sim = _pingpong(PINGPONG_EXCHANGES, telemetry=tel)
    events = tel.counters["des.events_popped"]
    check.expect(math.isclose(sim.now, PINGPONG_EXCHANGES * PINGPONG_DELAY,
                              rel_tol=1e-9),
                 "des ping-pong: simulated time is not exchanges x delay")

    def batch():
        _pingpong(PINGPONG_EXCHANGES)
        return events

    return {"des.pingpong_events_per_s": median_rate(batch, min_seconds, runs)}


# -- network ------------------------------------------------------------

def _offer(senders: int, frames_each: int, payload: int, switched: bool = False):
    """``senders`` NICs each queue ``frames_each`` frames for one sink
    station at time 0; runs the network dry."""
    sim = Simulator()
    net = SwitchedFabric(sim) if switched else EthernetBus(sim)
    nics = [Nic(sim, net, i) for i in range(senders + 1)]
    for nic in nics[:senders]:
        for _ in range(frames_each):
            nic.send(EthernetFrame(nic.station_id, senders, payload))
    sim.run()
    return sim, net, nics[senders]


def _expect_delivered(check: Check, what: str, net, sink, frames: int) -> None:
    check.expect(net.stats.frames_delivered == frames
                 and sink.stats.frames_received == frames and not net.drop_log,
                 f"{what}: {sink.stats.frames_received} of {frames} frames arrived")


def _expect_back_to_back(check: Check, what: str, sim, bus, payload: int) -> None:
    """One station alone: every frame holds the medium for its contention
    window, its wire time and the inter-frame gap, back to back, and the
    run ends when the last frame leaves the wire (no trailing gap)."""
    tx = EthernetFrame(0, 1, payload).wire_bits / bus.bandwidth_bps
    period = bus.contention_window + tx + bus.ifg_time
    check.expect(math.isclose(sim.now, BUS_FRAMES * period - bus.ifg_time,
                              rel_tol=1e-9),
                 f"{what}: frames were not sent back to back")


def bus_uncontended(check: Check, min_seconds: float, runs: int) -> Dict[str, float]:
    """One NIC sending full-size frames on an otherwise idle bus.

    The wire efficiency (payload bits over bandwidth x elapsed) must equal
    the MAC model's closed form: payload / (contention window + wire bytes
    + IFG), in byte times, less the gap after the last frame.
    """
    sim, bus, sink = _offer(1, BUS_FRAMES, FULL_PAYLOAD)
    _expect_delivered(check, "uncontended bus", bus, sink, BUS_FRAMES)
    _expect_back_to_back(check, "uncontended bus", sim, bus, FULL_PAYLOAD)
    efficiency = BUS_FRAMES * FULL_PAYLOAD * 8 / (bus.bandwidth_bps * sim.now)

    def batch():
        _offer(1, BUS_FRAMES, FULL_PAYLOAD)
        return BUS_FRAMES

    return {"net.bus.uncontended_frames_per_s": median_rate(batch, min_seconds, runs),
            "net.bus.uncontended_wire_efficiency": efficiency}


def bus_contended(check: Check, min_seconds: float, runs: int) -> Dict[str, float]:
    """Four NICs each sending full-size frames at once: collisions and
    binary exponential backoff on every frame's first attempts."""
    frames = CONTENDERS * (BUS_FRAMES // CONTENDERS)
    _, bus, sink = _offer(CONTENDERS, BUS_FRAMES // CONTENDERS, FULL_PAYLOAD)
    _expect_delivered(check, "contended bus", bus, sink, frames)

    def batch():
        _offer(CONTENDERS, BUS_FRAMES // CONTENDERS, FULL_PAYLOAD)
        return frames

    return {"net.bus.contended_frames_per_s": median_rate(batch, min_seconds, runs),
            "net.bus.contended_collisions_per_frame": bus.stats.collisions / frames}


def bus_min_frame(check: Check, min_seconds: float, runs: int) -> Dict[str, float]:
    """One NIC sending minimum-size (64-byte) frames: per-frame cost only."""
    sim, bus, sink = _offer(1, BUS_FRAMES, MIN_PAYLOAD)
    _expect_delivered(check, "min-frame bus", bus, sink, BUS_FRAMES)
    _expect_back_to_back(check, "min-frame bus", sim, bus, MIN_PAYLOAD)

    def batch():
        _offer(1, BUS_FRAMES, MIN_PAYLOAD)
        return BUS_FRAMES

    return {"net.bus.min_frame_frames_per_s": median_rate(batch, min_seconds, runs)}


def switched_port(check: Check, min_seconds: float, runs: int) -> Dict[str, float]:
    """Four stations sending full-size frames to one output port.

    The port must deliver every frame (conservation), and since frames
    arrive faster than it serves them it stays busy from the first
    arrival (one uplink time plus switch latency) to the end.
    """
    frames = CONTENDERS * (BUS_FRAMES // CONTENDERS)
    sim, fabric, sink = _offer(CONTENDERS, BUS_FRAMES // CONTENDERS,
                               FULL_PAYLOAD, switched=True)
    _expect_delivered(check, "switched port", fabric, sink, frames)
    tx = EthernetFrame(0, 1, FULL_PAYLOAD).wire_bits / fabric.link_bps
    check.expect(math.isclose(sim.now, tx + fabric.switch_latency + frames * tx,
                              rel_tol=1e-9),
                 "switched port: the output port went idle under overload")

    def batch():
        _offer(CONTENDERS, BUS_FRAMES // CONTENDERS, FULL_PAYLOAD, switched=True)
        return frames

    return {"net.switched.port_frames_per_s": median_rate(batch, min_seconds, runs)}


# -- transport and PVM ----------------------------------------------------

def _hosts(sim: Simulator, count: int):
    bus = EthernetBus(sim)
    return [HostStack(sim, Nic(sim, bus, i), i) for i in range(count)]


def _tcp_bulk():
    sim = Simulator()
    sender, receiver = _hosts(sim, 2)
    pipe = sender.connect(receiver).pipe_from(sender.host_id)
    finished = []

    def write():
        for _ in range(TCP_MESSAGES):
            yield pipe.send(TCP_MESSAGE_BYTES)

    def read():
        for _ in range(TCP_MESSAGES):
            yield pipe.mailbox.get()
        finished.append(sim.now)

    sim.process(write(), name="writer")
    sim.process(read(), name="reader")
    sim.run()
    return pipe, finished, sender.nic.bus.bandwidth_bps


def tcp_bulk(check: Check, min_seconds: float, runs: int) -> Dict[str, float]:
    """Bulk transfer over one TcpPipe; simulated goodput may not exceed
    the line rate."""
    pipe, finished, line_bps = _tcp_bulk()
    total = TCP_MESSAGES * TCP_MESSAGE_BYTES
    check.expect(bool(finished) and pipe.bytes_sent == total,
                 "tcp bulk: not every message was delivered")
    check.expect(bool(finished) and total * 8 / finished[0] <= line_bps,
                 "tcp bulk: goodput above the line rate")
    segments = pipe.segments_sent

    def batch():
        _tcp_bulk()
        return segments

    return {"transport.tcp.bulk_segments_per_s": median_rate(batch, min_seconds, runs)}


def _pvm_fragmented():
    sim = Simulator()
    vm = VirtualMachine(sim, _hosts(sim, 2))
    src, dst = vm.spawn(0), vm.spawn(1)

    def send():
        for _ in range(PVM_MESSAGES):
            message = PvmMessage(tag=1)
            for _ in range(PVM_FRAGMENTS):
                message.pack(PVM_FRAGMENT_BYTES)
            yield from vm.send(src, dst, message)

    def receive():
        for _ in range(PVM_MESSAGES):
            yield dst.recv(tag=1)

    sim.process(send(), name="sender")
    sim.process(receive(), name="receiver")
    sim.run()
    return dst


def pvm_fragmented(check: Check, min_seconds: float, runs: int) -> Dict[str, float]:
    """Multi-fragment ``pvm_send`` between two tasks over direct TCP."""
    dst = _pvm_fragmented()
    check.expect(dst.messages_received == PVM_MESSAGES,
                 f"pvm: {dst.messages_received} of {PVM_MESSAGES} messages arrived")

    def batch():
        _pvm_fragmented()
        return PVM_MESSAGES

    return {"pvm.fragmented_send_messages_per_s": median_rate(batch, min_seconds, runs)}


# -- capture and trace store ----------------------------------------------

def capture_io(check: Check, work: Path, trace: PacketTrace,
               min_seconds: float, runs: int) -> Dict[str, float]:
    """npz save and load of one trace; a round trip keeps its bytes."""
    path = work / "capture-io.npz"
    megabytes = trace.data.nbytes / 1e6

    def save():
        save_npz(trace, path)
        return megabytes

    def load():
        load_npz(path)
        return megabytes

    metrics = {"capture.io.save_mb_per_s": median_rate(save, min_seconds, runs),
               "capture.io.load_mb_per_s": median_rate(load, min_seconds, runs)}
    check.expect(trace_digest(load_npz(path)) == trace_digest(trace),
                 "capture.io: the npz round trip changed the trace")
    return metrics


def store_ops(check: Check, work: Path, trace: PacketTrace, key: TraceKey,
              min_seconds: float, runs: int) -> Dict[str, float]:
    """``TraceStore.put`` of one trace, and ``get`` of it by a fresh store
    (a disk hit, as every ``all-warm`` rep does)."""
    directory = work / "store"
    writer = TraceStore(disk_dir=directory)

    def put():
        writer.put(key, trace)
        return 1

    def get():
        TraceStore(disk_dir=directory).get(key.name, scale=key.scale, seed=key.seed)
        return 1

    metrics = {"harness.store.put_ms": 1e3 / median_rate(put, min_seconds, runs),
               "harness.store.disk_get_ms": 1e3 / median_rate(get, min_seconds, runs)}
    reader = TraceStore(disk_dir=directory)
    loaded = reader.get(key.name, scale=key.scale, seed=key.seed)
    check.expect(reader.stats.disk_hits == 1 and trace_digest(loaded) == trace_digest(trace),
                 "harness.store: a fresh store did not read the trace back from disk")
    return metrics


def run_all(check: Check, work: Path, trace: PacketTrace, key: TraceKey,
            min_seconds: float, runs: int) -> Dict[str, float]:
    """Every microbenchmark; ``trace`` (stored under ``key``) feeds the
    capture and store benchmarks."""
    work.mkdir(parents=True, exist_ok=True)
    metrics: Dict[str, float] = {}
    for bench in (des_pingpong, bus_uncontended, bus_contended, bus_min_frame,
                  switched_port, tcp_bulk, pvm_fragmented):
        metrics.update(bench(check, min_seconds, runs))
    metrics.update(capture_io(check, work, trace, min_seconds, runs))
    metrics.update(store_ops(check, work, trace, key, min_seconds, runs))
    return metrics
