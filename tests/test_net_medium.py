"""Unit tests for the CSMA/CD bus and NIC."""

import pytest

from repro.des import Simulator
from repro.net import BROADCAST, EthernetBus, EthernetFrame, Nic


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def bus(sim):
    return EthernetBus(sim, seed=1)


def make_nics(sim, bus, n):
    return [Nic(sim, bus, i) for i in range(n)]


def test_single_frame_delivery(sim, bus):
    nics = make_nics(sim, bus, 2)
    received = []
    nics[1].set_rx_handler(lambda f, t: received.append((f.src, f.size, t)))
    nics[0].send(EthernetFrame(src=0, dst=1, payload_size=100))
    sim.run()
    assert len(received) == 1
    src, size, t = received[0]
    assert src == 0 and size == 118
    # delivery happens after contention window + transmission time
    assert t > 0


def test_transmission_time_matches_bandwidth(sim, bus):
    nics = make_nics(sim, bus, 2)
    received = []
    nics[1].set_rx_handler(lambda f, t: received.append(t))
    frame = EthernetFrame(src=0, dst=1, payload_size=1500)
    nics[0].send(frame)
    sim.run()
    expected = bus.contention_window + frame.wire_bits / bus.bandwidth_bps
    assert received[0] == pytest.approx(expected)


def test_frames_from_one_sender_serialize(sim, bus):
    """A lone station sends back to back, as the MAC's closed form says:
    the first frame lands after one contention window and its wire time,
    and every later one a full period after the last — window + wire
    time + inter-frame gap, 32 + 1,526 + 12 byte times for a full frame.
    The MAC adds these terms exactly, so the tolerance is float rounding
    only."""
    nics = make_nics(sim, bus, 2)
    times = []
    nics[1].set_rx_handler(lambda f, t: times.append(t))
    for _ in range(5):
        nics[0].send(EthernetFrame(src=0, dst=1, payload_size=1500))
    sim.run()
    assert len(times) == 5
    wire = EthernetFrame(src=0, dst=1, payload_size=1500).wire_bits / bus.bandwidth_bps
    assert times[0] == pytest.approx(bus.contention_window + wire, rel=1e-9)
    period = bus.contention_window + wire + bus.ifg_time
    assert period * bus.bandwidth_bps / 8 == pytest.approx(32 + 1526 + 12)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps == pytest.approx([period] * 4, rel=1e-9)


def test_unicast_not_delivered_to_third_party(sim, bus):
    nics = make_nics(sim, bus, 3)
    got = {1: [], 2: []}
    nics[1].set_rx_handler(lambda f, t: got[1].append(f))
    nics[2].set_rx_handler(lambda f, t: got[2].append(f))
    nics[0].send(EthernetFrame(src=0, dst=1, payload_size=64))
    sim.run()
    assert len(got[1]) == 1 and len(got[2]) == 0


def test_broadcast_delivered_to_all_but_sender(sim, bus):
    nics = make_nics(sim, bus, 4)
    got = {i: [] for i in range(4)}
    for i in range(4):
        nics[i].set_rx_handler(lambda f, t, i=i: got[i].append(f))
    nics[0].send(EthernetFrame(src=0, dst=BROADCAST, payload_size=64))
    sim.run()
    assert [len(got[i]) for i in range(4)] == [0, 1, 1, 1]


def test_promiscuous_listener_sees_everything(sim, bus):
    nics = make_nics(sim, bus, 3)
    seen = []
    bus.add_listener(lambda f, t: seen.append((f.src, f.dst)))
    nics[0].send(EthernetFrame(src=0, dst=1, payload_size=64))
    nics[2].send(EthernetFrame(src=2, dst=0, payload_size=64))
    sim.run()
    assert sorted(seen) == [(0, 1), (2, 0)]


def test_simultaneous_senders_collide_then_resolve(sim, bus):
    nics = make_nics(sim, bus, 3)
    received = []
    nics[2].set_rx_handler(lambda f, t: received.append((f.src, t)))
    # Both stations queue at t=0: they wake together and collide.
    nics[0].send(EthernetFrame(src=0, dst=2, payload_size=1000))
    nics[1].send(EthernetFrame(src=1, dst=2, payload_size=1000))
    sim.run()
    assert len(received) == 2
    assert bus.stats.collisions >= 1
    assert bus.stats.frames_delivered == 2
    # Both frames got through despite the collision.
    assert sorted(f for f, _ in received) == [0, 1]


def test_carrier_sense_defers_second_sender(sim, bus):
    nics = make_nics(sim, bus, 3)
    times = []
    nics[2].set_rx_handler(lambda f, t: times.append((f.src, t)))

    def late_sender(sim):
        # Send mid-way through station 0's transmission.
        yield sim.timeout(0.0005)
        nics[1].send(EthernetFrame(src=1, dst=2, payload_size=1000))

    nics[0].send(EthernetFrame(src=0, dst=2, payload_size=1500))
    sim.process(late_sender(sim))
    sim.run()
    assert [src for src, _ in times] == [0, 1]
    assert bus.stats.collisions == 0


def test_bus_utilization_accounting(sim, bus):
    nics = make_nics(sim, bus, 2)
    frame = EthernetFrame(src=0, dst=1, payload_size=1500)
    for _ in range(10):
        nics[0].send(frame)
    sim.run()
    expected_busy = 10 * frame.wire_bits / bus.bandwidth_bps
    assert bus.stats.busy_time == pytest.approx(expected_busy)
    assert 0 < bus.stats.utilization(sim.now) <= 1.0


def test_many_senders_all_frames_eventually_delivered(sim, bus):
    n = 8
    nics = make_nics(sim, bus, n)
    count = [0]
    bus.add_listener(lambda f, t: count.__setitem__(0, count[0] + 1))
    for i in range(n):
        for _ in range(5):
            nics[i].send(EthernetFrame(src=i, dst=(i + 1) % n, payload_size=500))
    sim.run()
    assert count[0] == n * 5
    assert bus.stats.frames_dropped == 0


def test_nic_rejects_wrong_source(sim, bus):
    nics = make_nics(sim, bus, 2)
    with pytest.raises(ValueError):
        nics[0].send(EthernetFrame(src=1, dst=0, payload_size=64))


def test_duplicate_station_id_rejected(sim, bus):
    Nic(sim, bus, 7)
    with pytest.raises(ValueError):
        Nic(sim, bus, 7)


def test_nic_stats(sim, bus):
    nics = make_nics(sim, bus, 2)
    nics[0].send(EthernetFrame(src=0, dst=1, payload_size=100))
    sim.run()
    assert nics[0].stats.frames_sent == 1
    assert nics[0].stats.bytes_sent == 118
    assert nics[1].stats.frames_received == 1
    assert nics[1].stats.bytes_received == 118


def test_deterministic_given_seed():
    def run_once():
        sim = Simulator()
        bus = EthernetBus(sim, seed=42)
        nics = [Nic(sim, bus, i) for i in range(4)]
        times = []
        bus.add_listener(lambda f, t: times.append((t, f.src)))
        for i in range(4):
            for _ in range(3):
                nics[i].send(EthernetFrame(src=i, dst=(i + 1) % 4, payload_size=800))
        sim.run()
        return times

    assert run_once() == run_once()


# -- MAC correctness regressions ------------------------------------------

def _overlaps(deliveries):
    """Given (start, end, src) transmission intervals, return overlapping pairs."""
    deliveries = sorted(deliveries)
    return [
        (a, b)
        for a, b in zip(deliveries, deliveries[1:])
        if b[0] < a[1] - 1e-15
    ]


def test_sensor_at_window_close_defers_instead_of_colliding(sim, bus):
    """A station whose wake event lands exactly when another station's
    contention window closes — ordered before the winner's resume — must
    treat the medium as busy: the sole transmitter is already determined
    even though it has not yet raised the busy deadline."""
    for s in range(3):
        bus.attach(s, lambda f, t: None)
    deliveries = []
    bus.add_listener(lambda f, t: deliveries.append((t - bus.tx_time(f), t, f.src)))

    def boundary_sensor(sid):
        # Scheduled before station 0 starts, waking exactly at the close
        # of station 0's contention window.
        yield sim.timeout(bus.contention_window)
        yield from bus.transmit(EthernetFrame(src=sid, dst=2, payload_size=1500))

    def opener(sid):
        yield from bus.transmit(EthernetFrame(src=sid, dst=2, payload_size=1500))

    sim.process(boundary_sensor(1))  # created first: earlier event sequence
    sim.process(opener(0))
    sim.run()

    assert bus.stats.frames_delivered == 2
    # The winner was already determined: no collision, no overlap, and
    # the deferring station's frame follows the winner's.
    assert bus.stats.collisions == 0
    assert not _overlaps(deliveries)
    assert [src for _, _, src in sorted(deliveries)] == [0, 1]


def test_delivered_frames_never_overlap_under_contention():
    """Property regression for the carrier-sense gap: whatever the
    contention pattern — jittered, simultaneous, or boundary-aligned
    starts — two delivered frames never occupy the wire at once."""
    import random as _random

    for trial in range(25):
        sim = Simulator()
        bus = EthernetBus(sim, seed=trial)
        deliveries = []
        bus.add_listener(
            lambda f, t: deliveries.append((t - bus.tx_time(f), t, f.src))
        )
        n = 6
        for s in range(n):
            bus.attach(s, lambda f, t: None)
        rng = _random.Random(900 + trial)
        cw = bus.contention_window
        aligned = [0.0, cw, cw / 2, 2 * cw, cw + bus.jam_time, bus.ifg_time]

        def station(sid):
            for _ in range(6):
                if rng.random() < 0.5:
                    yield sim.timeout(rng.choice(aligned))
                else:
                    yield sim.timeout(rng.random() * 0.002)
                frame = EthernetFrame(
                    src=sid, dst=(sid + 1) % n,
                    payload_size=rng.choice([40, 600, 1500]),
                )
                yield from bus.transmit(frame)

        for s in range(n):
            sim.process(station(s))
        sim.run()
        assert len(deliveries) == n * 6
        assert not _overlaps(deliveries), f"trial {trial}"


def test_jam_time_counted_in_busy_time(sim, bus):
    """Post-collision jam signal occupies the medium: utilization() must
    not undercount congested runs (the jam is real signal, the IFG is
    not — see BusStats)."""
    nics = make_nics(sim, bus, 3)
    frame = EthernetFrame(src=0, dst=2, payload_size=1000)
    nics[0].send(EthernetFrame(src=0, dst=2, payload_size=1000))
    nics[1].send(EthernetFrame(src=1, dst=2, payload_size=1000))
    sim.run()
    assert bus.stats.collisions >= 1
    tx_total = 2 * frame.wire_bits / bus.bandwidth_bps
    # At least one jam interval beyond the frames themselves, and no
    # more than two jams (one per station) per collision round.
    assert bus.stats.busy_time >= tx_total + bus.jam_time - 1e-12
    assert bus.stats.busy_time <= tx_total + 2 * bus.stats.collisions * bus.jam_time
