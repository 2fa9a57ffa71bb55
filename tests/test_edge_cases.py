"""Edge-case coverage across the stack: DES condition composition,
MAC drops, TCP parameterizations, spectral corner cases, CLI plot."""

import numpy as np
import pytest

from repro.analysis import (
    BandwidthSeries,
    Spectrum,
    SummaryStats,
    harmonic_energy_ratio,
    power_spectrum,
    spectral_concentration,
    spectral_flatness,
)
from repro.des import Simulator
from repro.net import EthernetBus, EthernetFrame, Nic
from repro.transport import HostStack


@pytest.fixture
def sim():
    return Simulator()


class TestDesComposition:
    def test_nested_conditions(self, sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(2.0, value="b")
        t3 = sim.timeout(3.0, value="c")
        inner = sim.all_of([t1, t2])
        outer = sim.all_of([inner, t3])
        results = []

        def waiter(sim):
            val = yield outer
            results.append((sim.now, val))

        sim.process(waiter(sim))
        sim.run()
        # the inner AllOf completes at t=2; the outer one waits for t3
        assert results == [(3.0, {0: {0: "a", 1: "b"}, 1: "c"})]

    def test_process_waits_on_condition_of_processes(self, sim):
        def worker(sim, d):
            yield sim.timeout(d)
            return d

        procs = [sim.process(worker(sim, d)) for d in (1.0, 2.0, 0.5)]
        done = []

        def collector(sim):
            vals = yield sim.all_of(procs)
            done.append((sim.now, sorted(vals.values())))

        sim.process(collector(sim))
        sim.run()
        assert done == [(2.0, [0.5, 1.0, 2.0])]


class TestMacDrops:
    def test_finite_max_attempts_can_drop(self):
        sim = Simulator()
        # absurdly strict: a single collision drops the frame
        bus = EthernetBus(sim, max_attempts=1, seed=5)
        nics = [Nic(sim, bus, i) for i in range(3)]
        got = []
        nics[2].set_rx_handler(lambda f, t: got.append(f.src))
        nics[0].send(EthernetFrame(src=0, dst=2, payload_size=500))
        nics[1].send(EthernetFrame(src=1, dst=2, payload_size=500))
        sim.run()
        assert bus.stats.frames_dropped >= 1
        assert len(got) + bus.stats.frames_dropped == 2

    def test_infinite_retries_never_drop(self):
        sim = Simulator()
        bus = EthernetBus(sim, seed=5)  # default: never drop
        nics = [Nic(sim, bus, i) for i in range(4)]
        for i in range(3):
            for _ in range(10):
                nics[i].send(EthernetFrame(src=i, dst=3, payload_size=1000))
        sim.run()
        assert bus.stats.frames_dropped == 0
        assert bus.stats.frames_delivered == 30


class TestTcpParameterizations:
    def build(self, **kwargs):
        sim = Simulator()
        bus = EthernetBus(sim, seed=8)
        stacks = [HostStack(sim, Nic(sim, bus, i), i) for i in range(2)]
        conn = stacks[0].connect(stacks[1], **kwargs)
        return sim, bus, conn

    def test_custom_mss(self):
        sim, bus, conn = self.build(mss=500)
        sizes = []
        bus.add_listener(lambda f, t: sizes.append(f.size) if f.src == 0 else None)
        conn.forward.send(2000)
        sim.run()
        # 4 x 500-byte segments (558-byte frames)
        assert sizes == [558, 558, 558, 558]

    def test_tiny_window_still_completes(self):
        sim, bus, conn = self.build(window=1000)
        conn.forward.send(50_000, obj="big")
        done = []

        def rx(sim):
            msg = yield conn.forward.mailbox.get()
            done.append(msg.nbytes)

        sim.process(rx(sim))
        sim.run()
        assert done == [50_000]

    def test_custom_delayed_ack_timeout(self):
        sim, bus, conn = self.build(delayed_ack_timeout=0.05)
        acks = []
        bus.add_listener(
            lambda f, t: acks.append(t) if f.src == 1 and f.size == 58 else None
        )
        conn.forward.send(100)
        sim.run()
        assert len(acks) == 1
        assert 0.05 <= acks[0] < 0.2

    def test_ack_every_one(self):
        sim, bus, conn = self.build(ack_every=1)
        acks = [0]
        bus.add_listener(
            lambda f, t: acks.__setitem__(0, acks[0] + 1)
            if f.src == 1 and f.size == 58 else None
        )
        conn.forward.send(1460 * 4)
        sim.run()
        assert acks[0] == 4  # one per segment


class TestSpectralEdges:
    def test_constant_signal_spectrum(self):
        series = BandwidthSeries(0.0, 0.01, np.full(64, 5.0))
        spec = power_spectrum(series)
        assert spec.without_dc().power.max() == pytest.approx(0.0, abs=1e-18)
        assert spectral_concentration(spec) == 0.0

    def test_flatness_of_zero_signal(self):
        series = BandwidthSeries(0.0, 0.01, np.zeros(64))
        spec = power_spectrum(series)
        assert spectral_flatness(spec) == 1.0

    def test_harmonic_ratio_degenerate(self):
        spec = Spectrum(np.array([0.0]), np.array([0.0]), 1.0)
        assert harmonic_energy_ratio(spec, 1.0) == 0.0

    def test_band_empty(self):
        series = BandwidthSeries(0.0, 0.01, np.arange(64, dtype=float))
        spec = power_spectrum(series)
        band = spec.band(1000.0, 2000.0)
        assert len(band) == 0

    def test_mismatched_spectrum_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(np.zeros(3), np.zeros(4), 1.0)

    def test_summary_stats_single_value(self):
        s = SummaryStats.of(np.array([7.0]))
        assert s.min == s.max == s.avg == 7.0
        assert s.sd == 0.0


class TestCliPlot:
    def test_plot_flag_renders_series(self, capsys):
        from repro.__main__ import main

        assert main(["run", "fig6", "--scale", "smoke", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "#" in out  # ASCII bars rendered
        assert "sor-aggregate" in out


class TestPvmEdges:
    def test_send_overhead_zero(self):
        from repro.des import Simulator
        from repro.net import EthernetBus, Nic
        from repro.pvm import PvmMessage, VirtualMachine
        from repro.transport import HostStack

        sim = Simulator()
        bus = EthernetBus(sim, seed=2)
        stacks = [HostStack(sim, Nic(sim, bus, i), i) for i in range(2)]
        vm = VirtualMachine(sim, stacks, send_overhead=0.0)
        t0, t1 = vm.spawn(0), vm.spawn(1)

        def go(sim):
            yield from vm.send(t0, t1, PvmMessage(obj="x").pack(10))

        sim.process(go(sim))
        sim.run()
        assert t1.mailbox.items[0].obj == "x"

    def test_empty_message_delivered(self):
        from repro.des import Simulator
        from repro.net import EthernetBus, Nic
        from repro.pvm import MSG_HEADER, PvmMessage, VirtualMachine
        from repro.transport import HostStack

        sim = Simulator()
        bus = EthernetBus(sim, seed=2)
        sizes = []
        bus.add_listener(lambda f, t: sizes.append(f.size))
        stacks = [HostStack(sim, Nic(sim, bus, i), i) for i in range(2)]
        vm = VirtualMachine(sim, stacks)
        t0, t1 = vm.spawn(0), vm.spawn(1)

        def go(sim):
            yield from vm.send(t0, t1, PvmMessage(obj="hdr-only"))

        sim.process(go(sim))
        sim.run()
        # just the 24-byte header rides the wire (+58 overhead)
        assert (MSG_HEADER + 58) in sizes
        assert t1.mailbox.items[0].nbytes == 0
