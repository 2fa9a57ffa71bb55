"""Column-built traces, int64 connection keys and one-call series export
against the per-packet reference implementations they replaced.

Each ``ref_*`` function below is the row-at-a-time body the library
used before it built traces from columns.  They stay here as oracles:
the vectorized code must reproduce them bit for bit, because trace
digests and every exported series byte depend on it.
"""

from itertools import combinations
from typing import List

import numpy as np
import pytest

from repro.analysis import binned_bandwidth, connection_table
from repro.baselines import (
    OnOffTraffic,
    PoissonTraffic,
    SelfSimilarTraffic,
    VbrVideoTraffic,
)
from repro.capture import KIND_TCP_DATA, PacketTrace, bin_slots, trace_digest
from repro.core import (
    SpectralModel,
    SpectralTrafficGenerator,
    Spike,
    connection_correlation,
)
from repro.fx import Pattern
from repro.harness import Artifact, export_artifact
from repro.transport import PROTO_TCP

SEEDS = range(20)


# ---------------------------------------------------------------------------
# Reference implementations: one Python row tuple per packet
# ---------------------------------------------------------------------------

def ref_poisson(self, duration, src=0, dst=1):
    n_expected = self.rate * duration
    n = self.rng.poisson(n_expected)
    if n == 0:
        return PacketTrace.empty()
    times = np.sort(self.rng.uniform(0.0, duration, n))
    sizes = np.clip(
        self.rng.exponential(self.mean_size, n),
        self.min_size,
        self.max_size,
    ).astype(np.uint32)
    rows = [
        (float(t), int(s), src, dst, PROTO_TCP, KIND_TCP_DATA)
        for t, s in zip(times, sizes)
    ]
    return PacketTrace.from_rows(rows)


def ref_onoff(self, duration, src=0, dst=1):
    rows = []
    t = 0.0
    on = self.rng.random() < self.duty_cycle
    while t < duration:
        if on:
            burst_len = self.rng.exponential(self.on_mean)
            end = min(t + burst_len, duration)
            spacing = 1.0 / self.on_rate
            pkt_t = t + self.rng.uniform(0, spacing)
            while pkt_t < end:
                rows.append(
                    (pkt_t, self.packet_size, src, dst, PROTO_TCP, KIND_TCP_DATA)
                )
                pkt_t += spacing
            t = end
        else:
            t += self.rng.exponential(self.off_mean)
        on = not on
    if not rows:
        return PacketTrace.empty()
    return PacketTrace.from_rows(rows)


def ref_selfsimilar(self, duration, src=0, dst=1):
    env = self.bandwidth_envelope(duration)
    rows = []
    carry = 0.0
    for i, bw in enumerate(env):
        budget = bw * self.dt + carry
        n_pkts = int(budget // self.packet_size)
        carry = budget - n_pkts * self.packet_size
        if n_pkts == 0:
            continue
        start = i * self.dt
        offsets = (np.arange(n_pkts) + 0.5) * (self.dt / n_pkts)
        for off in offsets:
            rows.append(
                (start + off, self.packet_size, src, dst,
                 PROTO_TCP, KIND_TCP_DATA)
            )
    if not rows:
        return PacketTrace.empty()
    return PacketTrace.from_rows(rows)


def ref_video(self, duration, src=0, dst=1):
    n_frames = max(2, int(duration * self.fps))
    sizes = self.frame_sizes(n_frames)
    frame_period = 1.0 / self.fps
    rows = []
    for i, frame_bytes in enumerate(sizes):
        t = i * frame_period
        remaining = int(frame_bytes)
        offset = 0.0
        while remaining > 0:
            pkt = min(self.packet_size, remaining)
            rows.append(
                (t + offset, pkt, src, dst, PROTO_TCP, KIND_TCP_DATA)
            )
            remaining -= pkt
            offset += 0.00125
    return PacketTrace.from_rows(rows)


def ref_spectral(self, duration, dt=0.010, t0=0.0):
    n_bins = int(np.ceil(duration / dt))
    starts = t0 + dt * np.arange(n_bins)
    demand = self.model.reconstruct(starts, clip=True) * 1024.0 * dt
    if self.normalize_volume and demand.mean() > 0:
        target = max(self.model.mean, 0.0) * 1024.0 * dt
        demand = demand * (target / demand.mean())
    rows = []
    carry = 0.0
    pair_idx = 0
    n_pairs = len(self.pairs)
    for start, want in zip(starts, demand):
        budget = want + carry
        sizes: List[int] = []
        while budget >= self.packet_size:
            sizes.append(self.packet_size)
            budget -= self.packet_size
        if budget >= self.min_packet:
            sizes.append(int(budget))
            budget -= int(budget)
        carry = budget
        if not sizes:
            continue
        offsets = (np.arange(len(sizes)) + 0.5) * (dt / len(sizes))
        for off, size in zip(offsets, sizes):
            src, dst = self.pairs[pair_idx % n_pairs]
            pair_idx += 1
            rows.append(
                (start + off, size, src, dst, PROTO_TCP, KIND_TCP_DATA)
            )
    if not rows:
        return PacketTrace.empty()
    return PacketTrace.from_rows(rows)


def ref_connections(trace):
    pairs = np.unique(np.stack([trace.srcs, trace.dsts], axis=1), axis=0)
    return [tuple(int(x) for x in row) for row in pairs]


def ref_connection_table(trace):
    rows = []
    for src, dst in ref_connections(trace):
        conn = trace.connection(src, dst)
        rows.append((src, dst, len(conn), conn.total_bytes))
    rows.sort(key=lambda r: r[3], reverse=True)
    return rows


def ref_connection_correlation(trace, pairs=None, bin_width=0.050,
                               min_packets=4):
    if pairs is None:
        pairs = ref_connections(trace)
    if len(trace) < 2:
        return float("nan")
    t0 = float(trace.times[0])
    t1 = float(trace.times[-1]) + bin_width
    series = []
    for src, dst in pairs:
        conn = trace.connection(src, dst)
        if len(conn) < min_packets:
            continue
        s = binned_bandwidth(conn, bin_width, t0=t0, t1=t1)
        if s.values.std() > 0:
            series.append(s.values)
    if len(series) < 2:
        return float("nan")
    correlations = [
        float(np.corrcoef(x, y)[0, 1]) for x, y in combinations(series, 2)
    ]
    return float(np.mean(correlations))


def same(a: PacketTrace, b: PacketTrace) -> bool:
    return trace_digest(a) == trace_digest(b)


def same_float(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

class TestFromColumns:
    def test_scalars_broadcast_and_match_rows(self):
        rows = [(0.5, 100, 0, 1, 6, 0, 0), (0.25, 1518, 0, 1, 6, 0, 0)]
        cols = PacketTrace.from_columns([0.5, 0.25], [100, 1518], 0, 1, 6, 0)
        assert same(cols, PacketTrace.from_rows(rows))

    def test_every_column_as_an_array(self):
        rows = [(0.1, 60, 3, -1, 17, 2, 0), (0.2, 64, 2, 0, 6, 1, 1)]
        cols = PacketTrace.from_columns(*map(list, zip(*rows)))
        assert same(cols, PacketTrace.from_rows(rows))

    def test_no_packets(self):
        assert same(PacketTrace.from_columns([], 1, 0, 1, 6, 0),
                    PacketTrace.empty())


class TestBinSlots:
    def test_bins_and_ranks(self):
        bins, rank = bin_slots([2, 0, 3, 1])
        assert bins.tolist() == [0, 0, 2, 2, 2, 3]
        assert rank.tolist() == [0, 1, 0, 1, 2, 0]

    def test_all_empty(self):
        bins, rank = bin_slots([0, 0])
        assert len(bins) == len(rank) == 0


# ---------------------------------------------------------------------------
# The five traffic sources, bit for bit
# ---------------------------------------------------------------------------

class TestSourcesMatchRowLoops:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_poisson(self, seed):
        make = lambda: PoissonTraffic(rate=1500.0, seed=seed)  # noqa: E731
        assert same(make().generate(20.0), ref_poisson(make(), 20.0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_onoff(self, seed):
        make = lambda: OnOffTraffic(seed=seed)  # noqa: E731
        assert same(make().generate(60.0, 2, 3),
                    ref_onoff(make(), 60.0, 2, 3))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_selfsimilar(self, seed):
        src = SelfSimilarTraffic(seed=seed)
        assert same(src.generate(60.0), ref_selfsimilar(src, 60.0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_video(self, seed):
        src = VbrVideoTraffic(seed=seed)
        assert same(src.generate(60.0), ref_video(src, 60.0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spectral(self, seed):
        # A sparse, impulsive demand: clipping, residue packets and
        # carries across empty intervals all occur.
        series = binned_bandwidth(OnOffTraffic(seed=seed).generate(20.0), 0.010)
        gen = SpectralTrafficGenerator(SpectralModel.fit(series, n_spikes=20))
        assert same(gen.generate(20.0), ref_spectral(gen, 20.0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spectral_random_model(self, seed):
        rng = np.random.default_rng(seed)
        spikes = [Spike(float(f), float(a), float(p)) for f, a, p in zip(
            rng.uniform(0.1, 40.0, 8), rng.uniform(0.0, 400.0, 8),
            rng.uniform(-np.pi, np.pi, 8))]
        model = SpectralModel(mean=float(rng.uniform(50.0, 600.0)),
                              spikes=spikes)
        gen = SpectralTrafficGenerator(model, pattern=Pattern.ALL_TO_ALL,
                                       nprocs=4, normalize_volume=True)
        assert same(gen.generate(5.0, t0=1.5), ref_spectral(gen, 5.0, t0=1.5))

    def test_zero_packet_outcomes(self):
        assert len(PoissonTraffic(rate=1e-6).generate(1.0)) == 0
        assert same(PoissonTraffic(rate=1e-6).generate(1.0),
                    ref_poisson(PoissonTraffic(rate=1e-6), 1.0))
        # on/off: the first bursts end before their first packet
        src = lambda: OnOffTraffic(on_mean=1e-5, off_mean=1.0,  # noqa: E731
                                   on_rate=10.0, seed=1)
        assert len(src().generate(0.5)) == 0
        assert same(src().generate(0.5), ref_onoff(src(), 0.5))
        quiet = SelfSimilarTraffic(mean_bandwidth=1.0)
        assert len(quiet.generate(1.0)) == 0
        assert same(quiet.generate(1.0), ref_selfsimilar(quiet, 1.0))
        silent = SpectralTrafficGenerator(SpectralModel(mean=0.0, spikes=[]))
        assert len(silent.generate(1.0)) == 0
        assert same(silent.generate(1.0), ref_spectral(silent, 1.0))

    def test_single_bin(self):
        gen = SpectralTrafficGenerator(SpectralModel(mean=900.0, spikes=[]))
        assert same(gen.generate(0.010), ref_spectral(gen, 0.010))
        src = SelfSimilarTraffic(mean_bandwidth=2e6, seed=3)
        assert same(src.generate(0.005), ref_selfsimilar(src, 0.005))
        video = VbrVideoTraffic(fps=1.0, mean_frame_bytes=50_000.0, seed=4)
        assert same(video.generate(0.5), ref_video(video, 0.5))

    @pytest.mark.parametrize("pattern", [Pattern.TREE, Pattern.BROADCAST,
                                         Pattern.NEIGHBOR])
    def test_multi_pair_pattern(self, pattern):
        series = binned_bandwidth(OnOffTraffic(seed=5).generate(10.0), 0.010)
        model = SpectralModel.fit(series, n_spikes=10)
        for normalize in (False, True):
            gen = SpectralTrafficGenerator(model, pattern=pattern, nprocs=8,
                                           normalize_volume=normalize,
                                           packet_size=1024, min_packet=0)
            assert same(gen.generate(10.0, dt=0.02),
                        ref_spectral(gen, 10.0, dt=0.02))


# ---------------------------------------------------------------------------
# Connections from one int64 key
# ---------------------------------------------------------------------------

INT32_MIN, INT32_MAX = -2**31, 2**31 - 1


def random_trace(seed, hosts, n=400):
    rng = np.random.default_rng(seed)
    return PacketTrace.from_columns(
        np.sort(rng.uniform(0.0, 2.0, n)),
        rng.integers(58, 1519, n),
        rng.choice(hosts, n),
        rng.choice(hosts, n),
        PROTO_TCP,
        KIND_TCP_DATA,
    )


HOST_SETS = [
    [0, 1, 2, 3],
    [-1, 0, 1, 2, 5],                       # BROADCAST destinations
    [INT32_MIN, -1, 0, 1, INT32_MAX],       # int32 extremes
    [INT32_MIN, INT32_MIN + 1, INT32_MAX - 1, INT32_MAX],
]


class TestConnectionKeys:
    @pytest.mark.parametrize("hosts", HOST_SETS)
    @pytest.mark.parametrize("seed", range(5))
    def test_connections_match_record_sort(self, hosts, seed):
        trace = random_trace(seed, hosts)
        assert trace.connections() == ref_connections(trace)

    def test_broadcast_sorts_first(self):
        trace = PacketTrace.from_columns([0.0, 0.1, 0.2], 60,
                                         [0, 0, -1], [1, -1, -1], 6, 0)
        assert trace.connections() == [(-1, -1), (0, -1), (0, 1)]
        assert trace.connections() == ref_connections(trace)

    def test_empty(self):
        assert PacketTrace.empty().connections() == []
        assert PacketTrace.empty().by_connection() == {}

    @pytest.mark.parametrize("hosts", HOST_SETS)
    def test_groups_equal_masks(self, hosts):
        trace = random_trace(7, hosts)
        groups = trace.by_connection()
        assert list(groups) == ref_connections(trace)
        for (src, dst), conn in groups.items():
            assert same(conn, trace.connection(src, dst))

    @pytest.mark.parametrize("hosts", HOST_SETS)
    @pytest.mark.parametrize("seed", range(5))
    def test_connection_table(self, hosts, seed):
        # few distinct sizes, so byte totals tie and order must hold
        trace = random_trace(seed, hosts, n=60)
        trace = PacketTrace.from_columns(trace.times, 100, trace.srcs,
                                         trace.dsts, PROTO_TCP, KIND_TCP_DATA)
        assert connection_table(trace) == ref_connection_table(trace)

    @pytest.mark.parametrize("hosts", HOST_SETS)
    @pytest.mark.parametrize("seed", range(5))
    def test_connection_correlation(self, hosts, seed):
        trace = random_trace(seed, hosts)
        assert same_float(connection_correlation(trace),
                          ref_connection_correlation(trace))
        pairs = [(hosts[1], hosts[0]), (99, 98)] + trace.connections()[::-1]
        assert same_float(
            connection_correlation(trace, pairs=pairs, bin_width=0.1),
            ref_connection_correlation(trace, pairs=pairs, bin_width=0.1),
        )

    def test_correlation_on_generated_patterns(self):
        series = binned_bandwidth(OnOffTraffic(seed=2).generate(10.0), 0.010)
        gen = SpectralTrafficGenerator(SpectralModel.fit(series, 20),
                                       pattern=Pattern.ALL_TO_ALL, nprocs=4)
        trace = gen.generate(10.0)
        assert same_float(connection_correlation(trace),
                          ref_connection_correlation(trace))


# ---------------------------------------------------------------------------
# Series export: np.savetxt's bytes
# ---------------------------------------------------------------------------

SERIES = {
    "empty": ([], []),
    "nan-inf": ([0.0, 1.0, 2.0, 3.0], [np.nan, np.inf, -np.inf, -0.0]),
    "int x": ([1, 2, 3], [0.1, 2.5e-300, 1.7976931348623157e308]),
    "signed/zero": ([-0.0, -1e-5, 1e5], [5e-324, -2.2250738585072014e-308, 1.0]),
    "random": (np.arange(500) * 0.01, np.random.default_rng(0).normal(size=500)),
}


class TestSeriesExport:
    @pytest.mark.parametrize("name", list(SERIES))
    def test_bytes_match_savetxt(self, tmp_path, name):
        x, y = SERIES[name]
        art = Artifact("figX", "export oracle", series={name: (x, y)})
        root = export_artifact(art, tmp_path / "new")
        safe = name.replace("/", "_").replace(" ", "_")
        ref = tmp_path / "ref.dat"
        np.savetxt(ref, np.column_stack([np.asarray(x, dtype=float),
                                         np.asarray(y, dtype=float)]),
                   header=f"figX: {name}\ncolumns: x y")
        assert (root / f"{safe}.dat").read_bytes() == ref.read_bytes()
