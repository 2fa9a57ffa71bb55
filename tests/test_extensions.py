"""Tests for extension features: traffic matrices, admission control,
trace concat, model persistence."""

import numpy as np
import pytest

from repro.analysis import (
    BandwidthSeries,
    active_connections,
    connection_table,
    traffic_matrix,
)
from repro.capture import PacketTrace
from repro.core import Network, SpectralModel, TrafficCharacterization
from repro.fx import Pattern, connectivity_matrix


def trace_of(rows):
    return PacketTrace.from_rows(rows)


class TestTrafficMatrix:
    def test_bytes_accumulate(self):
        tr = trace_of([
            (0.0, 100, 0, 1, 6, 0),
            (0.1, 200, 0, 1, 6, 0),
            (0.2, 50, 2, 0, 6, 1),
        ])
        m = traffic_matrix(tr, n_hosts=3)
        assert m[0, 1] == 300
        assert m[2, 0] == 50
        assert m.sum() == 350

    def test_empty_trace(self):
        m = traffic_matrix(PacketTrace.empty(), n_hosts=4)
        assert m.shape == (4, 4)
        assert m.sum() == 0

    def test_matches_pattern_connectivity(self):
        from repro.programs import run_measured

        tr = run_measured("hist", scale="smoke", seed=1).kind(0)
        m = traffic_matrix(tr, n_hosts=4)
        expected = connectivity_matrix(Pattern.TREE, 4)
        assert np.array_equal((m > 0).astype(np.int8), expected)

    def test_broadcast_bytes_stay_out_of_the_matrix(self):
        tr = trace_of([
            (0.0, 100, 0, -1, 6, 0),
            (0.1, 200, 0, 2, 6, 0),
        ])
        m = traffic_matrix(tr)
        assert m.shape == (3, 3)
        assert m[0, 2] == 200
        assert m.sum() == 200
        assert connection_table(tr) == [(0, 2, 1, 200), (0, -1, 1, 100)]

    def test_connection_table_sorted_by_bytes(self):
        tr = trace_of([
            (0.0, 100, 0, 1, 6, 0),
            (0.1, 5000, 2, 3, 6, 0),
        ])
        table = connection_table(tr)
        assert table[0][:2] == (2, 3)
        assert table[0][3] == 5000

    def test_active_connections_threshold(self):
        tr = trace_of([
            (0.0, 100, 0, 1, 6, 0),
            (0.1, 5000, 2, 3, 6, 0),
        ])
        assert active_connections(tr, min_bytes=1000) == [(2, 3)]


class TestAdmission:
    def char(self, name="app", volume=1e6):
        return TrafficCharacterization(
            name=name,
            pattern=Pattern.ALL_TO_ALL,
            local_time=lambda P: 10.0 / P,
            burst_bytes=lambda P: volume / (P * P),
        )

    def test_admit_commits_mean_bandwidth(self):
        net = Network(capacity=1.25e6)
        before = net.available
        result = net.admit(self.char("a"))
        assert net.available == pytest.approx(
            before - result.chosen.mean_bandwidth
        )

    def test_sequential_admission_reduces_offers(self):
        net = Network(capacity=1.25e6)
        r1 = net.admit(self.char("a", volume=8e6))
        r2 = net.admit(self.char("b", volume=8e6))
        # the second program sees a poorer network
        assert r2.chosen.burst_interval >= r1.chosen.burst_interval

    def test_admission_failure_when_service_floor_unmet(self):
        net = Network(capacity=1e4)
        greedy = TrafficCharacterization(
            name="greedy",
            pattern=Pattern.ALL_TO_ALL,
            local_time=lambda P: 0.0,
            burst_bytes=lambda P: 1e9,
        )
        net.commit("other", 8.9e3)  # 100 B/s left
        with pytest.raises(ValueError):
            net.admit(greedy, min_burst_bandwidth=1e3)

    def test_admission_respects_service_floor(self):
        net = Network(capacity=1.25e6)
        result = net.admit(self.char("a"), min_burst_bandwidth=50e3)
        assert result.chosen.burst_bandwidth >= 50e3

    def test_mean_bandwidth_positive_on_curve(self):
        net = Network()
        result = net.negotiate(self.char())
        assert all(p.mean_bandwidth > 0 for p in result.curve)

    def test_release_restores_capacity(self):
        net = Network(capacity=1.25e6)
        net.admit(self.char("a"))
        net.release("a")
        assert net.available == pytest.approx(1.25e6 * net.efficiency)


class TestTraceConcat:
    def test_concat_sorts_by_time(self):
        a = trace_of([(0.5, 100, 0, 1, 6, 0), (1.5, 100, 0, 1, 6, 0)])
        b = trace_of([(0.0, 200, 2, 3, 6, 0), (1.0, 200, 2, 3, 6, 0)])
        merged = PacketTrace.concat([a, b])
        assert len(merged) == 4
        assert np.all(np.diff(merged.times) >= 0)
        assert merged.sizes.tolist() == [200, 100, 200, 100]

    def test_concat_empty_list(self):
        assert len(PacketTrace.concat([])) == 0

    def test_concat_preserves_totals(self):
        a = trace_of([(0.0, 100, 0, 1, 6, 0)])
        b = trace_of([(0.0, 250, 0, 1, 6, 0)])
        assert PacketTrace.concat([a, b]).total_bytes == 350


class TestModelPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        series = BandwidthSeries(
            0.0, 0.01,
            100 + 50 * np.sin(2 * np.pi * 3 * np.arange(500) * 0.01),
        )
        model = SpectralModel.fit(series, n_spikes=3)
        path = tmp_path / "model.json"
        model.save(path)
        back = SpectralModel.load(path)
        t = np.linspace(0, 5, 100)
        assert np.allclose(back.reconstruct(t), model.reconstruct(t))
        assert back.mean == model.mean
