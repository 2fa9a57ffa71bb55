"""Unit tests for spectral analysis, modality, and Hurst estimation."""

import numpy as np
import pytest

from repro.analysis import (
    BandwidthSeries,
    Spectrum,
    find_peaks,
    fundamental_frequency,
    harmonic_energy_ratio,
    hurst_aggregated_variance,
    hurst_rs,
    is_trimodal,
    mode_fractions,
    power_spectrum,
    size_modes,
    spectral_concentration,
    spectral_flatness,
)
from repro.capture import PacketTrace


def sine_series(freqs_amps, fs=100.0, duration=40.0, offset=50.0, noise=0.0, seed=0):
    t = np.arange(0, duration, 1.0 / fs)
    x = np.full_like(t, offset)
    for f, a in freqs_amps:
        x = x + a * np.sin(2 * np.pi * f * t)
    if noise:
        x = x + np.random.default_rng(seed).normal(0, noise, len(t))
    return BandwidthSeries(0.0, 1.0 / fs, x)


class TestPowerSpectrum:
    def test_pure_tone_peak_location(self):
        series = sine_series([(5.0, 10.0)])
        spec = power_spectrum(series)
        peak_f = spec.freqs[np.argmax(spec.power)]
        assert peak_f == pytest.approx(5.0, abs=spec.resolution)

    def test_detrend_removes_dc(self):
        series = sine_series([(5.0, 1.0)], offset=1000.0)
        spec = power_spectrum(series, detrend=True)
        assert spec.power[0] == pytest.approx(0.0, abs=1e-12)

    def test_no_detrend_keeps_dc(self):
        series = sine_series([], offset=10.0)
        spec = power_spectrum(series, detrend=False)
        assert spec.power[0] > 0

    def test_parseval(self):
        # sum of periodogram power equals the signal's sum of squares / n
        series = sine_series([(3.0, 2.0), (7.0, 1.0)], noise=0.5)
        x = series.values - series.values.mean()
        spec = power_spectrum(series)
        n = len(x)
        # one-sided: double the interior bins
        total = spec.power[0] + spec.power[-1] + 2 * spec.power[1:-1].sum()
        if n % 2:  # odd n: last bin is interior too
            total = spec.power[0] + 2 * spec.power[1:].sum()
        assert total == pytest.approx(np.sum(x**2), rel=1e-9)

    def test_band_and_without_dc(self):
        series = sine_series([(5.0, 1.0)])
        spec = power_spectrum(series)
        band = spec.band(4.0, 6.0)
        assert band.freqs.min() >= 4.0 and band.freqs.max() < 6.0
        assert spec.without_dc().freqs[0] > 0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            power_spectrum(BandwidthSeries(0, 0.01, np.array([1.0])))


class TestPeaks:
    def test_finds_both_tones_strongest_first(self):
        series = sine_series([(5.0, 10.0), (12.0, 4.0)])
        spec = power_spectrum(series)
        peaks = find_peaks(spec, k=2)
        assert peaks[0][0] == pytest.approx(5.0, abs=spec.resolution)
        assert peaks[1][0] == pytest.approx(12.0, abs=spec.resolution)

    def test_prominence_filters_noise(self):
        series = sine_series([(5.0, 10.0)], noise=0.1, seed=3)
        spec = power_spectrum(series)
        peaks = find_peaks(spec, min_prominence=0.2)
        assert len(peaks) == 1

    def test_empty_for_tiny_spectrum(self):
        spec = Spectrum(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 2.0)
        assert find_peaks(spec) == []

    def test_band_keeps_its_first_bin(self):
        # A band above 0 Hz has no DC bin: its strongest bin, the second,
        # is a local maximum and must be reported.
        freqs = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        power = np.array([0.0, 1.0, 5.0, 2.0, 3.0, 0.5])
        band = Spectrum(freqs, power, 10.0).band(0.5, 3.0)
        assert find_peaks(band, k=1, min_prominence=0.0) == [(1.0, 5.0)]


class TestFundamental:
    def test_simple_fundamental(self):
        series = sine_series([(4.0, 10.0)])
        spec = power_spectrum(series)
        assert fundamental_frequency(spec) == pytest.approx(4.0, abs=spec.resolution)

    def test_prefers_fundamental_over_strong_harmonic(self):
        # second harmonic stronger than the fundamental
        series = sine_series([(3.0, 4.0), (6.0, 10.0), (9.0, 3.0), (12.0, 2.0)])
        spec = power_spectrum(series)
        f0 = fundamental_frequency(spec)
        assert f0 == pytest.approx(3.0, abs=spec.resolution)

    def test_empty_spectrum(self):
        spec = Spectrum(np.array([0.0, 1.0]), np.array([0.0, 0.0]), 2.0)
        assert fundamental_frequency(spec) == 0.0


class TestSpikiness:
    def test_flatness_low_for_tone_high_for_noise(self):
        tone = power_spectrum(sine_series([(5.0, 10.0)], noise=0.01, seed=1))
        noise = power_spectrum(sine_series([], noise=1.0, seed=2))
        assert spectral_flatness(tone) < 0.1
        assert spectral_flatness(noise) > 0.4

    def test_concentration_high_for_line_spectrum(self):
        tone = power_spectrum(sine_series([(5.0, 10.0)], noise=0.01, seed=1))
        noise = power_spectrum(sine_series([], noise=1.0, seed=2))
        assert spectral_concentration(tone, k=5) > 0.9
        assert spectral_concentration(noise, k=5) < 0.2

    def test_harmonic_energy_ratio(self):
        series = sine_series([(5.0, 5.0), (10.0, 3.0), (15.0, 2.0)], noise=0.05)
        spec = power_spectrum(series)
        assert harmonic_energy_ratio(spec, 5.0) > 0.9
        assert harmonic_energy_ratio(spec, 0.0) == 0.0


class TestModality:
    def tri_trace(self):
        rows = []
        t = 0.0
        for _ in range(100):
            for size in (1518, 1518, 646, 58):
                rows.append((t, size, 0, 1, 6, 0))
                t += 0.001
        return PacketTrace.from_rows(rows)

    def test_trimodal_detected(self):
        tr = self.tri_trace()
        modes = size_modes(tr)
        assert {s for s, _ in modes} == {1518, 646, 58}
        assert is_trimodal(tr)

    def test_unimodal_not_trimodal(self):
        rows = [(i * 0.001, 90, 0, 1, 6, 0) for i in range(100)]
        assert not is_trimodal(PacketTrace.from_rows(rows))

    def test_mode_fractions_sum_below_one(self):
        fr = mode_fractions(self.tri_trace())
        assert sum(f for _, f in fr) == pytest.approx(1.0)
        assert fr[0][0] == 1518  # most common first

    def test_nearby_sizes_merge(self):
        rows = [(i * 0.001, 640 + (i % 3) * 10, 0, 1, 6, 0) for i in range(90)]
        modes = size_modes(PacketTrace.from_rows(rows))
        assert len(modes) == 1

    def test_empty_trace(self):
        assert size_modes(PacketTrace.empty()) == []


class TestHurst:
    def test_white_noise_near_half(self):
        x = np.random.default_rng(5).normal(0, 1, 8192)
        h = hurst_aggregated_variance(x)
        assert 0.35 < h < 0.65

    def test_rs_white_noise(self):
        x = np.random.default_rng(6).normal(0, 1, 8192)
        h = hurst_rs(x)
        assert 0.4 < h < 0.7

    def test_persistent_series_high_h(self):
        # integrated noise (random walk increments smoothed) is persistent
        rng = np.random.default_rng(7)
        steps = rng.normal(0, 1, 8192)
        smooth = np.convolve(steps, np.ones(64) / 64, mode="same")
        h = hurst_aggregated_variance(smooth)
        # clearly more persistent than white noise's ~0.5
        assert h > 0.7

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            hurst_aggregated_variance(np.zeros(10))
        with pytest.raises(ValueError):
            hurst_rs(np.zeros(10))
