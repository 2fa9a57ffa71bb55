"""Power spectra of bandwidth signals (paper Figures 7 and 11).

The paper computes the periodogram of the 10 ms-binned instantaneous
bandwidth over the whole trace and reads the program's periodicities off
its spikes.  :func:`power_spectrum` reproduces that; the helpers find
spikes and fundamentals and quantify how "spiky" (sparse) a spectrum is
— the property that makes the truncated-Fourier traffic model of
:mod:`repro.core.spectral_model` work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .bandwidth import BandwidthSeries

__all__ = [
    "Spectrum",
    "power_spectrum",
    "find_peaks",
    "fundamental_frequency",
    "spectral_flatness",
    "spectral_concentration",
    "harmonic_energy_ratio",
]


@dataclass
class Spectrum:
    """A one-sided power spectrum."""

    freqs: np.ndarray   # Hz, starting at 0 (DC)
    power: np.ndarray   # (KB/s)^2 per bin, paper-style periodogram
    sample_rate: float

    def __post_init__(self):
        if len(self.freqs) != len(self.power):
            raise ValueError("freqs and power must have equal length")

    def __len__(self) -> int:
        return len(self.freqs)

    @property
    def resolution(self) -> float:
        """Frequency spacing in Hz."""
        return float(self.freqs[1] - self.freqs[0]) if len(self.freqs) > 1 else 0.0

    def band(self, f0: float, f1: float) -> "Spectrum":
        """The sub-spectrum with f0 <= f < f1."""
        mask = (self.freqs >= f0) & (self.freqs < f1)
        return Spectrum(self.freqs[mask], self.power[mask], self.sample_rate)

    def without_dc(self) -> "Spectrum":
        return Spectrum(self.freqs[1:], self.power[1:], self.sample_rate)

    def total_power(self) -> float:
        return float(self.power.sum())


def power_spectrum(series: BandwidthSeries, detrend: bool = True) -> Spectrum:
    """Periodogram of a binned-bandwidth series.

    ``detrend`` removes the mean (the DC spike would otherwise dominate
    every plot); the DC bin then carries ~0 and the paper's harmonic
    structure stands out.
    """
    x = series.values.astype(np.float64)
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 samples for a spectrum")
    if detrend:
        x = x - x.mean()
    spec = np.fft.rfft(x)
    power = (np.abs(spec) ** 2) / n
    freqs = np.fft.rfftfreq(n, d=series.dt)
    return Spectrum(freqs, power, series.sample_rate)


def find_peaks(
    spectrum: Spectrum,
    k: Optional[int] = None,
    min_prominence: float = 0.05,
    exclude_dc: bool = True,
) -> List[Tuple[float, float]]:
    """Spectral spikes as (frequency, power), strongest first.

    A bin is a peak when it is a local maximum and its power is at least
    ``min_prominence`` times the strongest non-DC bin.  ``k`` limits the
    count.  ``exclude_dc`` skips the first bin only when it sits at 0 Hz:
    a :meth:`Spectrum.band` starting above 0 Hz has no DC bin to drop.
    """
    freqs, power = spectrum.freqs, spectrum.power
    start = 1 if exclude_dc and len(freqs) and freqs[0] == 0 else 0
    if len(power) - start < 3:
        return []
    p = power[start:]
    f = freqs[start:]
    interior = np.arange(1, len(p) - 1)
    is_max = (p[interior] >= p[interior - 1]) & (p[interior] > p[interior + 1])
    candidates = interior[is_max]
    if len(candidates) == 0:
        return []
    threshold = min_prominence * p.max()
    candidates = candidates[p[candidates] >= threshold]
    order = np.argsort(p[candidates])[::-1]
    peaks = [(float(f[i]), float(p[i])) for i in candidates[order]]
    return peaks[:k] if k is not None else peaks


def fundamental_frequency(
    spectrum: Spectrum,
    n_harmonics: int = 4,
    max_freq: Optional[float] = None,
) -> float:
    """Estimate the fundamental by harmonic summation.

    For each candidate peak frequency, sum the power at its first
    ``n_harmonics`` integer multiples; the candidate with the largest
    harmonic sum wins.  Robust against the common failure of picking a
    strong second harmonic.
    """
    peaks = find_peaks(spectrum, k=12)
    if not peaks:
        return 0.0
    freqs, power = spectrum.freqs, spectrum.power
    df = spectrum.resolution
    if df == 0:
        return peaks[0][0]
    best_f, best_score = 0.0, -1.0
    # Candidates below ~3 spectral bins correspond to fewer than three
    # periods in the whole trace — trace-length artifacts, not program
    # periodicity.
    min_freq = 3 * df
    for f0, _p in peaks:
        if f0 < min_freq or (max_freq is not None and f0 > max_freq):
            continue
        score = 0.0
        for h in range(1, n_harmonics + 1):
            idx = int(round(h * f0 / df))
            if 0 < idx < len(power):
                lo, hi = max(1, idx - 1), min(len(power), idx + 2)
                score += power[lo:hi].max()
        # prefer lower fundamentals on near-ties (sub-harmonic ambiguity)
        if score > best_score * 1.05:
            best_f, best_score = f0, score
    return best_f


def spectral_flatness(spectrum: Spectrum) -> float:
    """Geometric / arithmetic mean power ratio in (0, 1].

    Near 1 for white noise (Poisson traffic), near 0 for the spiky
    line spectra of the Fx programs.
    """
    p = spectrum.without_dc().power
    p = p[p > 0]
    if len(p) == 0:
        return 1.0
    log_gm = np.mean(np.log(p))
    am = np.mean(p)
    return float(np.exp(log_gm) / am)


def spectral_concentration(spectrum: Spectrum, k: int = 20) -> float:
    """Fraction of total (non-DC) power in the ``k`` strongest bins.

    The paper's "sparse and spiky" observation, quantified: Fx programs
    concentrate most bandwidth variance in a handful of bins.
    """
    p = spectrum.without_dc().power
    if len(p) == 0:
        return 0.0
    total = p.sum()
    if total == 0:
        return 0.0
    top = np.sort(p)[::-1][:k]
    return float(top.sum() / total)


def harmonic_energy_ratio(spectrum: Spectrum, f0: float, n_harmonics: int = 10,
                          tol_bins: int = 1) -> float:
    """Fraction of non-DC power within ``tol_bins`` of multiples of f0."""
    sp = spectrum.without_dc()
    if len(sp.power) == 0 or f0 <= 0 or sp.resolution == 0:
        return 0.0
    total = sp.power.sum()
    if total == 0:
        return 0.0
    df = spectrum.resolution
    covered = np.zeros(len(spectrum.power), dtype=bool)
    for h in range(1, n_harmonics + 1):
        idx = int(round(h * f0 / df))
        lo = max(1, idx - tol_bins)
        hi = min(len(spectrum.power), idx + tol_bins + 1)
        if lo < hi:
            covered[lo:hi] = True
    return float(spectrum.power[covered].sum() / total)
