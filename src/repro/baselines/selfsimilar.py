"""Self-similar (long-range dependent) traffic — the media-stream model.

Garrett & Willinger (paper ref. [11]) showed VBR video traffic is
self-similar; the paper's headline contrast is that compiler-parallelized
program traffic is *not*: its periodicity comes from application
parameters and the network, not from fractal scaling.

Fractional Gaussian noise is synthesized exactly with the Davies-Harte
method (circulant embedding of the autocovariance), then mapped to a
bandwidth envelope and realized as packets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..capture import KIND_TCP_DATA, PacketTrace, bin_slots
from ..transport import PROTO_TCP

__all__ = ["fgn", "SelfSimilarTraffic"]


def _fgn_autocov(k: np.ndarray, hurst: float) -> np.ndarray:
    """Autocovariance of unit-variance fGn at lags ``k``."""
    h2 = 2 * hurst
    k = np.abs(k).astype(np.float64)
    return 0.5 * ((k + 1) ** h2 - 2 * k**h2 + np.abs(k - 1) ** h2)


def fgn(n: int, hurst: float = 0.8, seed: int = 0) -> np.ndarray:
    """Exact fractional Gaussian noise via Davies-Harte.

    Returns ``n`` samples of zero-mean unit-variance fGn with the given
    Hurst exponent.
    """
    if not 0 < hurst < 1:
        raise ValueError(f"hurst must be in (0,1), got {hurst}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    m = 1 << (n - 1).bit_length()  # power of two >= n
    # circulant embedding of the covariance over lags 0..m
    lags = np.arange(m + 1)
    row = _fgn_autocov(lags, hurst)
    circ = np.concatenate([row, row[-2:0:-1]])
    eigs = np.fft.fft(circ).real
    # Numerical negatives are tiny for fGn; clamp.
    eigs = np.maximum(eigs, 0.0)
    size = len(circ)
    z = rng.normal(size=size) + 1j * rng.normal(size=size)
    w = np.fft.fft(np.sqrt(eigs / (2.0 * size)) * z)
    x = np.sqrt(2.0) * w.real[:n]
    return x


class SelfSimilarTraffic:
    """Packets realizing a self-similar bandwidth envelope.

    Parameters
    ----------
    hurst:
        Hurst exponent; 0.8 is typical for measured VBR video.
    mean_bandwidth:
        Mean load in bytes/s.
    burstiness:
        Std of the bandwidth envelope relative to the mean.
    packet_size:
        Constant packet size (a video source's fixed-size cells).
    dt:
        Envelope sampling interval.
    """

    def __init__(
        self,
        hurst: float = 0.8,
        mean_bandwidth: float = 200_000.0,
        burstiness: float = 0.5,
        packet_size: int = 1024,
        dt: float = 0.010,
        seed: int = 0,
    ):
        if mean_bandwidth <= 0 or packet_size <= 0 or dt <= 0:
            raise ValueError("mean_bandwidth, packet_size, dt must be positive")
        if burstiness < 0:
            raise ValueError("burstiness must be >= 0")
        self.hurst = hurst
        self.mean_bandwidth = mean_bandwidth
        self.burstiness = burstiness
        self.packet_size = packet_size
        self.dt = dt
        self.seed = seed

    def bandwidth_envelope(self, duration: float) -> np.ndarray:
        """The fGn-driven bytes/s envelope, floored at zero."""
        n = max(2, int(np.ceil(duration / self.dt)))
        noise = fgn(n, hurst=self.hurst, seed=self.seed)
        env = self.mean_bandwidth * (1.0 + self.burstiness * noise)
        return np.maximum(env, 0.0)

    def generate(self, duration: float, src: int = 0, dst: int = 1) -> PacketTrace:
        if duration <= 0:
            raise ValueError("duration must be positive")
        env = self.bandwidth_envelope(duration)
        counts = []
        carry = 0.0
        for bw in env.tolist():
            budget = bw * self.dt + carry
            n_pkts = int(budget // self.packet_size)
            carry = budget - n_pkts * self.packet_size
            counts.append(n_pkts)
        bins, rank = bin_slots(counts)
        if not len(bins):
            return PacketTrace.empty()
        # the bin's n packets sit at the midpoints of n equal slots
        n = np.asarray(counts)[bins]
        times = bins * self.dt + (rank + 0.5) * (self.dt / n)
        return PacketTrace.from_columns(
            times, self.packet_size, src, dst, PROTO_TCP, KIND_TCP_DATA
        )
