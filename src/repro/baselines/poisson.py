"""Poisson traffic: the classical telephony-era baseline.

Memoryless arrivals with i.i.d. packet sizes — the polar opposite of the
Fx programs' deterministic periodic bursts.  Its bandwidth spectrum is
flat (white), so every spectral-shape comparison in the benches has a
known reference.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..capture import KIND_TCP_DATA, PacketTrace
from ..transport import PROTO_TCP

__all__ = ["PoissonTraffic"]


class PoissonTraffic:
    """Homogeneous Poisson packet arrivals.

    Parameters
    ----------
    rate:
        Mean packets per second.
    mean_size:
        Mean packet size in bytes; sizes are exponential, clamped to
        [min_size, max_size] (a crude but standard WAN mix).
    """

    def __init__(
        self,
        rate: float = 500.0,
        mean_size: float = 400.0,
        min_size: int = 58,
        max_size: int = 1518,
        seed: int = 0,
    ):
        if rate <= 0 or mean_size <= 0:
            raise ValueError("rate and mean_size must be positive")
        if min_size > max_size:
            raise ValueError("min_size must be <= max_size")
        self.rate = rate
        self.mean_size = mean_size
        self.min_size = min_size
        self.max_size = max_size
        self.rng = np.random.default_rng(seed)

    @property
    def mean_bandwidth(self) -> float:
        """Approximate mean offered load in bytes/s."""
        return self.rate * self.mean_size

    def generate(self, duration: float, src: int = 0, dst: int = 1) -> PacketTrace:
        """A Poisson trace over ``duration`` seconds."""
        if duration <= 0:
            raise ValueError("duration must be positive")
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
        return PacketTrace.from_columns(
            times, sizes, src, dst, PROTO_TCP, KIND_TCP_DATA
        )
