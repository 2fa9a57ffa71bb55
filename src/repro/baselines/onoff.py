"""On-off (two-state MMPP) traffic: correlated bursty sources.

The model assumed by prior ATM call-admission work for parallel
applications (paper ref. [7]): a source alternates between exponential
ON periods emitting packets at a fixed rate and exponential OFF
periods.  Bursty and correlated, but with *random* burst lengths and no
line spectrum — unlike the Fx programs' deterministic periodicity.
"""

from __future__ import annotations

import numpy as np

from ..capture import KIND_TCP_DATA, PacketTrace
from ..transport import PROTO_TCP

__all__ = ["OnOffTraffic"]


class OnOffTraffic:
    """Exponential on/off source with constant in-burst rate.

    Parameters
    ----------
    on_mean, off_mean:
        Mean ON and OFF durations (seconds).
    on_rate:
        Packets per second while ON.
    packet_size:
        Constant packet size while ON.
    """

    def __init__(
        self,
        on_mean: float = 0.2,
        off_mean: float = 0.8,
        on_rate: float = 800.0,
        packet_size: int = 1024,
        seed: int = 0,
    ):
        if min(on_mean, off_mean, on_rate) <= 0:
            raise ValueError("on_mean, off_mean, on_rate must be positive")
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        self.on_mean = on_mean
        self.off_mean = off_mean
        self.on_rate = on_rate
        self.packet_size = packet_size
        self.rng = np.random.default_rng(seed)

    @property
    def duty_cycle(self) -> float:
        return self.on_mean / (self.on_mean + self.off_mean)

    @property
    def mean_bandwidth(self) -> float:
        """Mean offered load in bytes/s."""
        return self.duty_cycle * self.on_rate * self.packet_size

    def generate(self, duration: float, src: int = 0, dst: int = 1) -> PacketTrace:
        if duration <= 0:
            raise ValueError("duration must be positive")
        bursts = []
        t = 0.0
        # start in a random phase of the cycle
        on = self.rng.random() < self.duty_cycle
        while t < duration:
            if on:
                burst_len = self.rng.exponential(self.on_mean)
                end = min(t + burst_len, duration)
                spacing = 1.0 / self.on_rate
                # Packet k sits at the k-th running sum of the spacing,
                # accumulated in order (k * spacing rounds differently).
                # Two steps past the real-valued count reach ``end``
                # unless rounding drifts by a whole spacing.
                steps = np.full(int((end - t) / spacing) + 2, spacing)
                steps[0] = t + self.rng.uniform(0, spacing)
                burst = np.cumsum(steps)
                bursts.append(burst[burst < end])
                t = end
            else:
                t += self.rng.exponential(self.off_mean)
            on = not on
        times = np.concatenate(bursts) if bursts else np.empty(0)
        if not len(times):
            return PacketTrace.empty()
        return PacketTrace.from_columns(
            times, self.packet_size, src, dst, PROTO_TCP, KIND_TCP_DATA
        )
