"""Synthetic traffic generation from spectral models.

Closes the paper's loop: "These spectra can be simplified to form
analytic models **to generate similar traffic**."  Given a
:class:`~repro.core.spectral_model.SpectralModel`, the generator emits a
packet trace whose binned bandwidth follows the reconstructed signal,
with the constant burst packet sizes the paper observed (full segments
plus a remainder), optionally spread over the connections of a
communication pattern.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..capture import KIND_TCP_DATA, PacketTrace, bin_slots
from ..fx import Pattern, pattern_pairs
from ..transport import PROTO_TCP
from .spectral_model import SpectralModel

__all__ = ["SpectralTrafficGenerator"]

KB = 1024.0


class SpectralTrafficGenerator:
    """Generates packet traces that realize a spectral model.

    Parameters
    ----------
    model:
        The fitted bandwidth model.
    packet_size:
        The constant burst packet size (the paper's full 1518-byte
        frames); the residue of each interval rides one smaller packet.
    min_packet:
        Smallest packet worth emitting; sub-``min_packet`` residue
        carries over to the next interval instead.
    pattern, nprocs:
        When given, packets are attributed round-robin to the pattern's
        (src, dst) pairs, so the synthetic trace exercises the same
        connections as the program it models.
    normalize_volume:
        Clipping a truncated Fourier series at zero biases its mean
        upward (the negative ringing of sparse, impulsive signals is
        discarded).  When True, the clipped demand is rescaled so the
        generated volume matches the model's true mean bandwidth.
    """

    def __init__(
        self,
        model: SpectralModel,
        packet_size: int = 1518,
        min_packet: int = 58,
        pattern: Optional[Pattern] = None,
        nprocs: int = 4,
        normalize_volume: bool = False,
    ):
        if packet_size < min_packet:
            raise ValueError("packet_size must be >= min_packet")
        self.model = model
        self.packet_size = packet_size
        self.min_packet = min_packet
        self.normalize_volume = normalize_volume
        if pattern is not None:
            self.pairs: List[Tuple[int, int]] = sorted(pattern_pairs(pattern, nprocs))
        else:
            self.pairs = [(0, 1)]

    def generate(
        self,
        duration: float,
        dt: float = 0.010,
        t0: float = 0.0,
    ) -> PacketTrace:
        """Emit packets over ``duration`` seconds.

        Each ``dt`` interval gets ``max(0, model(t)) * dt`` kilobytes:
        full ``packet_size`` packets spaced evenly through the interval,
        plus one remainder packet; fractional bytes carry into the next
        interval, so total volume is conserved to within one packet.
        """
        if duration <= 0 or dt <= 0:
            raise ValueError("duration and dt must be positive")
        n_bins = int(np.ceil(duration / dt))
        starts = t0 + dt * np.arange(n_bins)
        demand = self.model.reconstruct(starts, clip=True) * KB * dt
        if self.normalize_volume and demand.mean() > 0:
            target = max(self.model.mean, 0.0) * KB * dt
            demand = demand * (target / demand.mean())

        counts = []
        residues = {}  # packet index -> size of an interval's residue packet
        carry = 0.0
        n_packets = 0
        for want in demand.tolist():
            budget = want + carry
            n_pkts = 0
            while budget >= self.packet_size:
                n_pkts += 1
                budget -= self.packet_size
            if budget >= self.min_packet:
                residues[n_packets + n_pkts] = int(budget)
                n_pkts += 1
                budget -= int(budget)
            carry = budget
            counts.append(n_pkts)
            n_packets += n_pkts
        if not n_packets:
            return PacketTrace.empty()
        bins, rank = bin_slots(counts)
        n = np.asarray(counts)[bins]
        times = starts[bins] + (rank + 0.5) * (dt / n)
        sizes = np.full(n_packets, self.packet_size, dtype=np.int64)
        sizes[list(residues)] = list(residues.values())
        # round-robin over the pattern's connections, packet by packet
        pairs = np.asarray(self.pairs)[np.arange(n_packets) % len(self.pairs)]
        return PacketTrace.from_columns(
            times, sizes, pairs[:, 0], pairs[:, 1], PROTO_TCP, KIND_TCP_DATA
        )
