"""VBR video traffic: frame-rate periodicity with variable frame sizes.

The paper's key contrast (§8): "Unlike media traffic, there is no
intrinsic periodicity due to a frame rate.  Instead, the periodicity is
determined by application parameters and the network itself."  A VBR
video source *does* have frame-rate periodicity — but its burst (frame)
sizes vary scene to scene, while the parallel programs' burst sizes are
constant and their periods float with the network.

This source emits one frame every 1/fps seconds whose size follows a
long-range-dependent log-normal-ish process (self-similar frame sizes, a
la Garrett & Willinger), each frame split into MTU packets.
"""

from __future__ import annotations

import numpy as np

from ..capture import KIND_TCP_DATA, PacketTrace, bin_slots
from ..transport import PROTO_TCP
from .selfsimilar import fgn

__all__ = ["VbrVideoTraffic"]


class VbrVideoTraffic:
    """A VBR video source with self-similar frame sizes.

    Parameters
    ----------
    fps:
        Frame rate (the *intrinsic* periodicity media streams have).
    mean_frame_bytes:
        Mean encoded frame size.
    sigma:
        Log-scale dispersion of frame sizes.
    hurst:
        Hurst exponent of the frame-size process.
    packet_size:
        MTU-sized packets carrying each frame.
    """

    def __init__(
        self,
        fps: float = 30.0,
        mean_frame_bytes: float = 8000.0,
        sigma: float = 0.35,
        hurst: float = 0.8,
        packet_size: int = 1518,
        seed: int = 0,
    ):
        if fps <= 0 or mean_frame_bytes <= 0 or packet_size <= 0:
            raise ValueError("fps, mean_frame_bytes, packet_size must be positive")
        self.fps = fps
        self.mean_frame_bytes = mean_frame_bytes
        self.sigma = sigma
        self.hurst = hurst
        self.packet_size = packet_size
        self.seed = seed

    def frame_sizes(self, n_frames: int) -> np.ndarray:
        """Self-similar log-normal frame sizes in bytes."""
        if n_frames < 2:
            raise ValueError("need at least 2 frames")
        noise = fgn(n_frames, hurst=self.hurst, seed=self.seed)
        sizes = self.mean_frame_bytes * np.exp(
            self.sigma * noise - 0.5 * self.sigma**2
        )
        return np.maximum(sizes, 64.0)

    def generate(self, duration: float, src: int = 0, dst: int = 1) -> PacketTrace:
        if duration <= 0:
            raise ValueError("duration must be positive")
        n_frames = max(2, int(duration * self.fps))
        frame_bytes = self.frame_sizes(n_frames).astype(np.int64)
        frame_period = 1.0 / self.fps
        # a frame leaves as full packets; the last one carries the rest
        counts = -(-frame_bytes // self.packet_size)
        frames, rank = bin_slots(counts)
        sizes = np.full(len(frames), self.packet_size, dtype=np.int64)
        last = np.cumsum(counts) - 1
        sizes[last] = frame_bytes - (counts - 1) * self.packet_size
        # frames burst out at wire-ish speed: 1 packet / 1.25 ms, each
        # offset the running sum of the gaps before it, added in order
        gaps = np.full(counts.max(), 0.00125)
        gaps[0] = 0.0
        times = frames * frame_period + np.cumsum(gaps)[rank]
        return PacketTrace.from_columns(
            times, sizes, src, dst, PROTO_TCP, KIND_TCP_DATA
        )
