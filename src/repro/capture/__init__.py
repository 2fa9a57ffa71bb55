"""Packet capture: promiscuous tracing and trace persistence."""

from .replay import TraceReplayer, replay_trace
from .io import (
    from_text,
    load_npz,
    load_text,
    save_npz,
    save_npz_atomic,
    save_text,
    to_text,
    trace_digest,
)
from .trace import (
    KIND_TCP_ACK,
    KIND_TCP_DATA,
    KIND_UDP,
    PacketTrace,
    TraceRecorder,
    bin_slots,
)

__all__ = [
    "PacketTrace",
    "TraceRecorder",
    "bin_slots",
    "KIND_TCP_DATA",
    "KIND_TCP_ACK",
    "KIND_UDP",
    "TraceReplayer",
    "replay_trace",
    "save_npz",
    "save_npz_atomic",
    "load_npz",
    "trace_digest",
    "to_text",
    "from_text",
    "save_text",
    "load_text",
]
