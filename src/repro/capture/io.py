"""Trace persistence: compact npz and a tcpdump-style text format."""

from __future__ import annotations

import hashlib
import io
from pathlib import Path
from typing import Union

import numpy as np

from ..atomic import write_atomic
from ..transport import PROTO_TCP, PROTO_UDP
from .trace import TRACE_DTYPE, PacketTrace

__all__ = [
    "save_npz",
    "save_npz_atomic",
    "load_npz",
    "to_text",
    "from_text",
    "save_text",
    "load_text",
    "trace_digest",
]

_PROTO_NAMES = {PROTO_TCP: "tcp", PROTO_UDP: "udp", 0: "other"}
_PROTO_CODES = {v: k for k, v in _PROTO_NAMES.items()}


def save_npz(trace: PacketTrace, path: Union[str, Path]) -> None:
    """Save a trace as a compressed npz file."""
    np.savez_compressed(str(path), packets=trace.data)


def save_npz_atomic(trace: PacketTrace, path: Union[str, Path]) -> None:
    """Save a trace so concurrent readers never see a partial file.

    Writes to a temporary sibling and renames into place — the property
    the parallel trace-cache warmers rely on when several processes
    target the same cache directory.
    """
    write_atomic(path, lambda fh: np.savez_compressed(fh, packets=trace.data))


def trace_digest(trace: PacketTrace) -> str:
    """SHA-256 over the trace's packed records.

    Two traces digest equal iff every timestamp, size, address, and kind
    byte is identical — the check behind "parallel production is
    byte-identical to serial".
    """
    return hashlib.sha256(trace.data.tobytes()).hexdigest()


def load_npz(path: Union[str, Path]) -> PacketTrace:
    """Load a trace written by :func:`save_npz`.

    Files written before the ``retx`` column existed load with the
    column zero-filled.
    """
    with np.load(str(path)) as archive:
        data = archive["packets"]
    if data.dtype != TRACE_DTYPE:
        missing = set(TRACE_DTYPE.names) - set(data.dtype.names or ())
        if missing - {"retx"}:
            raise ValueError(
                f"npz trace missing fields {sorted(missing)} at {path}"
            )
        upgraded = np.zeros(len(data), dtype=TRACE_DTYPE)
        for name in data.dtype.names:
            upgraded[name] = data[name]
        data = upgraded
    return PacketTrace(np.asarray(data, dtype=TRACE_DTYPE))


def to_text(trace: PacketTrace) -> str:
    """Render as tcpdump-flavoured lines::

        0.001234 host2 > host3: tcp 1518 kind=0
    """
    out = io.StringIO()
    for row in trace.data:
        proto = _PROTO_NAMES.get(int(row["proto"]), str(int(row["proto"])))
        retx = " retx=1" if int(row["retx"]) else ""
        out.write(
            f"{row['time']:.6f} host{int(row['src'])} > host{int(row['dst'])}: "
            f"{proto} {int(row['size'])} kind={int(row['kind'])}{retx}\n"
        )
    return out.getvalue()


def from_text(text: str) -> PacketTrace:
    """Parse the format produced by :func:`to_text`."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = line.split()
            if len(tokens) == 8:
                (time_s, src_s, _gt, dst_s, proto_s, size_s, kind_s,
                 retx_s) = tokens
                if not retx_s.startswith("retx="):
                    raise ValueError(f"unexpected trailing token {retx_s!r}")
                retx = int(retx_s.removeprefix("retx="))
            else:
                time_s, src_s, _gt, dst_s, proto_s, size_s, kind_s = tokens
                retx = 0
            time = float(time_s)
            src = int(src_s.removeprefix("host"))
            dst = int(dst_s.removeprefix("host").rstrip(":"))
            proto = _PROTO_CODES.get(proto_s, 0)
            size = int(size_s)
            kind = int(kind_s.removeprefix("kind="))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"malformed trace line {lineno}: {line!r}") from exc
        rows.append((time, size, src, dst, proto, kind, retx))
    if not rows:
        return PacketTrace.empty()
    return PacketTrace.from_rows(rows)


def save_text(trace: PacketTrace, path: Union[str, Path]) -> None:
    Path(path).write_text(to_text(trace))


def load_text(path: Union[str, Path]) -> PacketTrace:
    return from_text(Path(path).read_text())
