"""Versioned, byte-deterministic qmon manifests.

The manifest carries everything a reader needs to reproduce the qmon figures
without the in-memory monitor: per-port depth/delay totals, microbursts with
top contributors, window aggregates, and drop attribution.  It is
deliberately timestamp-free and path-free, floats are rounded to a fixed
precision, and keys are sorted — repeated runs of the same keyed simulation
produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import List

from ..atomic import write_atomic
from .monitor import FabricMonitor

__all__ = [
    "QMON_SCHEMA_VERSION",
    "build_manifest",
    "manifest_json",
    "write_qmon",
    "validate_qmon",
    "format_qmon",
]

QMON_SCHEMA_VERSION = 1

_PRECISION = 9


def _r(x: float) -> float:
    return round(float(x), _PRECISION)


def _round_matrix(matrix: dict) -> dict:
    return {
        victim: {contrib: _r(secs) for contrib, secs in row.items()}
        for victim, row in matrix.items()
    }


def _round_pairs(pairs) -> list:
    return [[flow, int(value)] for flow, value in pairs]


def build_manifest(monitor: FabricMonitor, meta: dict = None) -> dict:
    """Render a FabricMonitor into the schema-versioned manifest dict."""
    ports = {}
    total_enqueued = 0
    total_delivered = 0
    total_bursts = 0
    drop_reasons = {}
    for sid in sorted(monitor.ports):
        pm = monitor.ports[sid]
        bursts = [
            {
                "start": _r(b["start"]),
                "end": _r(b["end"]),
                "duration": _r(b["duration"]),
                "peak_depth_frames": b["peak_depth_frames"],
                "top_contributors": _round_pairs(b["top_contributors"]),
            }
            for b in pm.bursts()
        ]
        windows = [
            {
                "index": w["index"],
                "start": _r(w["start"]),
                "max_depth_frames": w["max_depth_frames"],
                "frames_enqueued": w["frames_enqueued"],
                "top_contributors": _round_pairs(w["top_contributors"]),
                "delay_matrix": _round_matrix(w["delay_matrix"]),
            }
            for w in pm.window_reports()
        ]
        drops = [
            {
                "time": _r(d["time"]),
                "reason": d["reason"],
                "flow": d["flow"],
                "size": d["size"],
                "depth_frames": d["depth_frames"],
                "depth_bytes": d["depth_bytes"],
                "occupants": dict(sorted(d["occupants"].items())),
            }
            for d in pm.drops
        ]
        for d in pm.drops:
            drop_reasons[d["reason"]] = drop_reasons.get(d["reason"], 0) + 1
        ports[str(sid)] = {
            "frames_enqueued": pm.frames_enqueued,
            "bytes_enqueued": pm.bytes_enqueued,
            "frames_delivered": pm.frames_delivered,
            "bytes_delivered": pm.bytes_delivered,
            "max_depth_frames": pm.max_depth_frames,
            "max_depth_bytes": pm.max_depth_bytes,
            "mean_depth_frames": _r(pm.mean_depth_frames()),
            "queue_delay_seconds": _r(pm.delay_total),
            "max_queue_delay_seconds": _r(pm.delay_max),
            "delay_matrix": _round_matrix(pm.delay_matrix()),
            "bursts": bursts,
            "windows": windows,
            "drops": drops,
        }
        total_enqueued += pm.frames_enqueued
        total_delivered += pm.frames_delivered
        total_bursts += len(bursts)
    for d in monitor.unrouted_drops:
        drop_reasons[d["reason"]] = drop_reasons.get(d["reason"], 0) + 1
    doc = {
        "schema": QMON_SCHEMA_VERSION,
        "config": monitor.config.canonical(),
        "ports": ports,
        "unrouted_drops": [
            {
                "time": _r(d["time"]),
                "reason": d["reason"],
                "flow": d["flow"],
                "size": d["size"],
            }
            for d in monitor.unrouted_drops
        ],
        "totals": {
            "frames_enqueued": total_enqueued,
            "frames_delivered": total_delivered,
            "max_depth_frames": monitor.max_depth_frames(),
            "bursts": total_bursts,
            "drops": monitor.total_drops(),
            "drop_reasons": dict(sorted(drop_reasons.items())),
        },
    }
    if monitor.fabric is not None:
        doc["link_bps"] = monitor.fabric.link_bps
    if meta:
        doc["meta"] = dict(sorted(meta.items()))
    return doc


def manifest_json(doc: dict) -> str:
    """Canonical byte-deterministic JSON rendering of a manifest."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_qmon(path, doc: dict) -> None:
    """Atomically write a manifest (tmp file + rename)."""
    write_atomic(path, manifest_json(doc))


def validate_qmon(doc) -> List[str]:
    """Structural validation of a manifest; returns a list of problems."""
    problems: List[str] = []

    def bad(msg: str) -> None:
        problems.append(msg)

    if not isinstance(doc, dict):
        return ["manifest is not an object"]
    if doc.get("schema") != QMON_SCHEMA_VERSION:
        bad(f"schema must be {QMON_SCHEMA_VERSION}, got {doc.get('schema')!r}")
    cfg = doc.get("config")
    if not isinstance(cfg, dict):
        bad("config missing")
    else:
        for key in ("window", "burst_depth", "burst_min_duration", "top_k"):
            if key not in cfg:
                bad(f"config.{key} missing")
    ports = doc.get("ports")
    if not isinstance(ports, dict):
        bad("ports missing")
        ports = {}
    count_fields = (
        "frames_enqueued",
        "bytes_enqueued",
        "frames_delivered",
        "bytes_delivered",
        "max_depth_frames",
        "max_depth_bytes",
    )
    for sid, port in sorted(ports.items()):
        if not isinstance(port, dict):
            bad(f"port {sid} is not an object")
            continue
        for key in count_fields:
            val = port.get(key)
            if not isinstance(val, int) or val < 0:
                bad(f"port {sid}: {key} must be a non-negative integer")
        for key in ("queue_delay_seconds", "max_queue_delay_seconds", "mean_depth_frames"):
            val = port.get(key)
            if not isinstance(val, (int, float)) or val < 0:
                bad(f"port {sid}: {key} must be a non-negative number")
        delivered = port.get("frames_delivered", 0)
        enqueued = port.get("frames_enqueued", 0)
        if isinstance(delivered, int) and isinstance(enqueued, int) and delivered > enqueued:
            bad(f"port {sid}: delivered {delivered} exceeds enqueued {enqueued}")
        for burst in port.get("bursts", []):
            if burst.get("start", 0) > burst.get("end", 0):
                bad(f"port {sid}: burst start after end")
            if isinstance(cfg, dict) and burst.get("peak_depth_frames", 0) < cfg.get("burst_depth", 1):
                bad(f"port {sid}: burst peak below configured threshold")
        for victim, row in port.get("delay_matrix", {}).items():
            if not isinstance(row, dict):
                bad(f"port {sid}: delay_matrix[{victim}] is not an object")
                continue
            for contrib, secs in row.items():
                if not isinstance(secs, (int, float)) or secs < 0:
                    bad(f"port {sid}: delay_matrix[{victim}][{contrib}] negative")
        for drop in port.get("drops", []):
            if not isinstance(drop.get("reason"), str) or not drop.get("reason"):
                bad(f"port {sid}: drop without a reason string")
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        bad("totals missing")
    else:
        for key in ("frames_enqueued", "frames_delivered", "max_depth_frames", "bursts", "drops"):
            val = totals.get(key)
            if not isinstance(val, int) or val < 0:
                bad(f"totals.{key} must be a non-negative integer")
        summed = sum(
            p.get("frames_enqueued", 0)
            for p in ports.values()
            if isinstance(p, dict)
        )
        if isinstance(totals.get("frames_enqueued"), int) and totals["frames_enqueued"] != summed:
            bad("totals.frames_enqueued disagrees with per-port sums")
    return problems


def format_qmon(doc: dict) -> str:
    """Human-readable per-port summary of a manifest for CLI output."""
    lines: List[str] = []
    totals = doc.get("totals", {})
    lines.append(
        "qmon: {enq} frames enqueued, {dlv} delivered, "
        "max depth {depth} frames, {bursts} microburst(s), {drops} drop(s)".format(
            enq=totals.get("frames_enqueued", 0),
            dlv=totals.get("frames_delivered", 0),
            depth=totals.get("max_depth_frames", 0),
            bursts=totals.get("bursts", 0),
            drops=totals.get("drops", 0),
        )
    )
    ports = doc.get("ports", {})
    for sid in sorted(ports, key=lambda s: (len(s), s)):
        port = ports[sid]
        lines.append(
            "  port{sid}: max depth {mx} frames ({mxb} B), mean {mean:.2f}, "
            "delay total {dly:.6f}s (max {dmx:.6f}s), {n} frames".format(
                sid=sid,
                mx=port["max_depth_frames"],
                mxb=port["max_depth_bytes"],
                mean=port["mean_depth_frames"],
                dly=port["queue_delay_seconds"],
                dmx=port["max_queue_delay_seconds"],
                n=port["frames_delivered"],
            )
        )
        for burst in port.get("bursts", []):
            top = ", ".join(f"{flow}={b}B" for flow, b in burst["top_contributors"])
            lines.append(
                "    burst @{start:.6f}s for {dur:.6f}s peak {peak} frames"
                " — top: {top}".format(
                    start=burst["start"],
                    dur=burst["duration"],
                    peak=burst["peak_depth_frames"],
                    top=top or "(none)",
                )
            )
        for drop in port.get("drops", []):
            lines.append(
                "    drop @{t:.6f}s {reason} ({flow}, depth {d} frames)".format(
                    t=drop["time"],
                    reason=drop["reason"],
                    flow=drop["flow"],
                    d=drop["depth_frames"],
                )
            )
    for drop in doc.get("unrouted_drops", []):
        lines.append(
            "  unrouted drop @{t:.6f}s {reason} ({flow})".format(
                t=drop["time"], reason=drop["reason"], flow=drop["flow"]
            )
        )
    return "\n".join(lines)
