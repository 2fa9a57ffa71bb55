"""Per-run metrics snapshots (``metrics.json``).

A metrics snapshot is the flat, diffable summary of one instrumented
run: every counter and gauge, and a span census.  ``repro profile
--emit-metrics`` writes one next to the Chrome trace; the CI
profile-smoke job archives it so the perf trajectory of the simulator
itself is measured, not guessed.

Schema (``METRICS_SCHEMA_VERSION``)
-----------------------------------
``{"schema": 2, "label": "...", "meta": {...}, "counters": {...},
"gauges": {...}, "spans": {"count": N, "open": N, "by_category": {...}}}``

``meta`` carries whatever run identification the caller supplies
(program, scale, seed, wall seconds, sim duration, packets, ...);
``repro profile`` adds its per-module ``samples``, the observed run's
wall time, and a ``reconciliation`` section when the caller
cross-checks telemetry counters against ground-truth
``BusStats``/``NicStats``.
"""

from __future__ import annotations

import json
from typing import Dict

from .core import Telemetry

__all__ = ["METRICS_SCHEMA_VERSION", "metrics_snapshot", "write_metrics"]

METRICS_SCHEMA_VERSION = 2


def _rounded(mapping: Dict[str, float]) -> Dict[str, float]:
    """Sort keys and trim float noise for stable, diffable JSON."""
    out = {}
    for key in sorted(mapping):
        value = mapping[key]
        out[key] = round(value, 9) if isinstance(value, float) else value
    return out


def metrics_snapshot(tel: Telemetry, **meta) -> dict:
    """The snapshot document for one telemetry instance."""
    return {
        "schema": METRICS_SCHEMA_VERSION,
        "label": tel.label,
        "meta": meta,
        "counters": _rounded(tel.counters),
        "gauges": _rounded(tel.gauges),
        "spans": {
            "count": len(tel.spans),
            "open": len(tel.open_spans()),
            "by_category": {k: tel.spans_by_category()[k]
                            for k in sorted(tel.spans_by_category())},
        },
    }


def write_metrics(tel: Telemetry, path, **meta) -> dict:
    """Write the snapshot to ``path``; returns the document."""
    doc = metrics_snapshot(tel, **meta)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False, default=str)
    return doc
