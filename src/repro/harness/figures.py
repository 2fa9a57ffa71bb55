"""Figure-series export: write an experiment's data series to disk.

The paper's figures were gnuplot files ("SOR.all.patch.time.winbw.chop");
we export the same kind of two-column data files plus a small manifest,
so any plotting tool can regenerate the figures.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .experiments import Artifact

__all__ = ["export_artifact"]


def export_artifact(artifact: Artifact, directory: Union[str, Path]) -> Path:
    """Write an artifact's tables, series, and checks under ``directory``.

    Layout::

        <dir>/<exp_id>/
            report.txt            all tables + checks
            manifest.json         metrics, checks, file list
            <series-name>.dat     two-column x y data per series
    """
    root = Path(directory) / artifact.exp_id
    root.mkdir(parents=True, exist_ok=True)
    (root / "report.txt").write_text(artifact.render() + "\n")
    files = []
    for name, (x, y) in artifact.series.items():
        safe = name.replace("/", "_").replace(" ", "_")
        path = root / f"{safe}.dat"
        data = np.column_stack([np.asarray(x, dtype=float),
                                np.asarray(y, dtype=float)])
        # np.savetxt's default layout, formatted in one call
        header = f"# {artifact.exp_id}: {name}\n# columns: x y\n"
        rows = ("%.18e %.18e\n" * len(data)) % tuple(data.ravel().tolist())
        path.write_text(header + rows)
        files.append(path.name)
    from .runner import trace_store
    from .store import TRACE_SCHEMA_VERSION
    from .sweep import SWEEP_SCHEMA_VERSION, pool_stats

    store = trace_store()
    manifest = {
        "exp_id": artifact.exp_id,
        "title": artifact.title,
        "metrics": artifact.metrics,
        "checks": artifact.checks,
        "series_files": files,
        # Trace provenance: which pipeline produced the inputs, and how
        # the cache behaved while this artifact was computed.  Since the
        # sweep engine fronts all trace production, its schema and pool
        # activity identify the producer.
        "trace_pipeline": {
            "schema_version": TRACE_SCHEMA_VERSION,
            "sweep_schema": SWEEP_SCHEMA_VERSION,
            "cache_dir": str(store.disk_dir) if store.disk_dir else None,
            "cache_stats": store.stats.as_dict(),
            "sweep_pool": pool_stats(),
        },
    }

    def _tojson(o):
        # NumPy scalars (np.bool_, np.float64, ...) leak into metrics
        # and checks; unwrap them for the JSON encoder.
        if isinstance(o, np.bool_):
            return bool(o)
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        raise TypeError(f"not JSON serializable: {type(o).__name__}")

    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, default=_tojson)
    )
    return root
