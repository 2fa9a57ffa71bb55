"""Experiment harness: one runner per paper table/figure, plus rendering."""

from .ablations import ABLATIONS, run_ablation
from .experiments import EXPERIMENTS, Artifact, run_experiment
from .figures import export_artifact
from .plots import ascii_plot, render_series
from .replication import Replication, replicate
from .resilience import ChaosPlan
from .runner import (
    REPRESENTATIVE_CONNECTIONS,
    clear_trace_cache,
    configure_trace_store,
    default_faults,
    get_trace,
    prefetch_traces,
    set_default_faults,
    set_trace_store,
    trace_store,
)
from .store import TRACE_SCHEMA_VERSION, CacheStats, TraceKey, TraceStore
from .sweep import (
    SWEEP_SCHEMA_VERSION,
    GridError,
    SweepGrid,
    SweepResult,
    expand_grid,
    parse_grid,
    run_sweep,
)
from .tables import format_matrix, format_table

__all__ = [
    "EXPERIMENTS",
    "ABLATIONS",
    "Artifact",
    "run_experiment",
    "run_ablation",
    "export_artifact",
    "Replication",
    "replicate",
    "get_trace",
    "prefetch_traces",
    "clear_trace_cache",
    "trace_store",
    "SWEEP_SCHEMA_VERSION",
    "GridError",
    "SweepGrid",
    "SweepResult",
    "parse_grid",
    "expand_grid",
    "run_sweep",
    "ChaosPlan",
    "configure_trace_store",
    "set_trace_store",
    "set_default_faults",
    "default_faults",
    "TraceStore",
    "TraceKey",
    "CacheStats",
    "TRACE_SCHEMA_VERSION",
    "REPRESENTATIVE_CONNECTIONS",
    "format_table",
    "ascii_plot",
    "render_series",
    "format_matrix",
]
