"""Opt-in observability for the simulator: spans, counters, profiles.

The paper's contribution is *measurement*; this package points the same
lens at the simulation itself.  A :class:`Telemetry` instance attaches
to a :class:`~repro.des.Simulator` (``Simulator(telemetry=True)``, or
the process-wide instance that ``--telemetry`` installs for one CLI
command) and every instrumented layer — DES core, shared bus, NICs,
switch fabric, TCP, pvmd, Fx runtime — reports into it.  Disabled,
each hook costs one attribute check; enabled, runs stay byte-identical
(telemetry observes, never schedules).

Exports: Chrome trace-event JSON (:func:`write_chrome`, opens in
Perfetto / ``chrome://tracing`` with one track per host/NIC/pipe),
``metrics.json`` snapshots (:func:`write_metrics`), and the
``repro profile`` report (:func:`profile_program`): a ``SIGPROF``
sampling profile of an unobserved run, beside the counters of an
observed one.
"""

from .chrome import chrome_trace, validate_chrome_trace, write_chrome
from .core import (
    Span,
    Telemetry,
    disable_process_telemetry,
    enable_process_telemetry,
    process_telemetry,
)
from .metrics import METRICS_SCHEMA_VERSION, metrics_snapshot, write_metrics
from .profile import ProfileResult, format_profile, profile_program

__all__ = [
    "Telemetry",
    "Span",
    "process_telemetry",
    "enable_process_telemetry",
    "disable_process_telemetry",
    "chrome_trace",
    "write_chrome",
    "validate_chrome_trace",
    "METRICS_SCHEMA_VERSION",
    "metrics_snapshot",
    "write_metrics",
    "ProfileResult",
    "profile_program",
    "format_profile",
]
