"""Sampling profiles of measured runs (``repro profile``).

:func:`profile_program` runs one measured program twice.  The sampled
run has no observer attached, so it costs what any run costs; it gives
the wall time and :func:`sample_modules`'s table.  The observed run
carries a private :class:`~repro.telemetry.Telemetry` and keeps the
cluster, so :meth:`ProfileResult.reconcile` can check its counters
against the ground-truth ``BusStats``/``NicStats`` ledgers.  Observers
create no events, so both runs must capture the same trace.
"""

from __future__ import annotations

import signal
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from .core import Telemetry

__all__ = ["SAMPLE_INTERVAL", "ProfileResult", "sample_modules",
           "profile_program", "format_profile"]

#: CPU seconds between two samples (``ITIMER_PROF``).
SAMPLE_INTERVAL = 0.005


def sample_modules(fn: Callable, *args,
                   **kwargs) -> Tuple[Any, Dict[str, int]]:
    """``fn(*args, **kwargs)`` and its ``SIGPROF`` samples, filed under
    the innermost ``repro`` module among ``fn``'s frames (less the
    ``repro.`` prefix), else ``other``.  Call from the main thread; the
    timer and the previous handler are restored however ``fn`` exits."""
    samples: Dict[str, int] = {}
    sampler = sys._getframe()

    def on_sample(signum, frame) -> None:
        module = "other"
        while frame is not None and frame is not sampler:
            name = frame.f_globals.get("__name__", "")
            if name.startswith("repro."):
                module = name[len("repro."):]
                break
            frame = frame.f_back
        samples[module] = samples.get(module, 0) + 1

    previous = signal.signal(signal.SIGPROF, on_sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
    try:
        result = fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    return result, samples


@dataclass
class ProfileResult:
    """The sampled run's wall time and samples; the rest is the observed
    run's."""

    name: str
    scale: str
    seed: int
    trace: object          # PacketTrace
    telemetry: Telemetry
    wall_seconds: float    # the sampled run
    observed_wall_seconds: float
    samples: Dict[str, int]
    cluster: object        # FxCluster (kept for reconciliation)

    @property
    def events_popped(self) -> int:
        """The observed run's count: observers create no events."""
        return int(self.telemetry.counters.get("des.events_popped", 0))

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_popped / self.wall_seconds

    def module_rows(self) -> List[Tuple[str, int, float]]:
        """(module, samples, share) rows, most sampled first."""
        total = sum(self.samples.values())
        rows = sorted(self.samples.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(module, n, n / total) for module, n in rows]

    def reconcile(self) -> Dict[str, dict]:
        """Telemetry counters vs. the simulation's own ledgers.

        Returns ``{check: {"telemetry": x, "ground_truth": y, "ok": bool}}``
        for the frame/drop/retransmit counters the acceptance contract
        names.  Every check must hold on every run — a mismatch means an
        instrumentation hook went stale.
        """
        counters = self.telemetry.counters
        bus = self.cluster.bus
        nics = [stack.nic for stack in self.cluster.stacks]
        pipes = [p for conn in self.cluster.vm._connections.values()
                 for p in (conn.forward, conn.reverse)]
        drop_counters = sum(v for k, v in counters.items()
                            if k.startswith("drops."))
        checks = {
            "bus.frames_delivered": (counters.get("bus.frames_delivered", 0),
                                     bus.stats.frames_delivered),
            "bus.bytes_delivered": (counters.get("bus.bytes_delivered", 0),
                                    bus.stats.bytes_delivered),
            "bus.collisions": (counters.get("bus.collisions", 0),
                               bus.stats.collisions),
            "net.frames_dropped": (counters.get("net.frames_dropped", 0),
                                   len(bus.drop_log)),
            "drops.by_reason": (drop_counters, len(bus.drop_log)),
            "nic.frames_sent": (counters.get("nic.frames_sent", 0),
                                sum(n.stats.frames_sent for n in nics)),
            "nic.bytes_sent": (counters.get("nic.bytes_sent", 0),
                               sum(n.stats.bytes_sent for n in nics)),
            "tcp.retransmits": (counters.get("tcp.retransmits", 0),
                                sum(p.retransmits for p in pipes)),
            "tcp.segments_sent": (counters.get("tcp.segments_sent", 0),
                                  sum(p.segments_sent for p in pipes)),
            "tcp.acks_sent": (counters.get("tcp.acks_sent", 0),
                              sum(p.acks_sent for p in pipes)),
        }
        return {
            name: {"telemetry": int(tel_value),
                   "ground_truth": int(truth),
                   "ok": int(tel_value) == int(truth)}
            for name, (tel_value, truth) in checks.items()
        }

    @property
    def reconciled(self) -> bool:
        return all(c["ok"] for c in self.reconcile().values())


def profile_program(
    name: str,
    scale: str = "default",
    seed: int = 0,
    nprocs: int = 4,
    iterations: Optional[int] = None,
    faults=None,
) -> ProfileResult:
    """Profile one measured program: a sampled run, then an observed one.

    Both are :func:`repro.programs.run_measured` runs; the observed one
    keeps its cluster for :meth:`ProfileResult.reconcile`.  Raises
    ``RuntimeError`` if the two traces differ.  Imports lazily —
    telemetry sits below the simulation packages in the layering.
    """
    from ..capture import trace_digest
    from ..programs import run_measured

    run = partial(run_measured, name, scale=scale, nprocs=nprocs, seed=seed,
                  iterations=iterations, faults=faults)
    tel = Telemetry(label=f"{name}/{scale}/seed{seed}")
    wall_start = tel.clock()
    sampled, samples = sample_modules(run, sanitize=False, telemetry=False)
    wall = tel.clock() - wall_start
    detail: dict = {}
    wall_start = tel.clock()
    trace = run(telemetry=tel, detail=detail)
    observed_wall = tel.clock() - wall_start
    cluster = detail["cluster"]
    if trace_digest(trace) != trace_digest(sampled):
        raise RuntimeError(f"profile {name}/{scale}/seed{seed}: the observed "
                           "run's trace differs from the sampled run's")
    tel.gauge("run.wall_seconds", observed_wall)
    tel.gauge("run.sim_seconds", cluster.sim.now)
    return ProfileResult(name=name, scale=scale, seed=seed, trace=trace,
                         telemetry=tel, wall_seconds=wall,
                         observed_wall_seconds=observed_wall,
                         samples=samples, cluster=cluster)


def format_profile(result: ProfileResult, top_counters: int = 12) -> str:
    """The ``repro profile`` report: module table + headline numbers."""
    tel = result.telemetry
    lines = [
        f"== profile: {result.name} scale={result.scale} "
        f"seed={result.seed} ==",
        f"wall time:        {result.wall_seconds * 1e3:10.2f} ms",
        f"sim time:         {result.cluster.sim.now:10.3f} s",
        f"events popped:    {result.events_popped:10d}",
        f"events/sec:       {result.events_per_second:10.0f}",
        f"packets captured: {len(result.trace):10d}",
        f"samples:          {sum(result.samples.values()):10d}",
        f"telemetry skew:   "
        f"{result.observed_wall_seconds / result.wall_seconds:10.2f}x",
        "",
        f"{'module':<20} {'samples':>8} {'share':>7}",
        "-" * 37,
    ]
    for module, count, share in result.module_rows():
        lines.append(f"{module:<20} {count:>8d} {share:>6.1%}")
    lines.append("")
    lines.append("top counters:")
    by_value = sorted(tel.counters.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, value in by_value[:top_counters]:
        lines.append(f"  {name:<32} {value:>14.0f}")
    recon = result.reconcile()
    bad = [name for name, check in recon.items() if not check["ok"]]
    if bad:
        lines.append("")
        lines.append(f"RECONCILIATION FAILED: {', '.join(bad)}")
        for name in bad:
            check = recon[name]
            lines.append(f"  {name}: telemetry={check['telemetry']} "
                         f"ground-truth={check['ground_truth']}")
    else:
        lines.append("")
        lines.append(
            f"reconciliation: {len(recon)}/{len(recon)} counters match "
            "BusStats/NicStats"
        )
    return "\n".join(lines)
