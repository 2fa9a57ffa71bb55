"""Wall-clock profiling of instrumented runs (``repro profile``).

:func:`profile_program` reproduces one measured run under a private
:class:`~repro.telemetry.Telemetry` instance and keeps the cluster
around, so the result can (a) break the run's wall time down per
subsystem from the per-process resume accounting, and (b) reconcile the
telemetry counters against the ground-truth ``BusStats``/``NicStats``
ledgers — if instrumentation ever drifts from the simulation it claims
to observe, :meth:`ProfileResult.reconcile` says exactly where.

Self time is attributed where the Python frames actually run: the
shared bus's CSMA/CD procedure executes inside the owning NIC's tx
process (``yield from``), so its cost lands in ``net.nic``; the
``des.engine`` row is the remainder of the run's wall time spent in
heap management and event dispatch outside any process resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import Telemetry

__all__ = ["ProfileResult", "profile_program", "format_profile"]


@dataclass
class ProfileResult:
    """One profiled run: the trace, its telemetry, and the testbed."""

    name: str
    scale: str
    seed: int
    trace: object          # PacketTrace
    telemetry: Telemetry
    wall_seconds: float
    cluster: object        # FxCluster (kept for reconciliation)

    @property
    def events_popped(self) -> int:
        return int(self.telemetry.counters.get("des.events_popped", 0))

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_popped / self.wall_seconds

    def subsystem_rows(self) -> List[Tuple[str, int, float, float]]:
        """(subsystem, resumes, self seconds, share-of-run) rows, plus a
        ``des.engine`` remainder row, sorted by descending self time."""
        rows = []
        accounted = 0.0
        for subsystem, (calls, seconds) in self.telemetry.wall_by_subsystem().items():
            rows.append((subsystem, int(calls), seconds))
            accounted += seconds
        engine = max(0.0, self.wall_seconds - accounted)
        rows.append(("des.engine", self.events_popped, engine))
        rows.sort(key=lambda r: r[2], reverse=True)
        total = self.wall_seconds if self.wall_seconds > 0 else 1.0
        return [(name, calls, seconds, seconds / total)
                for name, calls, seconds in rows]

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
    telemetry: Optional[Telemetry] = None,
) -> ProfileResult:
    """Run one measured program under telemetry and return the profile.

    Mirrors :func:`repro.programs.run_measured`'s testbed construction
    but keeps the cluster, so counters can be reconciled against the
    simulation's own statistics.  Imports lazily — telemetry sits below
    the simulation packages in the layering.
    """
    from ..fx import FxCluster, FxRuntime
    from ..programs import make_program
    from ..programs.calibration import ITERATIONS, work_model_for

    if iterations is None:
        try:
            iterations = ITERATIONS[name][scale]
        except KeyError:
            raise KeyError(
                f"unknown program/scale {name!r}/{scale!r}"
            ) from None
    tel = telemetry if telemetry is not None else Telemetry(
        label=f"{name}/{scale}/seed{seed}"
    )
    program = make_program(name)
    cluster = FxCluster(n_machines=nprocs + 1, seed=seed, faults=faults,
                        telemetry=tel)
    runtime = FxRuntime(cluster, nprocs, work_model_for(name, seed=seed))
    wall_start = tel.clock()
    trace = runtime.execute(program, iterations)
    wall = tel.clock() - wall_start
    tel.gauge("run.wall_seconds", wall)
    tel.gauge("run.sim_seconds", cluster.sim.now)
    return ProfileResult(name=name, scale=scale, seed=seed, trace=trace,
                         telemetry=tel, wall_seconds=wall, cluster=cluster)


def format_profile(result: ProfileResult, top_counters: int = 12) -> str:
    """The ``repro profile`` report: hot-path table + headline numbers."""
    tel = result.telemetry
    lines = [
        f"== profile: {result.name} scale={result.scale} "
        f"seed={result.seed} ==",
        f"wall time:        {result.wall_seconds * 1e3:10.2f} ms",
        f"sim time:         {result.cluster.sim.now:10.3f} s",
        f"events popped:    {result.events_popped:10d}",
        f"events/sec:       {result.events_per_second:10.0f}",
        f"packets captured: {len(result.trace):10d}",
        "",
        f"{'subsystem':<16} {'resumes':>9} {'self ms':>10} {'share':>7}",
        "-" * 46,
    ]
    for subsystem, calls, seconds, share in result.subsystem_rows():
        lines.append(
            f"{subsystem:<16} {calls:>9d} {seconds * 1e3:>10.2f} "
            f"{share:>6.1%}"
        )
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
