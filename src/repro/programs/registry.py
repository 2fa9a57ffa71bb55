"""Registry of the measured programs (paper Figure 2) and run helpers."""

from __future__ import annotations

from typing import Dict, Optional, Type

from ..capture import PacketTrace
from ..fx import FxCluster, FxProgram, FxRuntime, Pattern
from ..pvm import Route
from .airshed import Airshed
from .calibration import ITERATIONS, work_model_for
from .fft2d import Fft2d
from .hist import Hist
from .seq import Seq
from .shift import Shift
from .sor import Sor
from .tfft2d import TaskFft2d

__all__ = [
    "PROGRAMS",
    "KERNELS",
    "make_program",
    "resolve_route",
    "run_measured",
    "kernel_table",
]

#: The six measured programs plus the paper's §7.3 SHIFT example.
PROGRAMS: Dict[str, Type[FxProgram]] = {
    "sor": Sor,
    "shift": Shift,
    "2dfft": Fft2d,
    "t2dfft": TaskFft2d,
    "seq": Seq,
    "hist": Hist,
    "airshed": Airshed,
}

#: The five kernels of paper Figure 2 (AIRSHED is the "real" application).
KERNELS = ("sor", "2dfft", "t2dfft", "seq", "hist")


def make_program(name: str, **kwargs) -> FxProgram:
    """Instantiate a program by registry name."""
    try:
        cls = PROGRAMS[name]
    except KeyError:
        raise KeyError(
            f"unknown program {name!r}; known: {sorted(PROGRAMS)}"
        ) from None
    return cls(**kwargs)


def resolve_route(route) -> tuple:
    """Resolve a route spec into ``(Route, medium-or-None)``.

    Accepts the :class:`~repro.pvm.Route` enum, its string values
    ("direct", "default"), or the pseudo-route "switched" — direct TCP
    carried over the switched fabric instead of the shared bus.
    """
    if isinstance(route, Route):
        return route, None
    if isinstance(route, str):
        spec = route.strip().lower()
        if spec == "switched":
            return Route.DIRECT, "switched"
        try:
            return Route(spec), None
        except ValueError:
            pass
    raise ValueError(
        f"unknown route {route!r}; known: "
        + ", ".join(sorted(r.value for r in Route) + ["switched"])
    )


def run_measured(
    name: str,
    scale: str = "default",
    nprocs: int = 4,
    seed: int = 0,
    iterations: Optional[int] = None,
    route: Route = Route.DIRECT,
    program_kwargs: Optional[dict] = None,
    cluster_kwargs: Optional[dict] = None,
    faults=None,
    sanitize: Optional[bool] = None,
    telemetry=None,
    qmon=None,
    detail: Optional[dict] = None,
) -> PacketTrace:
    """Reproduce one of the paper's measurement runs.

    Builds the calibrated testbed (P+1 machines — the extra one is the
    passive measurement workstation — on a 10 Mb/s shared Ethernet),
    runs the named program for the scale's iteration count, and returns
    the promiscuous packet trace.

    Parameters
    ----------
    scale:
        "full" (the paper's iteration counts), "default", or "smoke".
    iterations:
        Overrides the scale's iteration count when given.
    cluster_kwargs:
        Extra :class:`FxCluster` options (``bandwidth_bps``,
        ``keepalive_interval``, ``tcp_kwargs``, ...) for ablations.
    faults:
        Optional fault plan (spec string, canonical dict, or
        :class:`~repro.faults.FaultPlan`) injected into the testbed;
        enables TCP loss recovery.
    sanitize:
        Run under the simulation sanitizer
        (:class:`~repro.simlint.SimSanitizer`): invariant violations
        raise :class:`~repro.simlint.SanitizerError` instead of silently
        corrupting the trace.  Does not change the trace bytes; ``None``
        defers to ``REPRO_SANITIZE``.
    telemetry:
        Attach a :class:`~repro.telemetry.Telemetry` observer to the
        run (``True`` for a private instance, or an existing instance to
        share one).  Does not change the trace bytes; ``None`` attaches
        the process-wide instance when one is installed.
    route:
        A :class:`~repro.pvm.Route`, its string value, or "switched" —
        direct TCP carried over the switched fabric (implies
        ``cluster_kwargs["medium"] = "switched"``).
    qmon:
        Attach observer-only switch-queue monitors (``True``,
        :class:`~repro.netmon.QmonConfig`, or a kwargs dict).  Requires
        the switched medium.  Does not change the trace bytes; the
        :class:`~repro.netmon.FabricMonitor` lands in ``detail["qmon"]``.
    detail:
        Pass a dict to receive the run summary —
        :meth:`FxCluster.fault_report` plus ``retransmit_share`` — and
        the testbed itself (``detail["cluster"]``) in addition to the
        trace (it does not affect the trace bytes or the cache key).
    """
    if iterations is None:
        try:
            iterations = ITERATIONS[name][scale]
        except KeyError:
            raise KeyError(
                f"unknown scale {scale!r} for {name!r}; "
                f"known: {sorted(ITERATIONS.get(name, {}))}"
            ) from None
    program = make_program(name, **(program_kwargs or {}))
    route, medium = resolve_route(route)
    cluster_kwargs = dict(cluster_kwargs or {})
    if medium is not None:
        existing = cluster_kwargs.setdefault("medium", medium)
        if existing != medium:
            raise ValueError(
                f"route requires medium {medium!r} but cluster_kwargs "
                f"pins {existing!r}"
            )
    if qmon is not None:
        cluster_kwargs.setdefault("qmon", qmon)
    cluster = FxCluster(n_machines=nprocs + 1, seed=seed, faults=faults,
                        sanitize=sanitize, telemetry=telemetry,
                        **cluster_kwargs)
    runtime = FxRuntime(
        cluster, nprocs, work_model_for(name, seed=seed), route=route
    )
    trace = runtime.execute(program, iterations)
    if detail is not None:
        detail.update(cluster.fault_report())
        detail["packets"] = len(trace)
        detail["retransmit_share"] = trace.retransmit_share()
        detail["cluster"] = cluster
        if cluster.qmon is not None:
            detail["qmon"] = cluster.qmon
    return trace


def kernel_table() -> list:
    """Paper Figure 2: pattern / kernel / description rows."""
    descriptions = {
        "sor": "2D Successive overrelaxation",
        "2dfft": "2D Data parallel FFT",
        "t2dfft": "2D Task parallel FFT",
        "seq": "Sequential I/O",
        "hist": "2D Image histogram",
    }
    rows = []
    for name in KERNELS:
        cls = PROGRAMS[name]
        rows.append(
            {
                "pattern": str(cls.pattern),
                "kernel": name.upper(),
                "description": descriptions[name],
            }
        )
    return rows
