"""The Fx run-time system: cluster assembly and SPMD execution.

:class:`FxCluster` builds the testbed — simulator, shared Ethernet,
host stacks, PVM, and a promiscuous trace recorder (the paper's dedicated
measurement workstation, which never runs program tasks).

:class:`FxRuntime` executes an :class:`~repro.fx.program.FxProgram` with
P ranks, one task per machine, giving each rank an :class:`FxContext`
with compute/send/recv primitives and the collectives of
:mod:`repro.fx.patterns`.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..capture import PacketTrace, TraceRecorder
from ..des import Event, Simulator, Timeout
from ..faults import FaultInjector, FaultPlan
from ..net import EthernetBus, Nic, SwitchedFabric
from ..netmon import FabricMonitor, QmonConfig
from ..pvm import PvmMessage, Route, VirtualMachine
from ..transport import HostStack
from .compute import WorkModel
from .program import FxProgram

__all__ = ["FxCluster", "FxContext", "FxRuntime", "run_program"]


class FxCluster:
    """A simulated workstation cluster on one shared Ethernet.

    Parameters
    ----------
    n_machines:
        Workstations on the LAN (the paper used nine; one extra passive
        machine runs the packet filter, which here is the bus listener).
    bandwidth_bps:
        LAN bandwidth; 10 Mb/s reproduces the paper's Ethernet.
    seed:
        Master seed; every stochastic component gets a derived stream.
    medium:
        "ethernet" (the paper's shared CSMA/CD bus) or "switched" (a
        full-duplex output-queued switch with optional per-flow QoS
        reservations — the next-generation LAN of the paper's §1).
    keepalive_interval:
        PVM daemon chatter period (0 disables).
    tcp_kwargs:
        Options forwarded to every TCP pipe (window, sndbuf, mss, ...).
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or spec string /
        canonical dict).  Wires the plan's injector into the bus, NICs,
        daemons, and compute model, and enables TCP loss recovery unless
        ``tcp_kwargs`` explicitly overrides ``loss_recovery``.
    sanitize:
        Attach the runtime simulation sanitizer
        (:class:`~repro.simlint.SimSanitizer`) to the cluster's
        simulator; ``None`` defers to the ``REPRO_SANITIZE`` environment
        variable.  Sanitized runs produce byte-identical traces.
    telemetry:
        Attach a :class:`~repro.telemetry.Telemetry` observer to the
        cluster's simulator (``True`` for a private instance, an
        existing instance to share one); ``None`` defers to the
        ``REPRO_TELEMETRY`` environment variable.  Instrumented runs
        produce byte-identical traces.
    qmon:
        Attach observer-only per-port queue monitors to the switched
        fabric (``True`` for defaults, a :class:`~repro.netmon.QmonConfig`
        or kwargs dict to tune windows/thresholds).  Requires
        ``medium="switched"``; monitored runs produce byte-identical
        traces.  The attached :class:`~repro.netmon.FabricMonitor` is
        exposed as ``cluster.qmon``.
    """

    def __init__(
        self,
        n_machines: int = 5,
        bandwidth_bps: float = 10e6,
        seed: int = 0,
        medium: str = "ethernet",
        keepalive_interval: float = 0.0,
        tcp_kwargs: Optional[dict] = None,
        faults=None,
        sanitize: Optional[bool] = None,
        telemetry=None,
        qmon=None,
    ):
        if n_machines < 2:
            raise ValueError("a cluster needs at least 2 machines")
        self.seed = seed
        self.sim = Simulator(sanitize=sanitize, telemetry=telemetry)
        self.faults: Optional[FaultPlan] = FaultPlan.coerce(faults)
        self.fault_injector: Optional[FaultInjector] = None
        if self.faults is not None:
            if medium != "ethernet":
                raise ValueError(
                    "fault injection currently targets the shared-Ethernet "
                    f"medium, not {medium!r}"
                )
            self.fault_injector = FaultInjector(self.faults)
            tcp_kwargs = dict(tcp_kwargs or {})
            tcp_kwargs.setdefault("loss_recovery", True)
        if medium == "ethernet":
            self.bus = EthernetBus(
                self.sim, bandwidth_bps=bandwidth_bps, seed=seed,
                max_attempts=(self.faults.max_attempts
                              if self.faults is not None else None),
                fault_injector=self.fault_injector,
            )
        elif medium == "switched":
            self.bus = SwitchedFabric(self.sim, link_bps=bandwidth_bps, seed=seed)
        else:
            raise ValueError(f"unknown medium {medium!r}")
        self.qmon = None
        qmon_config = QmonConfig.coerce(qmon)
        if qmon_config is not None:
            if medium != "switched":
                raise ValueError(
                    "queue monitors observe the switched fabric; "
                    f"medium {medium!r} has no output-port queues"
                )
            self.qmon = self.bus.attach_monitor(FabricMonitor(qmon_config))
        queue_limit = (self.faults.nic_queue_limit
                       if self.faults is not None else None)
        self.stacks: List[HostStack] = [
            HostStack(
                self.sim,
                Nic(self.sim, self.bus, i, queue_limit=queue_limit),
                i, name=f"alpha{i}",
            )
            for i in range(n_machines)
        ]
        self.recorder = TraceRecorder(self.bus)
        self.vm = VirtualMachine(
            self.sim,
            self.stacks,
            keepalive_interval=keepalive_interval,
            tcp_kwargs=tcp_kwargs,
            fault_injector=self.fault_injector,
        )

    def trace(self) -> PacketTrace:
        return self.recorder.trace()

    def drop_events(self) -> List:
        """All frames the network destroyed, in time order."""
        return list(self.bus.drop_log)

    def fault_report(self) -> dict:
        """Counters for the run summary: drops by reason, retransmission
        traffic, daemon drops, and keepalive gaps."""
        drops: dict = {}
        for event in self.drop_events():
            drops[event.reason] = drops.get(event.reason, 0) + 1
        pipes = [p for conn in self.vm._connections.values()
                 for p in (conn.forward, conn.reverse)]
        gaps = [gap for m in self.vm.machines
                for gap in getattr(m.daemon, "keepalive_gaps", ())]
        return {
            "faults": self.faults.describe() if self.faults else None,
            "drops": drops,
            "frames_dropped": sum(drops.values()),
            "retransmitted_segments": sum(p.retransmits for p in pipes),
            "retransmitted_bytes": sum(p.bytes_retransmitted for p in pipes),
            "rto_timeouts": sum(p.timeouts for p in pipes),
            "fast_retransmits": sum(p.fast_retransmits for p in pipes),
            "daemon_drops": sum(
                getattr(m.daemon, "drops", 0) for m in self.vm.machines
            ),
            "keepalive_gaps": len(gaps),
        }


class FxContext:
    """The per-rank view of the runtime inside an SPMD body."""

    def __init__(self, runtime: "FxRuntime", rank: int, task, work_model: WorkModel):
        self.runtime = runtime
        self.rank = rank
        self.task = task
        self.work_model = work_model
        self.sim = runtime.sim

    @property
    def nprocs(self) -> int:
        return self.runtime.nprocs

    # -- local computation ------------------------------------------------
    def compute(self, work: float) -> float:
        """A compute phase of ``work`` units; yield the returned delay.

        The return value is a bare delay consumed by the DES sleep
        protocol — yielding it schedules the rank's resume in exactly
        the slot a ``Timeout`` would occupy, without the allocation.
        The phase's (rank, start, end) is appended to the runtime's
        :attr:`FxRuntime.phase_log` — ground truth for validating the
        burst/idle structure recovered from packet traces.
        """
        sim = self.sim
        now = sim._now
        duration = self.work_model.duration(work, now=now)
        if duration > 0:
            self.runtime.phase_log.append((self.rank, now, now + duration))
        probe = sim.probe
        if probe is not None:
            probe.on_compute(self.rank, now, now + duration, work)
        return duration

    # -- point-to-point ---------------------------------------------------
    def send(self, dst_rank: int, nbytes: int, tag: int = 0,
             obj=None, fragments: int = 1):
        """Send ``nbytes`` to ``dst_rank``; returns a generator to
        ``yield from`` (a plain call, so the per-yield delegation chain
        stays one frame shallower than a wrapper generator would be).

        ``fragments > 1`` packs the payload as that many PVM fragments
        (T2DFFT's multi-pack behaviour); otherwise the message is a
        single fragment, as produced by the other kernels' copy loops.
        """
        if not 0 <= dst_rank < self.nprocs:
            raise ValueError(f"bad destination rank {dst_rank}")
        if dst_rank == self.rank:
            raise ValueError("send to self")
        if fragments < 1:
            raise ValueError(f"fragments must be >= 1, got {fragments}")
        msg = PvmMessage(tag=tag, obj=obj)
        if fragments == 1:
            msg.pack(nbytes)
        else:
            base, extra = divmod(nbytes, fragments)
            for i in range(fragments):
                msg.pack(base + (1 if i < extra else 0))
        return self.runtime.vm.send(
            self.task, self.runtime.tasks[dst_rank], msg, route=self.runtime.route
        )

    def recv(self, src_rank: Optional[int] = None, tag: Optional[int] = None) -> Event:
        """Event that fires with the next matching message."""
        source = None
        if src_rank is not None:
            if not 0 <= src_rank < self.nprocs:
                raise ValueError(f"bad source rank {src_rank}")
            source = self.runtime.tasks[src_rank].tid
        return self.task.recv(source=source, tag=tag)

    # -- out-of-band barrier (no traffic; used for structuring only) -------
    def barrier(self) -> Event:
        return self.runtime._barrier_arrive(self.rank)


class FxRuntime:
    """Executes one SPMD program over a cluster.

    Parameters
    ----------
    machines:
        Optional rank -> machine-index map, for co-running several
        programs on one LAN (each runtime on its own machines, all
        sharing the Ethernet).  Defaults to ranks 0..nprocs-1.
    """

    def __init__(
        self,
        cluster: FxCluster,
        nprocs: int,
        work_model: WorkModel,
        route: Route = Route.DIRECT,
        machines: Optional[List[int]] = None,
    ):
        if machines is None:
            machines = list(range(nprocs))
        if len(machines) != nprocs:
            raise ValueError(
                f"machines map has {len(machines)} entries for {nprocs} ranks"
            )
        if any(m >= len(cluster.stacks) or m < 0 for m in machines):
            raise ValueError(
                f"machine indices {machines} out of range for "
                f"{len(cluster.stacks)} machines"
            )
        if len(set(machines)) != nprocs:
            raise ValueError(f"duplicate machine assignment: {machines}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.vm = cluster.vm
        self.nprocs = nprocs
        self.route = route
        self.machines = machines
        self.tasks = [
            self.vm.spawn(machines[r], name=f"rank{r}") for r in range(nprocs)
        ]
        #: Ground-truth compute phases: (rank, start, end) per ctx.compute.
        self.phase_log: List[tuple] = []
        self.contexts = [
            FxContext(self, r, self.tasks[r], work_model.clone(cluster.seed * 1000 + r))
            for r in range(nprocs)
        ]
        injector = getattr(cluster, "fault_injector", None)
        if injector is not None and injector.plan.stalls:
            for rank, ctx in enumerate(self.contexts):
                host = machines[rank]
                ctx.work_model.stall_fn = (
                    lambda now, _h=host: injector.stall_factor(_h, now)
                )
        self._barrier_waiters: List[Event] = []

    def _barrier_arrive(self, rank: int) -> Event:
        ev = Event(self.sim)
        self._barrier_waiters.append(ev)
        if len(self._barrier_waiters) == self.nprocs:
            waiters, self._barrier_waiters = self._barrier_waiters, []
            for w in waiters:
                w.succeed()
        return ev

    def launch(self, program: FxProgram, iterations: int) -> List:
        """Start all rank processes; returns the process handles."""
        probe = self.sim.probe
        procs = []
        for ctx in self.contexts:
            proc = self.sim.process(
                program.run(ctx, iterations), name=f"{program.name}-rank{ctx.rank}"
            )
            if probe is not None:
                probe.on_rank_begin(program, ctx, iterations, self.sim.now)
                proc.callbacks.append(
                    lambda _ev, _c=ctx: probe.on_rank_end(program, _c, self.sim.now)
                )
            procs.append(proc)
        return procs

    def execute(self, program: FxProgram, iterations: int) -> PacketTrace:
        """Run the program to completion and return the captured trace."""
        probe = self.sim.probe
        if probe is not None:
            probe.on_run_begin(self, program, iterations, self.sim.now)
        procs = self.launch(program, iterations)
        self.sim.run(until=self.sim.all_of(procs))
        if probe is not None:
            probe.on_run_end(self, program, self.sim.now)
        return self.cluster.trace()


def run_program(
    program: FxProgram,
    nprocs: int = 4,
    iterations: int = 10,
    work_model: Optional[WorkModel] = None,
    seed: int = 0,
    n_machines: Optional[int] = None,
    route: Route = Route.DIRECT,
    keepalive_interval: float = 0.0,
    tcp_kwargs: Optional[dict] = None,
) -> PacketTrace:
    """One-call convenience: build a cluster, run, return the trace."""
    cluster = FxCluster(
        n_machines=n_machines if n_machines is not None else nprocs + 1,
        seed=seed,
        keepalive_interval=keepalive_interval,
        tcp_kwargs=tcp_kwargs,
    )
    if work_model is None:
        work_model = WorkModel(rate=1e6, rng=random.Random(seed))
    runtime = FxRuntime(cluster, nprocs, work_model, route=route)
    return runtime.execute(program, iterations)
