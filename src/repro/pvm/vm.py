"""The parallel virtual machine: machines, tasks, and message routing.

A :class:`VirtualMachine` ties a set of simulated workstations into one
PVM.  Tasks are spawned onto machines; task-to-task sends pick one of the
two PVM transfer mechanisms (paper §4):

* ``RouteDirect`` — a TCP connection straight between the two user
  processes (what all the Fx kernels and AIRSHED use);
* ``RouteDefault`` — hop through the pvmd daemons over UDP.

Same-machine messages always use local IPC and generate no network
traffic.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple

from ..des import Event, FilterStore, Simulator
from ..transport import HostStack, TcpConnection
from .daemon import PvmDaemon
from .message import MSG_HEADER, PvmMessage, TaskMessage

__all__ = ["Route", "PvmMachine", "PvmTask", "VirtualMachine"]


class Route(enum.Enum):
    """PVM message routing policy."""

    DIRECT = "direct"   # pvm_setopt(PvmRoute, PvmRouteDirect): TCP
    DEFAULT = "default"  # via pvmd daemons: UDP


class PvmMachine:
    """One workstation enrolled in the virtual machine."""

    def __init__(self, stack: HostStack):
        self.stack = stack
        self.daemon: Optional[PvmDaemon] = None
        self.tasks: List["PvmTask"] = []
        #: Mirrors ``stack.host_id`` (immutable) — read on every send.
        self.host_id: int = stack.host_id

    @property
    def name(self) -> str:
        return self.stack.name


class PvmTask:
    """One user process registered with the VM."""

    def __init__(self, sim: Simulator, tid: int, machine: PvmMachine, name: str = ""):
        self.sim = sim
        self.tid = tid
        self.machine = machine
        self.name = name or f"task{tid}"
        self.mailbox: FilterStore = FilterStore(sim)
        self.messages_sent = 0
        self.messages_received = 0
        #: Mirrors ``machine.host_id`` (immutable) — read on every send.
        self.host_id: int = machine.host_id

    def recv(self, source: Optional[int] = None, tag: Optional[int] = None) -> Event:
        """Event that fires with the next matching :class:`TaskMessage`."""

        def match(msg: TaskMessage) -> bool:
            if source is not None and msg.src_task != source:
                return False
            if tag is not None and msg.tag != tag:
                return False
            return True

        return self.mailbox.get(match)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<PvmTask {self.name} tid={self.tid} on {self.machine.name}>"


class VirtualMachine:
    """The PVM: task registry, routes, and the send path.

    Parameters
    ----------
    sim:
        Driving simulator.
    machines:
        Host stacks enrolled in the VM.
    keepalive_interval:
        Daemon chatter period (0 disables).
    ipc_latency:
        Local (same machine) delivery latency per message hop.
    fragment_overhead:
        Sender CPU time consumed per additional fragment of a multi-pack
        message (list walking + separate write).
    send_overhead:
        Fixed sender CPU cost per ``pvm_send`` call (library and syscall
        path); it paces tight small-message loops like SEQ's.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`; gives every
        daemon its crash windows.
    """

    def __init__(
        self,
        sim: Simulator,
        stacks: List[HostStack],
        keepalive_interval: float = 0.0,
        ipc_latency: float = 100e-6,
        fragment_overhead: float = 60e-6,
        send_overhead: float = 120e-6,
        tcp_kwargs: Optional[dict] = None,
        fault_injector=None,
    ):
        self.sim = sim
        self.machines = [PvmMachine(s) for s in stacks]
        self.ipc_latency = ipc_latency
        self.fragment_overhead = fragment_overhead
        self.send_overhead = send_overhead
        self.tcp_kwargs = dict(tcp_kwargs or {})
        self.fault_injector = fault_injector
        self._tasks: Dict[int, PvmTask] = {}
        self._next_tid = 1
        self._connections: Dict[Tuple[int, int], TcpConnection] = {}
        for m in self.machines:
            m.daemon = PvmDaemon(sim, m.stack, self, keepalive_interval,
                                 fault_injector=fault_injector)

    # -- task management -------------------------------------------------
    def spawn(self, machine_index: int, name: str = "") -> PvmTask:
        """Start a task on the given machine and return its handle."""
        machine = self.machines[machine_index]
        task = PvmTask(self.sim, self._next_tid, machine, name)
        self._next_tid += 1
        self._tasks[task.tid] = task
        machine.tasks.append(task)
        return task

    def task(self, tid: int) -> PvmTask:
        return self._tasks[tid]

    # -- routing -----------------------------------------------------------
    def _connection_for(self, host_a: int, host_b: int) -> TcpConnection:
        key = (min(host_a, host_b), max(host_a, host_b))
        conn = self._connections.get(key)
        if conn is None:
            stack_a = self.machines_by_host()[key[0]].stack
            stack_b = self.machines_by_host()[key[1]].stack
            conn = stack_a.connect(stack_b, **self.tcp_kwargs)
            self._connections[key] = conn
            # One dispatcher per direction demuxes pipe deliveries to tasks.
            self.sim.process(self._dispatch(conn.forward), name="pvm-dispatch")
            self.sim.process(self._dispatch(conn.reverse), name="pvm-dispatch")
        return conn

    def machines_by_host(self) -> Dict[int, PvmMachine]:
        return {m.host_id: m for m in self.machines}

    def _dispatch(self, pipe):
        get = pipe.mailbox.get
        deliver = self.deliver_local
        while True:
            delivered = yield get()
            task_msg = delivered.obj
            if type(task_msg) is TaskMessage:
                deliver(task_msg)

    def deliver_local(self, task_msg: TaskMessage) -> None:
        """Put a message into its destination task's mailbox."""
        task = self._tasks.get(task_msg.dst_task)
        if task is None:
            return
        task.messages_received += 1
        stamped = TaskMessage(
            src_task=task_msg.src_task,
            dst_task=task_msg.dst_task,
            tag=task_msg.tag,
            nbytes=task_msg.nbytes,
            obj=task_msg.obj,
            time=self.sim._now,
        )
        task.mailbox.put(stamped)

    # -- send path ------------------------------------------------------------
    def send(self, src: PvmTask, dst: PvmTask, message: PvmMessage,
             route: Route = Route.DIRECT):
        """Send ``message`` from ``src`` to ``dst``; returns a generator
        to ``yield from`` inside the sending task's process.

        Blocks (in simulated time) until the message is accepted by the
        transport — PVM's ``pvm_send`` semantics.  With no observer the
        inner generator is returned directly: no wrapper frame, so every
        resume of the send path skips one delegation hop.
        """
        src.messages_sent += 1
        probe = self.sim.probe
        if probe is None:
            return self._send_inner(src, dst, message, route)
        return self._send_observed(src, dst, message, route, probe)

    def _send_observed(self, src: PvmTask, dst: PvmTask, message: PvmMessage,
                       route: Route, probe):
        probe.on_pvm_send_begin(src, dst, message, route, self.sim.now)
        try:
            yield from self._send_inner(src, dst, message, route)
        finally:
            probe.on_pvm_send_end(src, dst, message, self.sim.now)

    def _send_inner(self, src: PvmTask, dst: PvmTask, message: PvmMessage,
                    route: Route):
        sim = self.sim
        if self.send_overhead > 0:
            yield self.send_overhead  # sleep: sender CPU cost
        task_msg = TaskMessage(
            src_task=src.tid,
            dst_task=dst.tid,
            tag=message.tag,
            nbytes=message.data_bytes,
            obj=message.obj,
            time=sim._now,
        )

        src_host = src.host_id
        if src_host == dst.host_id:
            # Local IPC: no network traffic.
            yield self.ipc_latency  # sleep
            self.deliver_local(task_msg)
            return

        if route is Route.DIRECT:
            conn = self._connection_for(src_host, dst.host_id)
            pipe = conn.pipe_from(src_host)
            frags = message.wire_fragments()
            if len(frags) == 1:
                yield pipe.send(frags[0], obj=task_msg)
            else:
                # Fragment-list send: each fragment written separately,
                # with per-fragment CPU overhead.  The stream still
                # coalesces on the wire when writes outpace the medium —
                # the mechanism behind T2DFFT's packet-size spread.
                for frag in frags[:-1]:
                    yield pipe.send(frag, obj=None)
                    yield self.fragment_overhead  # sleep: per-fragment CPU
                yield pipe.send(frags[-1], obj=task_msg)
        elif route is Route.DEFAULT:
            # Task -> local daemon (IPC) -> remote daemon (UDP) -> task.
            yield self.ipc_latency  # sleep
            src.machine.daemon.forward(task_msg, dst.host_id)
        else:  # pragma: no cover - future routes
            raise ValueError(f"unknown route {route!r}")
