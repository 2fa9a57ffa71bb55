"""The pvmd daemon: per-machine message router and background chatter.

Three observable behaviours are modelled:

* the **daemon route** for task-to-task messages (the PVM default): the
  message hops task → local daemon (IPC) → remote daemon (UDP) → remote
  task (IPC);
* periodic low-rate **UDP keepalive traffic** between daemons, which the
  paper's promiscuous traces picked up alongside the TCP data streams;
* **crash windows** from an injected fault plan: a crashed daemon
  emits no keepalives and silently drops everything routed through it,
  and its peers detect the outage as a *keepalive gap* — a silence of
  more than :data:`KEEPALIVE_GAP_FACTOR` keepalive intervals from one
  peer, recorded in :attr:`PvmDaemon.keepalive_gaps`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..des import Simulator

__all__ = ["PvmDaemon", "PVMD_PORT", "KEEPALIVE_BYTES", "KEEPALIVE_GAP_FACTOR"]

#: UDP port the daemons listen on.
PVMD_PORT = 1079

#: Size of one daemon keepalive/status datagram.
KEEPALIVE_BYTES = 72

#: A peer silent for more than this many keepalive intervals has a gap
#: (2.5 tolerates one lost keepalive plus jitter before flagging).
KEEPALIVE_GAP_FACTOR = 2.5


class PvmDaemon:
    """One machine's pvmd.

    Parameters
    ----------
    stack:
        The machine's :class:`~repro.transport.HostStack`.
    vm:
        Owning :class:`~repro.pvm.vm.VirtualMachine` (used to find peer
        daemons and deliver to local tasks).
    keepalive_interval:
        Seconds between keepalive rounds; 0 disables chatter.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector` supplying crash
        windows.
    """

    def __init__(self, sim: Simulator, stack, vm,
                 keepalive_interval: float = 0.0,
                 fault_injector=None):
        self.sim = sim
        self.stack = stack
        self.vm = vm
        self.keepalive_interval = keepalive_interval
        self.fault_injector = fault_injector
        self.sock = stack.udp_socket(PVMD_PORT)
        self.datagrams_routed = 0
        #: Messages and keepalives discarded while this daemon was down.
        self.drops = 0
        #: Last keepalive arrival time per peer host.
        self.last_keepalive: Dict[int, float] = {}
        #: Detected outages: (peer_host, silence_start, silence_end).
        self.keepalive_gaps: List[Tuple[int, float, float]] = []
        sim.process(self._rx_loop(), name=f"pvmd{stack.host_id}-rx")
        if keepalive_interval > 0:
            sim.process(self._keepalive_loop(), name=f"pvmd{stack.host_id}-ka")

    def _crashed(self, now: float) -> bool:
        return (self.fault_injector is not None
                and self.fault_injector.crashed(self.stack.host_id, now))

    def _drop(self, what) -> None:
        """Count a message or keepalive swallowed while this daemon is down."""
        self.drops += 1
        if self.fault_injector is not None:
            self.fault_injector.daemon_drops += 1
        probe = self.sim.probe
        if probe is not None:
            probe.on_daemon_drop(self, what)

    # -- daemon route ----------------------------------------------------
    def forward(self, task_msg, dst_host: int) -> None:
        """Send a task message to the peer daemon on ``dst_host`` via UDP."""
        if self._crashed(self.sim.now):
            self._drop(task_msg)
            return
        self.datagrams_routed += 1
        probe = self.sim.probe
        if probe is not None:
            probe.on_daemon_route(self, task_msg, dst_host)
        self.sock.sendto(
            task_msg.nbytes,
            dst_host=dst_host,
            dst_port=PVMD_PORT,
            obj=task_msg,
        )

    def _rx_loop(self):
        while True:
            dgram = yield self.sock.mailbox.get()
            now = self.sim.now
            if self._crashed(now):
                # A crashed daemon's socket swallows everything.
                self._drop(dgram)
                continue
            task_msg = dgram.obj
            if task_msg is None:
                self._note_keepalive(dgram.src_host, now)
                continue  # keepalive
            # Deliver to the destination task via local IPC.
            yield self.vm.ipc_latency  # sleep
            self.vm.deliver_local(task_msg)

    def _note_keepalive(self, peer: int, now: float) -> None:
        last = self.last_keepalive.get(peer)
        if (last is not None and self.keepalive_interval > 0
                and now - last > KEEPALIVE_GAP_FACTOR * self.keepalive_interval):
            self.keepalive_gaps.append((peer, last, now))
        self.last_keepalive[peer] = now

    # -- keepalive chatter -------------------------------------------------
    def _keepalive_loop(self):
        probe = self.sim.probe
        # Stagger daemons so their keepalives don't all collide.
        yield self.sim.timeout(
            self.keepalive_interval * (self.stack.host_id + 1)
            / max(1, len(self.vm.machines))
        )
        while True:
            if not self._crashed(self.sim.now):
                for peer in self.vm.machines:
                    if peer.stack.host_id != self.stack.host_id:
                        self.sock.sendto(
                            KEEPALIVE_BYTES,
                            dst_host=peer.stack.host_id,
                            dst_port=PVMD_PORT,
                            obj=None,
                        )
                        if probe is not None:
                            probe.on_keepalive(self, peer.stack.host_id)
            yield self.sim.timeout(self.keepalive_interval)
