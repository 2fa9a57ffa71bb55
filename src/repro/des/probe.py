"""One observer slot per simulator: ``sim.probe``.

Observers (the sanitizer, telemetry, the switch-queue monitor) watch a
run without taking part in it.  ``sim.probe`` is ``None`` while nothing
is subscribed; otherwise its ``on_<event>`` attributes call, in
subscription order, every subscriber implementing that hook.  Hook
sites bind ``probe = sim.probe`` at first resume or per use, never at
construction, and test ``probe is not None`` once.  The hook table is
in ``docs/architecture.md`` ("Observers").
"""

from __future__ import annotations

__all__ = ["HOOKS", "Probe"]

#: Every hook a component fires, grouped by the component that fires it.
HOOKS = (
    "on_pop",                                                # Simulator
    "on_nic_up", "on_enqueue", "on_frame_offered", "on_frame_sent",  # Nic
    "on_collision", "on_backoff", "on_bus_transmission",     # EthernetBus
    "on_delivered", "on_drop",                               # both media
    "on_service_start", "on_token_wait",                     # switch ports
    "on_tcp_data", "on_tcp_data_sent", "on_tcp_ack",         # TCP
    "on_tcp_rto", "on_tcp_fast_retransmit",
    "on_pvm_send_begin", "on_pvm_send_end",                  # PVM
    "on_daemon_route", "on_daemon_drop", "on_keepalive",     # pvmd
    "on_compute", "on_rank_begin", "on_rank_end",            # Fx runtime
    "on_run_begin", "on_run_end",
)


def _ignore(*_args) -> None:
    """Stands in for a hook no subscriber implements."""


def _fan_out(hooks: list):
    if not hooks:
        return _ignore
    if len(hooks) == 1:
        return hooks[0]

    def fan_out(*args) -> None:
        for hook in hooks:
            hook(*args)

    return fan_out


class Probe:
    """The fan-out over one simulator's subscribers, built once per
    subscription (see :meth:`repro.des.Simulator.subscribe`)."""

    __slots__ = ("subscribers",) + HOOKS

    def __init__(self, subscribers: tuple):
        self.subscribers = subscribers
        for hook in HOOKS:
            bound = [getattr(s, hook) for s in subscribers if hasattr(s, hook)]
            setattr(self, hook, _fan_out(bound))

    def watches(self, hook: str) -> bool:
        """True when some subscriber implements ``hook``."""
        return getattr(self, hook) is not _ignore
