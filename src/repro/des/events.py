"""Core event primitives for the DES engine.

An :class:`Event` is a one-shot occurrence with an outcome (a value or an
exception).  Processes wait on events by ``yield``-ing them; arbitrary
callbacks may also be attached.  Events fire from the simulator's
same-instant ready list or its ``(time, seq)`` heap of future events,
with deterministic FIFO tie-breaking, so two events scheduled for the
same instant always fire in schedule order — this makes every simulation
in the test suite exactly reproducible.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

from .errors import SimulationError

__all__ = ["Event", "Timeout", "AllOf", "PENDING", "TRIGGERED", "PROCESSED"]

#: Event lifecycle states.
PENDING = 0
TRIGGERED = 1  # outcome decided, sitting in the event queue
PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot simulation event.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.des.simulator.Simulator`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state")

    def __init__(self, sim):
        self.sim = sim
        #: Pending-side attach list; replaced by ``None`` once processed.
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: int = PENDING

    # -- inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event's outcome has been decided."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's outcome value (or exception if it failed)."""
        if self._state == PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- outcome -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Decide the event's outcome as success and schedule callbacks.

        Outcomes always fire at the current instant, so the event goes
        straight onto the simulator's same-instant ready FIFO — append
        order there is exactly the ``(time, seq)`` order the heap used
        to impose.
        """
        if self._state != PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.sim._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Decide the event's outcome as failure and schedule callbacks."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.sim._ready.append(self)
        return self

    # -- engine hook -------------------------------------------------
    def _process(self) -> None:
        """Run callbacks.  Called exactly once by the simulator loop."""
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            # Dropped, not replaced: nothing may attach to a processed
            # event, so allocating a fresh list here would be pure waste
            # on the hottest dispatch step.
            self.callbacks = None
            for cb in callbacks:
                cb(self)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} state={self._state}>"


class Timeout(Event):
    """An event that succeeds automatically after a simulated delay."""

    __slots__ = ()

    def __init__(self, sim, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Slots assigned directly (no super().__init__) — timeouts are
        # the engine's hottest allocation, and they are born TRIGGERED.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        now = sim._now
        time = now + delay
        if time == now:
            # Zero (or sub-ulp) delay: fires this instant, FIFO order.
            sim._ready.append(self)
        else:
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (time, seq, self))


class AllOf(Event):
    """Succeeds when every child event has succeeded, with their values
    keyed by position; fails with the first child failure."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim, events):
        super().__init__(sim)
        self.events = tuple(events)
        self._n_done = 0
        for ev in self.events:
            if not isinstance(ev, Event):
                raise TypeError(f"not an Event: {ev!r}")
            if ev.sim is not sim:
                raise SimulationError("events belong to different simulators")
        # Attach after validation so a bad list leaves no dangling callbacks.
        for ev in self.events:
            if ev.processed:
                if not ev.ok:
                    self.fail(ev.value)
                    return
                self._n_done += 1
            else:
                ev.callbacks.append(self._child_done)
        self._succeed_if_done()

    def _child_done(self, ev: Event) -> None:
        if self._state != PENDING:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._n_done += 1
        self._succeed_if_done()

    def _succeed_if_done(self) -> None:
        if self._n_done == len(self.events):
            # Every child has been processed and succeeded, so each
            # value is final.
            self.succeed({i: ev.value for i, ev in enumerate(self.events)})
