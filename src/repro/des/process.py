"""Generator-based simulation processes.

A process wraps a Python generator.  The generator yields :class:`Event`
objects; the process suspends until the yielded event triggers, then
resumes with the event's value (or has the event's exception thrown into
it if the event failed).  A :class:`Process` is itself an event that
triggers when the generator returns, so processes can wait on each other.
An exception escaping the generator propagates out of
:meth:`Simulator.run`.

Resumes with a pre-decided outcome — the initial kick-start, a sleep on
a bare delay, a yield of an already-processed event — do not allocate a
full relay :class:`Event`: a :class:`_Resume` record takes exactly the
queue slot the relay would have occupied (same instant, same FIFO
position), so the pop order is unchanged while the allocation and
callback machinery disappear.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from .errors import SimulationError
from .events import Event, PENDING, PROCESSED

__all__ = ["Process"]


class _Resume:
    """A scheduled resume whose outcome is already decided.

    Duck-types the slice of the :class:`Event` surface the resume path
    reads (``_ok``/``_value``) and the scheduler calls (``_process``).
    The batched run loop clears ``proc`` as it consumes the record,
    which is how its abort path tells the unprocessed tail apart.
    """

    __slots__ = ("proc", "_ok", "_value")

    def __init__(self, proc: "Process", ok: bool, value: Any):
        self.proc = proc
        self._ok = ok
        self._value = value

    def _process(self) -> None:
        self.proc._resume(self)

    def __repr__(self):  # pragma: no cover - cosmetic
        target = "consumed" if self.proc is None else self.proc.name
        return f"<_Resume {target} ok={self._ok}>"


class Process(Event):
    """A running simulation process.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        The generator to drive.  Each ``yield`` must produce an
        :class:`Event` belonging to the same simulator, or a bare
        non-negative number to sleep for that many seconds.
    name:
        Optional label used in error messages and repr.
    """

    __slots__ = ("name", "_resume", "_send", "_throw")

    def __init__(self, sim, generator: Generator, name: Optional[str] = None):
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise TypeError(f"not a generator: {generator!r}") from None
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        # The resume callback, bound once, so registering it on a target
        # allocates no bound method.
        self._resume = self._advance
        # Kick-start: resume the generator at the current simulation
        # time, through the queue so creation order is execution order.
        sim._ready.append(_Resume(self, True, None))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    # -- engine ------------------------------------------------------
    def _advance(self, event) -> None:
        """Advance the generator with ``event``'s outcome."""
        sim = self.sim
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                next_event = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        # Sleep protocol: a bare number is a delay.  The resume record
        # goes into exactly the ``(time, seq)`` slot the equivalent
        # ``Timeout`` would have taken (the Timeout would consume the
        # same sequence number at construction, immediately before the
        # generator suspends), so pop order and event count are
        # unchanged — but the Timeout allocation, its callbacks list,
        # and the callback dispatch all disappear.  This is the engine's
        # hottest yield shape: busy-waits, contention windows, wire
        # times, and CPU overheads all sleep.
        cls = next_event.__class__
        if cls is float or cls is int:
            if next_event < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay: "
                    f"{next_event!r}"
                )
            now = sim._now
            time = now + next_event
            if time == now:
                sim._ready.append(_Resume(self, True, None))
            else:
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (time, seq, _Resume(self, True, None)))
            return
        # Validate by attribute probe: every Event has ``sim``/``_state``,
        # so the AttributeError path fires only for non-event yields —
        # the isinstance call this replaces cost more than the rest of
        # the check on every single yield.
        try:
            if next_event.sim is not sim:
                raise SimulationError(
                    f"process {self.name!r} yielded an event from another simulator"
                )
            state = next_event._state
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            ) from None
        if state != PROCESSED:
            next_event.callbacks.append(self._resume)
        else:
            # Already complete: resume via a relay record so ordering
            # stays deterministic.  The record takes exactly the queue
            # slot a relay Event would have — the pop order provably
            # cannot change — without the Event allocation.
            sim._ready.append(_Resume(self, next_event._ok, next_event._value))

    def __repr__(self):  # pragma: no cover - cosmetic
        status = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {status}>"
