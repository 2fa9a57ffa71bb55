"""Generator-based simulation processes.

A process wraps a Python generator.  The generator yields :class:`Event`
objects; the process suspends until the yielded event triggers, then
resumes with the event's value (or has the event's exception thrown into
it if the event failed).  A :class:`Process` is itself an event that
triggers when the generator returns, so processes can wait on each other.

Resumes with a pre-decided outcome — the initial kick-start, a yield of
an already-processed event, an interrupt wakeup — do not allocate a full
relay :class:`Event`: a :class:`_Resume` record takes exactly the queue
slot the relay would have occupied (same instant, same FIFO position),
so the pop order is unchanged while the allocation and callback
machinery disappear.  The outstanding record is tracked on the process
(``_pending``) so :meth:`Process.interrupt` can detach it — without
that, interrupting a process inside its kick-start or relay window would
advance the generator twice (a ``send`` after the interrupt ``throw``).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from .errors import Interrupt, SimulationError
from .events import Event, PENDING, PROCESSED

__all__ = ["Process"]


class _Resume:
    """A scheduled resume whose outcome is already decided.

    Duck-types the slice of the :class:`Event` surface the resume path
    reads (``_ok``/``_value``) and the scheduler calls (``_process``).
    Detached by :meth:`Process.interrupt` by clearing ``proc`` — the
    queue slot then pops as a no-op, which is what keeps an interrupted
    kick-start/relay from advancing the generator a second time.
    """

    __slots__ = ("proc", "_ok", "_value")

    def __init__(self, proc: "Process", ok: bool, value: Any):
        self.proc = proc
        self._ok = ok
        self._value = value

    def _process(self) -> None:
        proc = self.proc
        if proc is not None:
            proc._pending = None
            proc._resume(self)

    def __repr__(self):  # pragma: no cover - cosmetic
        target = "detached" if self.proc is None else self.proc.name
        return f"<_Resume {target} ok={self._ok}>"


class Process(Event):
    """A running simulation process.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        The generator to drive.  Each ``yield`` must produce an
        :class:`Event` belonging to the same simulator.
    name:
        Optional label used in error messages and repr.
    """

    __slots__ = ("generator", "name", "_target", "_pending", "_resume",
                 "_send", "_throw")

    def __init__(self, sim, generator: Generator, name: Optional[str] = None):
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise TypeError(f"not a generator: {generator!r}") from None
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # The resume callback, bound once.  With telemetry attached the
        # resume's wall time is attributed to this process's name — the
        # raw material of ``repro profile``'s per-subsystem breakdown
        # (resumes never nest, so the timing needs no stack).  Without
        # it, resuming is a direct jump into the advance step: the
        # telemetry check is decided here, not per event.
        if sim.telemetry is None:
            self._resume = self._advance
        else:
            self._resume = self._resume_timed
        # Kick-start: resume the generator at the current simulation
        # time, through the queue so creation order is execution order.
        self._pending = pending = _Resume(self, True, None)
        sim._ready.append(pending)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target (the target event
        itself is unaffected and may still trigger later).  If a resume
        is already in flight — the initial kick-start, a relay of an
        already-processed yield, or an earlier interrupt at the same
        instant — it is detached first, so the generator is advanced
        exactly once, with this interrupt.
        """
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        target = self._target
        if target is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None
        pending = self._pending
        if pending is not None:
            # Detach the in-flight resume: its queue slot stays but pops
            # as a no-op.  The undelivered outcome is discarded, exactly
            # as a pending target's eventual value would be.
            pending.proc = None
        self._pending = wakeup = _Resume(self, False, Interrupt(cause))
        self.sim._ready.append(wakeup)

    # -- engine ------------------------------------------------------
    def _resume_timed(self, event) -> None:
        """Advance the generator, attributing wall time to this process."""
        tel = self.sim.telemetry
        wall_start = tel.clock()
        try:
            self._advance(event)
        finally:
            tel.wall_account(self.name, tel.clock() - wall_start)

    def _advance(self, event) -> None:
        """Advance the generator with ``event``'s outcome."""
        sim = self.sim
        sim._active_process = self
        self._target = None
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                next_event = self._throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process as a failure.
            sim._active_process = None
            self.fail(exc)
            return
        except BaseException as exc:
            sim._active_process = None
            if sim.strict:
                raise
            self.fail(exc)
            return
        sim._active_process = None
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
            self._pending = pending = _Resume(self, True, None)
            now = sim._now
            time = now + next_event
            if time == now:
                sim._ready.append(pending)
            else:
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (time, seq, pending))
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
            self._target = next_event
            next_event.callbacks.append(self._resume)
        else:
            # Already complete: resume via a relay record so ordering
            # stays deterministic.  The record takes exactly the queue
            # slot a relay Event would have — the pop order provably
            # cannot change — without the Event allocation.
            self._pending = pending = _Resume(
                self, next_event._ok, next_event._value
            )
            sim._ready.append(pending)

    def __repr__(self):  # pragma: no cover - cosmetic
        status = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {status}>"
