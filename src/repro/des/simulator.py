"""The discrete-event simulator core.

Scheduling is split in two, both preserving the load-bearing
``(time, seq)`` FIFO contract — events scheduled for the same instant
fire in the order they were scheduled, so every simulation (traces,
spectra, tables) is exactly repeatable given the same seeds:

* **Same-instant events** (``succeed``/``fail`` outcomes, zero-delay
  timeouts, process resumes) go straight onto a plain FIFO ``ready``
  list.  Appending in schedule order *is* the ``(time, seq)`` order at
  the current instant, so the hot 60% of schedules cost one list append
  instead of a heap push, and the run loop drains a same-instant batch
  without touching the future-event set at all.
* **Future events** go onto one list of ``(time, seq, entry)`` kept
  with :mod:`heapq`.  The loop pops a whole time batch at once
  (:meth:`Simulator._pop_batch`) and feeds it back through the ready
  list.

The observer check is hoisted out of the inner loop: :meth:`run`
dispatches once to a tight unobserved loop, or to the instrumented one
when a subscriber watches event pops (see :mod:`repro.des.probe`), so
production runs pay nothing per event for the observability hooks.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional

from .errors import EmptySchedule, SimulationError, StopSimulation
from .events import AllOf, AnyOf, Event, Timeout, PROCESSED
from .probe import Probe
from .process import Process, _Resume

__all__ = ["Simulator"]


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in (
        "1", "true", "yes", "on"
    )


class Simulator:
    """A sequential discrete-event simulator.

    Parameters
    ----------
    strict:
        If True (default), an exception escaping a process propagates out
        of :meth:`run` immediately.  If False, the process simply fails
        and waiters receive the exception.
    sanitize:
        Attach a :class:`~repro.simlint.SimSanitizer` that asserts
        causality/conservation invariants while the simulation runs (see
        ``docs/architecture.md``, "Determinism contract & simlint").
        ``None`` (the default) defers to the ``REPRO_SANITIZE``
        environment variable.  The sanitizer observes only — a sanitized
        run is byte-identical to an unsanitized one.
    telemetry:
        Attach a :class:`~repro.telemetry.Telemetry` observer collecting
        spans and counters from every instrumented layer (see
        ``docs/architecture.md``, "Telemetry & profiling").  Pass
        ``True`` for a private instance, an existing
        :class:`~repro.telemetry.Telemetry` to share one, or ``None``
        (the default) for the *process-wide* instance
        (:func:`~repro.telemetry.process_telemetry`) when one is
        installed, so counters aggregate across runs.  Telemetry
        observes only — instrumented runs are byte-identical to
        uninstrumented ones.
    """

    def __init__(self, strict: bool = True, sanitize: Optional[bool] = None,
                 telemetry=None):
        self._now: float = 0.0
        #: Future events as ``(time, seq, entry)``, kept with ``heapq``.
        #: ``seq`` is unique, so ties never compare entries.  Never
        #: rebound: the run loops hold a reference to this list.
        self._heap: list = []
        #: Same-instant FIFO: entries fire at ``_ready_time`` in list order.
        self._ready: list = []
        self._ready_time: float = 0.0
        self._seq: int = 0
        self.strict = strict
        #: Observers in subscription order; ``probe`` fans hooks out to them.
        self.subscribers: tuple = ()
        self.probe: Optional[Probe] = None
        if sanitize is None:
            sanitize = _env_flag("REPRO_SANITIZE")
        self.sanitizer = None
        if sanitize:
            # Imported lazily: simlint is a layer above the DES core.
            from ..simlint.sanitizer import SimSanitizer

            self.sanitizer = self.subscribe(SimSanitizer())
        if telemetry is None:
            # Imported lazily: telemetry is a layer above the core.
            from ..telemetry import process_telemetry

            telemetry = process_telemetry()
        elif telemetry is True:
            from ..telemetry import Telemetry

            telemetry = Telemetry()
        self.telemetry = self.subscribe(telemetry) if telemetry else None

    def subscribe(self, observer):
        """Attach ``observer`` to every hook of :data:`repro.des.probe.HOOKS`
        it implements, and return it.  Subscribe before :meth:`run`:
        components bind ``self.probe`` at their first resume."""
        self.subscribers += (observer,)
        self.probe = Probe(self.subscribers)
        return observer

    # -- time --------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event factories ----------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that succeeds when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that succeeds when any of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------
    def _enqueue(self, event, delay: float) -> None:
        """Place a triggered event on the schedule ``delay`` seconds from
        now.

        Same-instant events append to the ready FIFO (schedule order is
        ``(time, seq)`` order at one instant); future events go on the
        heap with the next sequence number.  A past time (possible only
        by deliberate misuse — ``Timeout`` guards against negative
        delays) also goes on the heap, where the next pop surfaces it
        to the sanitizer's causality check.
        """
        time = self._now + delay
        if time == self._now:
            self._ready.append(event)
        else:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (time, seq, event))

    def schedule_at(self, time: float, value: Any = None) -> Event:
        """An event that fires at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        return Timeout(self, time - self._now, value)

    # -- execution -----------------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none remain."""
        if self._ready:
            return self._ready_time
        return self._heap[0][0] if self._heap else float("inf")

    def _pop_batch(self) -> float:
        """Move every future entry at the earliest pending time onto the
        (empty) ready list, in ``seq`` order, and return that time.
        Raises IndexError when nothing is pending."""
        heap = self._heap
        ready = self._ready
        time, _seq, entry = heappop(heap)
        ready.append(entry)
        while heap and heap[0][0] == time:
            ready.append(heappop(heap)[2])
        return time

    def step(self) -> None:
        """Process exactly one event (the reference path; :meth:`run`
        uses the batched loop)."""
        ready = self._ready
        if not ready:
            if not self._heap:
                raise EmptySchedule("no scheduled events")
            self._ready_time = self._pop_batch()
        entry = ready.pop(0)
        time = self._ready_time
        probe = self.probe
        if probe is not None:
            probe.on_pop(time, self._now, entry)
        self._now = time
        entry._process()

    def _run_fast(self) -> None:
        """The unobserved inner loop: drain ready batches until empty."""
        ready = self._ready
        heap = self._heap
        pop_batch = self._pop_batch
        try:
            while True:
                # C-level iteration: callbacks append to ``ready`` while
                # it is being walked, and the list iterator picks the new
                # entries up in FIFO order — no index bookkeeping and no
                # bounds probe per event.
                for entry in ready:
                    # Dispatch inlined: exactly ``entry._process()`` for
                    # the only two entry shapes that exist (guarded by
                    # the greps in the queue property suite) — a resume
                    # record or an Event firing its callbacks — minus a
                    # method call per event.  Each entry is marked
                    # consumed *before* its effects run (``proc = None``
                    # / ``PROCESSED``), which is what lets the abort path
                    # below identify the unprocessed tail.
                    if entry.__class__ is _Resume:
                        proc = entry.proc
                        if proc is not None:
                            entry.proc = None
                            proc._pending = None
                            proc._resume(entry)
                    else:
                        entry._state = PROCESSED
                        callbacks = entry.callbacks
                        if callbacks:
                            entry.callbacks = None
                            for cb in callbacks:
                                cb(entry)
                del ready[:]
                if not heap:
                    break
                self._ready_time = self._now = pop_batch()
        except BaseException:
            # Keep the unprocessed tail (a StopSimulation or process
            # exception aborts mid-batch; a later run()/step() resumes).
            # Consumed entries are recognizable by their markers; an
            # already-detached resume record is a no-op either way.
            ready[:] = [
                e for e in ready
                if (e.proc is not None
                    if e.__class__ is _Resume
                    else e._state != PROCESSED)
            ]
            raise

    def _run_observed(self) -> None:
        """The same loop with the probe's per-event ``on_pop`` hook."""
        ready = self._ready
        heap = self._heap
        pop_batch = self._pop_batch
        on_pop = self.probe.on_pop
        i = 0
        try:
            while True:
                if i < len(ready):
                    entry = ready[i]
                    i += 1
                    on_pop(self._ready_time, self._now, entry)
                    self._now = self._ready_time
                    entry._process()
                else:
                    del ready[:]
                    i = 0
                    if not heap:
                        break
                    self._ready_time = pop_batch()
        finally:
            del ready[:i]

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain; a number — run until
            that simulation time; an :class:`Event` — run until the event
            triggers (its value is returned, or its exception raised).
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event._state == PROCESSED:
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            stop_event.callbacks.append(self._stop_on)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self._now})"
                )
            stop_event = Timeout(self, horizon - self._now)
            stop_event.callbacks.append(self._stop_on)

        try:
            probe = self.probe
            if probe is None or not probe.watches("on_pop"):
                self._run_fast()
            else:
                self._run_observed()
        except StopSimulation as stop:
            ev = stop.value
            if isinstance(until, Event):
                if ev.ok:
                    return ev.value
                raise ev.value
            return None
        finally:
            # Detach the stop hook on *every* exit path (exhaustion, a
            # propagating process exception, or the stop itself): a
            # callback left behind would raise a spurious StopSimulation
            # into some later run() when the event finally fires.
            if stop_event is not None and stop_event._state != PROCESSED:
                try:
                    stop_event.callbacks.remove(self._stop_on)
                except ValueError:
                    pass
        if isinstance(until, Event):
            raise SimulationError("simulation ran out of events before `until` fired")
        # A numeric horizon always has its Timeout scheduled, so the loop
        # cannot run dry before reaching it — no clock fix-up is needed.
        return None

    @staticmethod
    def _stop_on(event: Event) -> None:
        raise StopSimulation(event)

    def __repr__(self):  # pragma: no cover - cosmetic
        queued = len(self._ready) + len(self._heap)
        return f"<Simulator t={self._now:.6f} queued={queued}>"
