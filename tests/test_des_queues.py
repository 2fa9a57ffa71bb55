"""The event queue: the simulator's ``(time, seq)`` pop order, and the
scheduler-edge bugfixes that rode along with it.

The load-bearing property is that entries fire in ascending
``(time, seq)`` order — ``seq`` being creation order — whichever path
scheduled them: a :class:`Timeout`, a process sleeping on a bare delay,
or :meth:`Simulator._enqueue`.  The reference is ``sorted`` over what
the test recorded as it scheduled each entry, not a second queue.
"""

import hashlib
import pathlib
import random

import pytest

from repro.des import Event, SimulationError, Simulator, Timeout
from repro.des.process import _Resume

DES_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "des"


# -- pop order against a sorted oracle ----------------------------------


def _random_gap(rng):
    """A gap shaped like the simulator's schedules: a same-instant burst
    (zero), mostly small forward steps, occasionally a sparse jump."""
    roll = rng.random()
    if roll < 0.25:
        return 0.0
    if roll < 0.85:
        return rng.choice((1e-6, 13e-6, 50e-6, 100e-6)) * rng.randint(1, 9)
    return rng.uniform(0.01, 2.0)


def _oracle_run(seed, workers=16, steps=25):
    """Workers that each wait on one random gap at a time, created while
    the simulation runs, so pushes interleave with pops.  Each wait
    cycles through the three schedule paths.  Returns the ``(time,
    creation index)`` of every wait and the indices in firing order."""
    rng = random.Random(seed)
    sim = Simulator()
    created = []
    fired = []

    def worker():
        for _ in range(steps):
            gap = _random_gap(rng)
            index = len(created)
            created.append((sim.now + gap, index))
            path = index % 3
            if path == 0:
                yield sim.timeout(gap)
            elif path == 1:
                yield gap  # the sleep protocol
            else:
                event = sim.event()
                sim._enqueue(event, gap)
                yield event
            fired.append(index)

    for _ in range(workers):
        sim.process(worker())
    sim.run()
    return created, fired


@pytest.mark.parametrize("seed", range(8))
def test_random_schedules_pop_identically(seed):
    """Every wait fires in the order ``sorted`` gives by ``(time,
    creation index)``."""
    created, fired = _oracle_run(seed)
    assert len(fired) == 400
    assert fired == [index for _time, index in sorted(created)]


def _workload_timeline(seed):
    """A mixed workload: the (now, label) sequence is the observable pop
    order."""
    sim = Simulator()
    rng = random.Random(seed)
    timeline = []

    def ticker(label, delays):
        for d in delays:
            yield sim.timeout(d)
            timeline.append((sim.now, label))

    def burster(label):
        for i in range(10):
            yield sim.timeout(rng.choice((0.0, 1e-6, 0.05)))
            timeline.append((sim.now, label, i))

    for p in range(6):
        delays = [rng.uniform(1e-6, 0.3) for _ in range(20)]
        sim.process(ticker(f"t{p}", delays))
    for p in range(3):
        sim.process(burster(f"b{p}"))
    sim.run()
    return timeline


#: sha256 of ``repr(_workload_timeline(seed))``, recorded when a binary
#: heap and a calendar queue both produced it.
TIMELINE_SHA256 = {
    0: "8aa7180e7a34b6339a06a04996563c0bc6e15929d87824458b32240cc5eaad2f",
    1: "09d910e610429f44d8b0d1977ccdf7faa1a5945edf2bc13d033b690675cfbf6f",
    2: "d3f167f0614ae294d8eefeb3a9a8736072e207276c4d8a19e793f67607daed13",
    3: "f5973fd614f1524cf2af6c2a2fd1b6b764d994254faac8dfecc8ea075f82b798",
}


@pytest.mark.parametrize("seed", sorted(TIMELINE_SHA256))
def test_simulation_timeline_matches_recording(seed):
    timeline = _workload_timeline(seed)
    assert len(timeline) == 150
    digest = hashlib.sha256(repr(timeline).encode()).hexdigest()
    assert digest == TIMELINE_SHA256[seed]


def test_clock_is_monotone():
    """Regression for a bucket-boundary rounding bug, at the simulator
    level: three periodic processes with periods 0.1/0.2/0.3 hit inexact
    float boundaries that once popped 1.8 before 1.6."""
    sim = Simulator()
    times = []

    def proc(d):
        for _ in range(8):
            yield sim.timeout(d)
            times.append(sim.now)

    for i in range(3):
        sim.process(proc(0.1 * (i + 1)))
    sim.run()
    assert times == sorted(times)


# -- scheduler-edge bugfixes ------------------------------------------


def test_run_until_event_detaches_stop_callback_on_exhaustion():
    """Regression: ``run(until=ev)`` exhausting the schedule used to
    leave ``_stop_on`` attached to ``ev`` — a later trigger then raised
    a spurious StopSimulation out of an unrelated run()."""
    sim = Simulator()
    ev = sim.event()

    def ticker():
        yield sim.timeout(0.5)

    sim.process(ticker())  # something to run dry on
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=ev)
    assert not ev.callbacks  # detached
    ev.succeed("late")
    sim.run()  # must not raise StopSimulation
    assert ev.processed


def test_run_until_horizon_detaches_after_process_exception():
    sim = Simulator()

    def boom():
        yield sim.timeout(0.5)
        raise RuntimeError("boom")

    sim.process(boom())
    with pytest.raises(RuntimeError):
        sim.run(until=10.0)
    sim.run()  # drains the now-inert horizon timeout without stopping early
    assert sim.now == 10.0


def test_conditions_with_preprocessed_children():
    """AllOf built from events that already fired must complete under
    the batched loop (children never re-enter the queue)."""
    sim = Simulator()
    a = sim.event()
    a.succeed("a")
    b = sim.timeout(0.0, "b")
    sim.run()  # a and b both processed now
    got = {}

    def waiter():
        got["all"] = yield sim.all_of([a, b])

    sim.process(waiter())
    sim.run()
    assert got["all"] == {0: "a", 1: "b"}


# -- engine structure guards ------------------------------------------


def test_hot_classes_have_no_dict():
    """__slots__ holds on every per-event allocation: a single __dict__
    creeping in costs ~100 bytes and a dict lookup per attribute on the
    hottest objects in the engine."""
    sim = Simulator()

    def noop():
        yield sim.timeout(0)

    proc = sim.process(noop())
    for obj in (Event(sim), Timeout(sim, 1.0), proc,
                _Resume(proc, True, None)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_inline_dispatch_covers_every_entry_shape():
    """The fast loop inlines ``entry._process()`` as a two-way branch on
    ``entry.__class__ is _Resume``.  That is only sound while exactly two
    ``_process`` definitions exist in the DES core (Event's and
    _Resume's) and no Event subclass overrides it — this guard fails the
    moment someone adds a third."""
    defs = []
    for path in sorted(DES_DIR.glob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("def _process("):
                defs.append(f"{path.name}:{i}")
    assert len(defs) == 2, defs
    assert {d.split(":")[0] for d in defs} == {"events.py", "process.py"}
