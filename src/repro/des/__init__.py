"""A small deterministic discrete-event simulation engine.

This is the substrate under the simulated cluster: processes are Python
generators that yield :class:`Event` objects, and one scheduler — a
same-instant FIFO plus a ``heapq`` list of future events — with
``(time, seq)`` FIFO tie-breaking guarantees exact reproducibility.

Quick example::

    from repro.des import Simulator

    sim = Simulator()

    def worker(sim, results):
        yield sim.timeout(1.5)
        results.append(sim.now)

    out = []
    sim.process(worker(sim, out))
    sim.run()
    assert out == [1.5]
"""

from .errors import EmptySchedule, SimulationError
from .events import AllOf, Event, Timeout
from .process import Process
from .resources import FilterStore, Store
from .simulator import Simulator

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Store",
    "FilterStore",
    "AllOf",
    "SimulationError",
    "EmptySchedule",
]
