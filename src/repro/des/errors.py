"""Exception types for the discrete-event simulation engine."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by the DES engine."""


class EmptySchedule(SimulationError):
    """Raised by :meth:`Simulator.step` when no events remain."""


class StopSimulation(Exception):
    """Internal control-flow exception that ends :meth:`Simulator.run`.

    Carries the value the simulation run should return.
    """

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value

