"""Unit tests for repro.des.simulator run/step semantics."""

import pytest

from repro.des import EmptySchedule, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_step_on_empty_raises(sim):
    with pytest.raises(EmptySchedule):
        sim.step()


def test_peek_empty_is_inf(sim):
    assert sim.peek() == float("inf")


def test_peek_returns_next_time(sim):
    sim.timeout(4.0)
    sim.timeout(2.0)
    assert sim.peek() == 2.0


def test_run_until_time(sim):
    fired = []
    for d in [1.0, 2.0, 3.0]:
        t = sim.timeout(d)
        t.callbacks.append(lambda e, d=d: fired.append(d))
    sim.run(until=2.5)
    assert fired == [1.0, 2.0]
    assert sim.now == 2.5


def test_run_until_time_in_past_raises(sim):
    sim.timeout(5.0)
    sim.run(until=3.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_until_event_returns_value(sim):
    def worker(sim):
        yield sim.timeout(2.0)
        return "payload"

    proc = sim.process(worker(sim))
    sim.timeout(100.0)  # later event that should not run
    result = sim.run(until=proc)
    assert result == "payload"
    assert sim.now == 2.0


def test_run_until_event_raises_on_failure(sim):
    ev = sim.event()

    def failer(sim):
        yield sim.timeout(1.0)
        ev.fail(KeyError("nope"))

    sim.process(failer(sim))
    with pytest.raises(KeyError):
        sim.run(until=ev)


def test_run_until_never_fired_event_raises(sim):
    ev = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_run_until_already_processed_event(sim):
    def worker(sim):
        yield sim.timeout(1.0)
        return 5

    proc = sim.process(worker(sim))
    sim.run()
    assert sim.run(until=proc) == 5


def test_run_until_horizon_beyond_last_event_advances_clock(sim):
    sim.timeout(1.0)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_clock_monotonicity_across_many_events(sim):
    times = []

    def probe(sim, delays):
        for d in delays:
            yield sim.timeout(d)
            times.append(sim.now)

    sim.process(probe(sim, [0.5] * 10))
    sim.process(probe(sim, [0.3] * 20))
    sim.run()
    assert times == sorted(times)
    assert sim.now == pytest.approx(6.0)
