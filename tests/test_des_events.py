"""Unit tests for repro.des.events."""

import pytest

from repro.des import AllOf, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_initial_state(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("x"))
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_callbacks_run_on_step(self, sim):
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("hello")
        assert seen == []  # not yet processed
        sim.step()
        assert seen == ["hello"]
        assert ev.processed

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []
        for i in range(5):
            ev = sim.event()
            ev.callbacks.append(lambda e, i=i: order.append(i))
            ev.succeed()
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestTimeout:
    def test_negative_delay_raises(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_zero_delay_ok(self, sim):
        t = sim.timeout(0)
        sim.run()
        assert t.processed

    def test_timeout_advances_clock(self, sim):
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_timeout_value(self, sim):
        t = sim.timeout(1.0, value="done")
        sim.run()
        assert t.value == "done"

    def test_timeouts_fire_in_time_order(self, sim):
        fired = []
        for d in [3.0, 1.0, 2.0]:
            t = sim.timeout(d)
            t.callbacks.append(lambda e, d=d: fired.append(d))
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(2.0, value="b")
        cond = sim.all_of([t1, t2])
        sim.run()
        assert cond.processed
        assert cond.value == {0: "a", 1: "b"}
        assert sim.now == 2.0

    def test_all_of_empty_succeeds_immediately(self, sim):
        cond = sim.all_of([])
        sim.run()
        assert cond.processed and cond.ok

    def test_all_of_propagates_failure(self, sim):
        boom = RuntimeError("boom")
        ev = sim.event()
        t = sim.timeout(1.0)
        cond = sim.all_of([ev, t])
        ev.fail(boom)

        def watcher(sim, out):
            try:
                yield cond
            except RuntimeError as e:
                out.append(e)

        out = []
        sim.process(watcher(sim, out))
        sim.run()
        assert out == [boom]

    def test_mixed_simulator_events_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.all_of([sim.timeout(1), other.timeout(1)])

    def test_all_of_with_pretriggered_events(self, sim):
        t1 = sim.timeout(0.5)
        sim.run()  # t1 now processed
        t2 = sim.timeout(1.0)
        cond = AllOf(sim, [t1, t2])
        sim.run()
        assert cond.processed and cond.ok
