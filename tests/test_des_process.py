"""Unit tests for repro.des.process."""

import pytest

from repro.des import Interrupt, SimulationError, Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator()


def test_process_runs_to_completion(sim):
    log = []

    def worker(sim):
        log.append(("start", sim.now))
        yield sim.timeout(1.0)
        log.append(("mid", sim.now))
        yield sim.timeout(2.0)
        log.append(("end", sim.now))

    sim.process(worker(sim))
    sim.run()
    assert log == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]


def test_process_return_value(sim):
    def worker(sim):
        yield sim.timeout(1.0)
        return "result"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "result"


def test_process_is_waitable(sim):
    def child(sim):
        yield sim.timeout(2.0)
        return 7

    def parent(sim, out):
        val = yield sim.process(child(sim))
        out.append((sim.now, val))

    out = []
    sim.process(parent(sim, out))
    sim.run()
    assert out == [(2.0, 7)]


def test_non_generator_rejected(sim):
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_yield_non_event_raises(sim):
    def bad(sim):
        yield "not an event"

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_yield_bare_delay_sleeps(sim):
    """The sleep protocol: yielding a number suspends for that delay,
    in exactly the slot the equivalent ``Timeout`` would take."""
    log = []

    def sleeper(sim, log):
        yield 1.5
        log.append(sim.now)
        yield 0  # int delays are sleeps too; zero fires this instant
        log.append(sim.now)

    sim.process(sleeper(sim, log))
    sim.run()
    assert log == [1.5, 1.5]


def test_yield_negative_delay_raises(sim):
    def bad(sim):
        yield -0.5

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_sleep_interleaves_identically_with_timeouts(sim):
    """A bare-delay sleep and a Timeout scheduled at the same instant
    keep their FIFO schedule order."""
    order = []

    def with_sleep(sim, order):
        yield 1.0
        order.append("sleep")

    def with_timeout(sim, order):
        yield Timeout(sim, 1.0)
        order.append("timeout")

    sim.process(with_sleep(sim, order))
    sim.process(with_timeout(sim, order))
    sim.run()
    assert order == ["sleep", "timeout"]


def test_interrupt_during_sleep(sim):
    log = []

    def sleeper(sim, log):
        try:
            yield 5.0
            log.append("woke")
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, sim.now))

    proc = sim.process(sleeper(sim, log))

    def interrupter(sim, proc):
        yield 1.0
        proc.interrupt("now")

    sim.process(interrupter(sim, proc))
    sim.run()
    assert log == [("interrupted", "now", 1.0)]


def test_yield_foreign_event_raises(sim):
    other = Simulator()

    def bad(sim):
        yield other.timeout(1)

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_exception_propagates_in_strict_mode(sim):
    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("bad")

    sim.process(boom(sim))
    with pytest.raises(ValueError):
        sim.run()


def test_exception_fails_process_in_lenient_mode():
    sim = Simulator(strict=False)

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("bad")

    def watcher(sim, out):
        try:
            yield sim.process(boom(sim))
        except ValueError as e:
            out.append(str(e))

    out = []
    sim.process(watcher(sim, out))
    sim.run()
    assert out == ["bad"]


def test_yield_already_processed_event(sim):
    t = sim.timeout(0.5)
    sim.run()
    assert t.processed

    def worker(sim, out):
        yield t  # already processed: should resume without deadlock
        out.append(sim.now)

    out = []
    sim.process(worker(sim, out))
    sim.run()
    assert out == [0.5]


class TestInterrupt:
    def test_interrupt_wakes_process(self, sim):
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
                log.append("overslept")
            except Interrupt as i:
                log.append(("interrupted", sim.now, i.cause))

        def interrupter(sim, victim):
            yield sim.timeout(1.0)
            victim.interrupt("wake up")

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        sim.run()
        assert log == [("interrupted", 1.0, "wake up")]

    def test_interrupted_process_can_continue(self, sim):
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass
            yield sim.timeout(5.0)
            log.append(sim.now)

        def interrupter(sim, victim):
            yield sim.timeout(1.0)
            victim.interrupt()

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        sim.run()
        assert log == [6.0]

    def test_interrupt_dead_process_raises(self, sim):
        def quick(sim):
            yield sim.timeout(1.0)

        proc = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_target_event_unaffected_by_interrupt(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                yield sim.timeout(0.1)

        victim = sim.process(sleeper(sim))

        def interrupter(sim):
            yield sim.timeout(1.0)
            victim.interrupt()

        sim.process(interrupter(sim))
        sim.run()
        # the original 10s timeout still fired at t=10
        assert sim.now == 10.0

    def test_unhandled_interrupt_fails_process(self, sim):
        def sleeper(sim):
            yield sim.timeout(100.0)

        def interrupter(sim, victim):
            yield sim.timeout(1.0)
            victim.interrupt("die")

        def watcher(sim, victim, out):
            try:
                yield victim
            except Interrupt as i:
                out.append(i.cause)

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        out = []
        sim.process(watcher(sim, victim, out))
        sim.run()
        assert out == ["die"]


def test_two_processes_interleave(sim):
    log = []

    def ticker(sim, name, period):
        for _ in range(3):
            yield sim.timeout(period)
            log.append((name, sim.now))

    sim.process(ticker(sim, "a", 1.0))
    sim.process(ticker(sim, "b", 1.5))
    sim.run()
    # At the t=3.0 tie, b's timeout was scheduled at t=1.5 (before a's,
    # scheduled at t=2.0), so FIFO tie-breaking fires b first.
    assert log == [
        ("a", 1.0),
        ("b", 1.5),
        ("a", 2.0),
        ("b", 3.0),
        ("a", 3.0),
        ("b", 4.5),
    ]
