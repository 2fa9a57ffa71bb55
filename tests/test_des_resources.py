"""Unit tests for repro.des.resources (Store, FilterStore)."""

import pytest

from repro.des import FilterStore, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = store.get()
        assert got.triggered and got.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        out = []

        def consumer(sim):
            item = yield store.get()
            out.append((sim.now, item))

        def producer(sim):
            yield sim.timeout(2.0)
            yield store.put("late")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert out == [(2.0, "late")]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        got = [store.get().value for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        out = []

        def consumer(sim, name):
            item = yield store.get()
            out.append((name, item))

        for name in "abc":
            sim.process(consumer(sim, name))

        def producer(sim):
            yield sim.timeout(1.0)
            for i in range(3):
                yield store.put(i)

        sim.process(producer(sim))
        sim.run()
        assert out == [("a", 0), ("b", 1), ("c", 2)]

    def test_len_and_items(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.items == (1, 2)


class TestFilterStore:
    def test_get_with_predicate(self, sim):
        store = FilterStore(sim)
        store.put({"tag": 1, "data": "a"})
        store.put({"tag": 2, "data": "b"})
        got = store.get(lambda m: m["tag"] == 2)
        assert got.triggered and got.value["data"] == "b"
        # the non-matching item is still there
        assert len(store) == 1

    def test_blocked_predicate_wakes_on_matching_put(self, sim):
        store = FilterStore(sim)
        out = []

        def consumer(sim):
            item = yield store.get(lambda m: m == "wanted")
            out.append((sim.now, item))

        def producer(sim):
            yield sim.timeout(1.0)
            yield store.put("other")
            yield sim.timeout(1.0)
            yield store.put("wanted")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert out == [(2.0, "wanted")]
        assert store.items == ("other",)

    def test_multiple_waiters_matched_independently(self, sim):
        store = FilterStore(sim)
        out = []

        def consumer(sim, want):
            item = yield store.get(lambda m, w=want: m == w)
            out.append(item)

        sim.process(consumer(sim, "x"))
        sim.process(consumer(sim, "y"))

        def producer(sim):
            yield sim.timeout(1.0)
            yield store.put("y")
            yield store.put("x")

        sim.process(producer(sim))
        sim.run()
        assert sorted(out) == ["x", "y"]

    def test_default_predicate_takes_first(self, sim):
        store = FilterStore(sim)
        store.put("a")
        store.put("b")
        assert store.get().value == "a"
