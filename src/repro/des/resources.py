"""FIFO stores: NIC transmit queues, TCP and UDP mailboxes, and PVM task
mailboxes.

A store follows the DES idiom used everywhere else in this package:
``get`` returns an event that a process ``yield``-s on.  Stores are
unbounded, so ``put`` never blocks, and waiting getters are served
strictly FIFO, which keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .events import Event, TRIGGERED

__all__ = ["Store", "FilterStore"]


class Store:
    """An unbounded FIFO queue of Python objects.

    ``put`` never blocks; ``get`` returns an event that fires with the
    next item.
    """

    def __init__(self, sim):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self):
        """Read-only view of queued items (for inspection/tests)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Queue ``item``, or hand it straight to the oldest waiting
        getter; the returned event has already succeeded.

        The fresh event is triggered directly (state set + ready-list
        append — exactly what :meth:`Event.succeed` does for an event
        that cannot have been triggered yet), skipping the method call
        and state guard on the engine's hottest hand-off.
        """
        sim = self.sim
        ev = Event(sim)
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        ev._state = TRIGGERED
        sim._ready.append(ev)
        return ev

    def get(self) -> Event:
        """Take the next item; the returned event fires with the item."""
        sim = self.sim
        ev = Event(sim)
        items = self._items
        if items:
            ev._value = items.popleft()
            ev._state = TRIGGERED
            sim._ready.append(ev)
        else:
            self._getters.append(ev)
        return ev


def _match_any(item: Any) -> bool:
    return True


class FilterStore(Store):
    """A store whose getters may specify a predicate.

    Used by the PVM task mailboxes to match on (source, tag).
    """

    def __init__(self, sim):
        super().__init__(sim)
        self._getters: Deque[tuple] = deque()  # (event, predicate)

    def put(self, item: Any) -> Event:
        sim = self.sim
        ev = Event(sim)
        for i, (getter, pred) in enumerate(self._getters):
            if pred(item):
                del self._getters[i]
                getter.succeed(item)
                break
        else:
            self._items.append(item)
        ev._state = TRIGGERED
        sim._ready.append(ev)
        return ev

    def get(self, predicate=None) -> Event:
        if predicate is None:
            predicate = _match_any
        sim = self.sim
        ev = Event(sim)
        for i, item in enumerate(self._items):
            if predicate(item):
                del self._items[i]
                ev._value = item
                ev._state = TRIGGERED
                sim._ready.append(ev)
                return ev
        self._getters.append((ev, predicate))
        return ev
