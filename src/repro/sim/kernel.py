"""A small discrete-event simulation kernel.

The evaluation of the paper runs against a real three-tier deployment on
an 8-node cluster.  Lacking that testbed, the reproduction drives the
tracer with traces produced by a simulated cluster; this module is the
simulation engine underneath it -- a deliberately small, dependency-free
cousin of SimPy:

* :class:`Environment` owns simulated time and the event heap,
* :class:`Event` is a one-shot signal carrying a value,
* :class:`Process` runs a generator that ``yield``s events,
* :class:`Resource` models a counted resource with a FIFO wait queue
  (CPUs, worker pools, thread pools),
* :class:`Store` is an unbounded FIFO message queue (socket buffers,
  accept queues).

The kernel is deterministic: ties in simulated time are broken by a
monotonically increasing sequence number, so a seeded workload always
produces the identical trace -- a property the accuracy tests rely on.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Environment:
    """Simulated clock plus the pending-callback heap."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self,
        callback: Callable[[Any], None],
        delay: float = 0.0,
        value: Any = None,
    ) -> None:
        """Run ``callback(value)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError("cannot schedule into the past")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._sequence), callback, value)
        )

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """An event that fires after ``delay`` simulated seconds."""
        event = Event(self)
        event._succeed_later(delay, value)
        return event

    def event(self) -> "Event":
        """A bare event, to be succeeded manually."""
        return Event(self)

    def process(self, generator: Generator["Event", Any, Any]) -> "Process":
        """Start a new simulation process from a generator."""
        return Process(self, generator)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap empties or simulated time reaches ``until``."""
        while self._heap:
            at, _, callback, value = self._heap[0]
            if until is not None and at > until:
                self._now = until
                return
            heapq.heappop(self._heap)
            self._now = at
            callback(value)
        if until is not None and until > self._now:
            self._now = until

    def peek(self) -> Optional[float]:
        """Time of the next scheduled callback, or ``None`` when idle."""
        return self._heap[0][0] if self._heap else None

    @property
    def pending(self) -> int:
        return len(self._heap)


class Event:
    """A one-shot signal.

    Processes wait on events by yielding them; arbitrary callbacks can also
    be attached.  An event fires exactly once, with an optional value.
    """

    __slots__ = ("env", "_callbacks", "_pending", "_dispatched", "_value")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._callbacks: List[Callable[["Event"], None]] = []
        self._pending = True
        self._dispatched = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return not self._pending

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now (callbacks run at the current time)."""
        if not self._pending:
            raise SimulationError("event already triggered")
        self._pending = False
        self._value = value
        self.env.schedule(self._dispatch)
        return self

    def _succeed_later(self, delay: float, value: Any = None) -> None:
        if not self._pending:
            raise SimulationError("event already triggered")
        self._pending = False
        self._value = value
        self.env.schedule(self._dispatch, delay=delay)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach a callback; it always runs, even if the event already fired."""
        if self._dispatched:
            self.env.schedule(lambda _value: callback(self))
        else:
            self._callbacks.append(callback)

    def _dispatch(self, _value: Any = None) -> None:
        self._dispatched = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Process:
    """A simulation process driven by a generator of events.

    The generator advances each time the event it yielded fires; the value
    the event carries becomes the result of the ``yield`` expression.  When
    the generator returns, :attr:`completion` fires with its return value.
    """

    def __init__(self, env: Environment, generator: Generator[Event, Any, Any]) -> None:
        self.env = env
        self._generator = generator
        self.completion = Event(env)
        env.schedule(self._bootstrap)

    @property
    def finished(self) -> bool:
        return self.completion.triggered

    def _bootstrap(self, _value: Any) -> None:
        self._advance(None)

    def _advance(self, send_value: Any) -> None:
        try:
            target = self._generator.send(send_value)
        except StopIteration as stop:
            self.completion.succeed(getattr(stop, "value", None))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"processes must yield Event objects, got {type(target)!r}"
            )
        target.add_callback(lambda event: self._advance(event.value))


class Grant:
    """Token returned by :meth:`Resource.request`; pass it to ``release``."""

    __slots__ = ("resource", "active")

    def __init__(self, resource: "Resource") -> None:
        self.resource = resource
        self.active = True


class Resource:
    """A counted resource with a FIFO wait queue (CPUs, worker pools)."""

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Tuple[Event, Grant]] = deque()
        #: total time-weighted busy integral, for utilisation reporting
        self._busy_integral = 0.0
        self._last_change = env.now

    @property
    def in_use(self) -> int:
        return self._in_use

    def utilisation(self, elapsed: Optional[float] = None) -> float:
        """Mean fraction of capacity busy since construction."""
        self._account()
        total = elapsed if elapsed is not None else (self.env.now or 1e-12)
        if total <= 0:
            return 0.0
        return self._busy_integral / (total * self.capacity)

    def request(self) -> Event:
        """Event that fires (with a :class:`Grant`) once a unit is granted."""
        event = Event(self.env)
        grant = Grant(self)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            event.succeed(grant)
        else:
            self._waiters.append((event, grant))
        return event

    def release(self, grant: Grant) -> None:
        """Return a unit previously granted."""
        if not grant.active:
            raise SimulationError("grant released twice")
        grant.active = False
        if self._waiters:
            event, next_grant = self._waiters.popleft()
            event.succeed(next_grant)  # unit transfers directly to the waiter
        else:
            self._account()
            self._in_use -= 1

    def _account(self) -> None:
        now = self.env.now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now


class Store:
    """Unbounded FIFO of items with blocking ``get`` (socket/accept queues)."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
