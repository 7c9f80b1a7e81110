"""Many child timelines behind one surface.

The cluster gateway (replicas), the disaggregated engine (prefill and
decode workers) and the dedicated baseline (one engine per variant) each
put discrete-event children, every one on its own clock, behind one
surface.  :class:`TimelineSet` is that mechanism, once: the children in a
:class:`~repro.sim.KeyedHeap` keyed by ``(next-action time, id)``, the
frontier, the request -> child owner map with cancel routing, hook
fan-out (``wire`` runs when a child joins and on :meth:`rewire`, never
per step) and reap-on-drain (``on_drained``).

**The frontier**, defined here and nowhere else.  A child's key is its
``next_action_s``: its clock while it has arrived work, its next
scheduled arrival or live cancel while it has only future work, None
when it is idle or past its time limit.  A child whose last step
returned False while work remained is *wedged* and has no key until it
is touched again (a submit, a cancel or a reseat).  The frontier is the
least key or, when no child has one, the largest clock any child,
current or removed, has reached.  :meth:`step` advances the least-keyed
child (ties broken by id), so stepping never moves the frontier
backward; only a touch that hands a child earlier work can.

Keys are re-read after the child's own step and on :meth:`touch`, which
the composite calls after submitting to, cancelling on or re-seating a
child; replaced heap entries are dropped when they surface.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generic, List, Optional, Protocol,
                    Tuple, TypeVar)

from .clock import SimClock
from .queue import KeyedHeap

__all__ = ["Timeline", "TimelineSet", "FanOutHook"]


class Timeline(Protocol):
    """What a :class:`TimelineSet` needs from a child."""

    @property
    def clock(self) -> float: ...  # pragma: no cover - protocol

    @property
    def next_action_s(self) -> Optional[float]: ...  # pragma: no cover

    @property
    def unfinished(self) -> int: ...  # pragma: no cover - protocol

    def step(self) -> bool: ...  # pragma: no cover - protocol

    def schedule_cancel(self, request_id: int, at_s: float,
                        reason: str = ...) -> None: ...  # pragma: no cover


C = TypeVar("C", bound=Timeline)


class TimelineSet(Generic[C]):
    """Children on their own clocks, stepped least-key first."""

    def __init__(self, wire: Optional[Callable[[C], None]] = None,
                 on_drained: Optional[Callable[[C], None]] = None) -> None:
        self._wire = wire
        self._on_drained = on_drained
        self._ident: Dict[C, Any] = {}     # joined children, in order
        self._live: Dict[C, Tuple[float, int]] = {}   # keyed: (key, stamp)
        self._heap: KeyedHeap[C] = KeyedHeap()
        self._seq = 0
        self._removed = SimClock()         # latest clock of removed children
        self._owner: Dict[int, C] = {}
        self._parked: Dict[int, Tuple[float, str]] = {}

    @property
    def children(self) -> List[C]:
        """The children in the order they joined."""
        return list(self._ident)

    def add(self, child: C, ident: Any) -> None:
        """Join ``child``; ``ident`` (unique, ordered) breaks key ties."""
        self._ident[child] = ident
        if self._wire is not None:
            self._wire(child)
        self.touch(child)

    def remove(self, child: C) -> None:
        """Drop ``child``; its clock still bounds :attr:`max_clock`."""
        del self._ident[child]
        self._live.pop(child, None)
        self._removed.advance(child.clock)

    def reset(self) -> None:
        """A fresh timeline over the current children: keys re-read,
        owners and parked cancels dropped, removed clocks forgotten."""
        self._live.clear()
        self._heap.clear()
        self._removed.reset()
        self._owner.clear()
        self._parked.clear()
        for child in self._ident:
            self.touch(child)

    def rewire(self) -> None:
        """Re-run ``wire`` on every child (a composite hook changed)."""
        if self._wire is not None:
            for child in self._ident:
                self._wire(child)

    # ------------------------------------------------------------------ #
    def touch(self, child: C) -> None:
        """Re-read ``child``'s key (this also clears a wedge)."""
        self._set_key(child, child.next_action_s)

    def _set_key(self, child: C, key: Optional[float]) -> None:
        live = self._live.get(child)
        if key is None:
            self._live.pop(child, None)
        elif live is None or live[0] != key:
            self._seq += 1
            self._live[child] = (key, self._seq)
            self._heap.push((key, self._ident[child], self._seq), child)

    def _top(self) -> Optional[C]:
        heap = self._heap
        while heap:
            entry, child = heap.peek_key(), heap.peek()
            if entry is not None and child is not None and \
                    self._live.get(child, (0.0, -1))[1] == entry[2]:
                return child
            heap.pop()
        return None

    def least_key(self) -> Optional[float]:
        """The least child key (None when no child has one)."""
        child = self._top()
        return None if child is None else self._live[child][0]

    @property
    def max_clock(self) -> float:
        """The largest clock any child, current or removed, has reached."""
        return max([self._removed.now] + [c.clock for c in self._ident])

    @property
    def frontier(self) -> float:
        key = self.least_key()
        return self.max_clock if key is None else key

    def step(self) -> bool:
        """Step the least-keyed child; one whose step returns False loses
        its key and the next is tried.  False once no child can act."""
        while True:
            child = self._top()
            if child is None:
                return False
            progressed = child.step()
            key = child.next_action_s if progressed else None
            self._set_key(child, key)
            if key is None and self._on_drained is not None \
                    and child.unfinished == 0:
                self._on_drained(child)
            if progressed:
                return True

    # ------------------------------------------------------------------ #
    def assign(self, request_id: int, child: C) -> None:
        """``child`` now serves ``request_id``; re-keys the child."""
        self._owner[request_id] = child
        self.touch(child)

    def owner(self, request_id: int) -> Optional[C]:
        return self._owner.get(request_id)

    def release(self, request_id: int) -> None:
        self._owner.pop(request_id, None)

    @property
    def n_owned(self) -> int:
        return len(self._owner)

    def cancel(self, request_id: int, at_s: float,
               reason: str = "cancel") -> Optional[C]:
        """Route a cancel to the owner (returned, re-keyed); with no owner
        yet the cancel is parked for :meth:`unpark`."""
        child = self._owner.get(request_id)
        if child is None:
            self._parked[request_id] = (at_s, reason)
            return None
        child.schedule_cancel(request_id, at_s, reason)
        self.touch(child)
        return child

    def unpark(self, request_id: int) -> Optional[Tuple[float, str]]:
        """Take the cancel parked for a not-yet-assigned request."""
        return self._parked.pop(request_id, None)


class FanOutHook:
    """A composite's hook attribute (``on_event``, ``on_token``, ...):
    assigning it re-wires the composite's ``timelines`` children, so
    children see hooks installed after they joined.  Reads None until
    assigned."""

    def __set_name__(self, owner: type, name: str) -> None:
        self._slot = "_hook_" + name

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        return self if obj is None else obj.__dict__.get(self._slot)

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__[self._slot] = value
        if "timelines" in obj.__dict__:
            obj.timelines.rewire()
