"""Structured event log and counters for solve orchestration.

A production controller cannot explain a 3 a.m. page from a stack trace
alone: it needs the *trail* — every solve attempt, retry, timeout,
fallback, and injected fault, in order, with enough structure to query.
This module is that trail.

* :class:`EventLog` — an append-only, thread-safe sequence of
  :class:`Event` records.  Every event carries a monotonically increasing
  ``seq``, a dotted ``kind`` (``solve.attempt``, ``solve.retry``,
  ``ladder.fallback``, ``solve.timeout``, ``fault.injected``, …), the
  ``label`` of the solve it concerns, and a free-form ``detail`` mapping.
* :class:`Counters` — a thread-safe name → count registry for the
  aggregate view (``solve.attempts``, ``solve.retries``,
  ``ladder.degraded``, …).
* :class:`Observability` — the bundle the
  :class:`~repro.resilience.supervisor.SolveSupervisor` writes into and
  :class:`~repro.provisioning.planner.CapacityPlan` /
  :class:`~repro.switchboard.PipelineResult` expose for querying.

Event kinds are plain strings by design — the schema is the convention
documented in DESIGN.md, not a closed enum, so new subsystems can emit
their own kinds without touching this module.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Event:
    """One structured observation.

    ``seq`` orders events within a log; ``wall_time`` is ``time.time()``
    at emission (informational — ordering always uses ``seq``).
    """

    seq: int
    kind: str
    label: str
    detail: Dict[str, Any]
    wall_time: float

    def matches(self, kind: Optional[str] = None,
                label_contains: Optional[str] = None) -> bool:
        """Filter predicate: dotted-prefix kind match + label substring.

        ``kind="solve"`` matches ``solve.attempt`` and ``solve.retry``
        but not ``solver`` — prefixes are whole dotted components.
        """
        if kind is not None:
            if not (self.kind == kind or self.kind.startswith(kind + ".")):
                return False
        if label_contains is not None and label_contains not in self.label:
            return False
        return True


class EventLog:
    """Append-only, thread-safe structured event log.

    The log accumulates for its owner's whole lifetime; ``seq`` numbers
    events in emission order.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._events: List[Event] = []
        self._next_seq = 0

    def record(self, kind: str, label: str = "", **detail: Any) -> Event:
        """Append one event; returns it (mostly for tests)."""
        now = time.time()
        with self._lock:
            event = Event(seq=self._next_seq, kind=kind, label=label,
                          detail=detail, wall_time=now)
            self._next_seq += 1
            self._events.append(event)
        return event

    def events(self, kind: Optional[str] = None,
               label_contains: Optional[str] = None) -> List[Event]:
        """Events matching a dotted-kind prefix and/or label substring."""
        with self._lock:
            snapshot = list(self._events)
        return [e for e in snapshot if e.matches(kind, label_contains)]

    def kinds(self) -> List[str]:
        """Distinct kinds in first-seen order."""
        seen: Dict[str, None] = {}
        for event in self.events():
            seen.setdefault(event.kind, None)
        return list(seen)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events())

    # Locks are process-local; a pickled log travels as its events only.
    def __getstate__(self):
        with self._lock:
            return {"events": list(self._events),
                    "next_seq": self._next_seq}

    def __setstate__(self, state):
        self._lock = threading.Lock()
        self._events = list(state["events"])
        self._next_seq = state.get("next_seq", len(self._events))


class Counters:
    """Thread-safe monotonic counters keyed by dotted names.

    Counters accumulate for the owner's whole lifetime by design (a
    shared :class:`Observability` spans many solves and serving days).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> int:
        with self._lock:
            value = self._counts.get(name, 0) + amount
            self._counts[name] = value
        return value

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __getstate__(self):
        return {"counts": self.snapshot()}

    def __setstate__(self, state):
        self._lock = threading.Lock()
        self._counts = dict(state["counts"])


@dataclass
class Observability:
    """The event log + counters bundle one orchestration run writes into."""

    log: EventLog = field(default_factory=EventLog)
    counters: Counters = field(default_factory=Counters)

    def record(self, kind: str, label: str = "", **detail: Any) -> Event:
        """Emit an event and bump the counter of the same name."""
        self.counters.increment(kind)
        return self.log.record(kind, label=label, **detail)

    def events(self, kind: Optional[str] = None,
               label_contains: Optional[str] = None) -> List[Event]:
        return self.log.events(kind=kind, label_contains=label_contains)
