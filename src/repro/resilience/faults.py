"""Fault injection: declarative failure drills for the solve pipeline.

A :class:`FaultPlan` is a budgeted list of :class:`FaultSpec` entries
that the :class:`~repro.resilience.supervisor.SolveSupervisor` and the
live service plane consult at well-defined points:

* ``crash`` — the next matching supervised solve raises
  :class:`~repro.core.errors.SolverError` *instead of running* (models a
  solver segfault/abort; exercises retry + backoff + ladder).
* ``hang`` — the next matching solve sleeps out its ``solve_timeout_s``
  first, so HiGHS's own time limit stops it (models a stuck solve).
* ``dc_failure`` / ``link_failure`` — at simulated day ``at_day``, the
  named DC or WAN link goes down.  :meth:`FaultPlan.take_topology_faults`
  hands a day's outages over in one batch: the storm drills plan the
  failure-scenario allocation from it, and
  :meth:`~repro.migrate.MigrationExecutor.watch` turns DC failures into
  drain orders.  ``until_day`` (or the intra-day ``at_s`` / ``until_s``
  timestamps) gives the outage an end, at which the live plane drains
  calls back.

Each spec has a ``times`` budget; consuming a fault decrements it, so a
``times=2`` crash fails the first two attempts and lets the third
through.  Matching is by substring on the supervised solve's label
(``target=""`` matches everything), which is how a drill pins a fault to
one rung (``"provision.joint"``) or one scenario
(``"F_dc:dc-tokyo"``).

The plan is thread-safe and picklable (its lock is process-local).  The
threads of a ``max`` sweep consume a budget that several scenarios'
labels match in the order they reach it, so a drill that must fail one
particular scenario targets its label.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core.errors import SwitchboardError

_SOLVE_FAULTS = ("crash", "hang")
_TOPOLOGY_FAULTS = ("dc_failure", "link_failure")
_KINDS = _SOLVE_FAULTS + _TOPOLOGY_FAULTS


def _spec_sort_key(spec: "FaultSpec"):
    """The canonical total order for composed plans.

    ``(at_day, kind, target)`` with day-less (solve) faults
    first: two plans that schedule faults on the same day merge to the
    same sequence regardless of insertion order, so which same-day
    fault a consumer sees first no longer depends on builder-call
    ordering.  Recovery timing (``until_day``, ``at_s``) only breaks
    ties, so adding an end to an outage never reorders it relative to
    other faults.
    """
    return (
        spec.at_day if spec.at_day is not None else -1,
        spec.kind,
        spec.dc or spec.link or spec.target or "",
        spec.until_day if spec.until_day is not None else -1,
        spec.at_s if spec.at_s is not None else -1.0,
    )


@dataclass
class FaultSpec:
    """One injectable fault with a consumption budget."""

    kind: str
    target: str = ""
    times: int = 1
    dc: Optional[str] = None
    link: Optional[str] = None
    at_day: Optional[int] = None
    #: First simulated day the outage is healed again (exclusive end);
    #: ``None`` means the historical "down, never recovers" semantics.
    until_day: Optional[int] = None
    #: Intra-day onset/heal timestamps (seconds on the served timeline)
    #: for the live service plane; day-granularity consumers ignore them.
    at_s: Optional[float] = None
    until_s: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SwitchboardError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.times < 1:
            raise SwitchboardError("fault times must be >= 1")
        if self.kind == "dc_failure" and not self.dc:
            raise SwitchboardError("dc_failure fault needs dc=")
        if self.kind == "link_failure" and not self.link:
            raise SwitchboardError("link_failure fault needs link=")
        if self.until_day is not None:
            if self.at_day is None:
                raise SwitchboardError("until_day needs at_day")
            if self.until_day <= self.at_day:
                raise SwitchboardError("until_day must be > at_day")
        if self.at_s is not None and self.at_s < 0.0:
            raise SwitchboardError("at_s must be >= 0")
        if self.until_s is not None:
            if self.at_s is None:
                raise SwitchboardError("until_s needs at_s")
            if self.until_s <= self.at_s:
                raise SwitchboardError("until_s must be > at_s")

    def describe(self) -> str:
        where = self.dc or self.link or self.target or "*"
        if self.until_day is not None:
            return f"{self.kind}({where}, d{self.at_day}..d{self.until_day})"
        return f"{self.kind}({where})"


class FaultPlan:
    """A budgeted, thread-safe collection of faults to inject."""

    def __init__(self, specs: Optional[List[FaultSpec]] = None):
        self._lock = threading.Lock()
        self._specs: List[FaultSpec] = list(specs or [])

    # -- builders ------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        return cls()

    def crash(self, target: str = "", times: int = 1) -> "FaultPlan":
        self._specs.append(FaultSpec(kind="crash", target=target, times=times))
        return self

    def hang(self, target: str = "", times: int = 1) -> "FaultPlan":
        self._specs.append(FaultSpec(kind="hang", target=target, times=times))
        return self

    def dc_failure(self, dc: str, at_day: int,
                   until_day: Optional[int] = None,
                   at_s: Optional[float] = None,
                   until_s: Optional[float] = None) -> "FaultPlan":
        self._specs.append(FaultSpec(kind="dc_failure", dc=dc, at_day=at_day,
                                     until_day=until_day, at_s=at_s,
                                     until_s=until_s))
        return self

    def link_failure(self, link: str, at_day: int,
                     until_day: Optional[int] = None,
                     at_s: Optional[float] = None,
                     until_s: Optional[float] = None) -> "FaultPlan":
        self._specs.append(FaultSpec(kind="link_failure", link=link,
                                     at_day=at_day, until_day=until_day,
                                     at_s=at_s, until_s=until_s))
        return self

    # -- composition ---------------------------------------------------
    def compose(self, *others: "FaultPlan") -> "FaultPlan":
        """Merge plans into a new one with a deterministic fault order.

        Specs are ordered by ``(at_day, kind, target)`` — not by
        insertion order — so composing ``A.compose(B)`` and
        ``B.compose(A)`` yields identical plans and same-day faults fire
        in a well-defined sequence.  The sort is stable, so duplicate
        keys keep their relative (self-before-others) order.  Inputs are
        left untouched; budgets are copied, not shared.
        """
        specs: List[FaultSpec] = list(self.pending())
        for other in others:
            specs.extend(other.pending())
        return FaultPlan(sorted(specs, key=_spec_sort_key))

    # -- consumption ---------------------------------------------------
    def take_solve_fault(self, label: str) -> Optional[FaultSpec]:
        """A crash or hang aimed at this solve label, whichever comes first."""
        with self._lock:
            for i, spec in enumerate(self._specs):
                if spec.kind not in _SOLVE_FAULTS or spec.target not in label:
                    continue
                taken = replace(spec, times=1)
                if spec.times <= 1:
                    del self._specs[i]
                else:
                    self._specs[i] = replace(spec, times=spec.times - 1)
                return taken
        return None

    def take_topology_faults(self, day: int) -> List[FaultSpec]:
        """All DC/link failures scheduled for this day, consumed at once.

        Returned in the canonical ``(kind, target)`` order regardless of
        how the plan was built — a storm that cuts a link *and* loses a
        DC on the same day hands both to the allocator in one
        deterministic batch.
        """
        with self._lock:
            matching = [spec for spec in self._specs
                        if spec.kind in _TOPOLOGY_FAULTS and spec.at_day == day]
            if matching:
                self._specs = [
                    spec for spec in self._specs
                    if not (spec.kind in _TOPOLOGY_FAULTS
                            and spec.at_day == day)]
            return sorted(matching, key=_spec_sort_key)

    def pending(self) -> List[FaultSpec]:
        with self._lock:
            return list(self._specs)

    def __len__(self) -> int:
        with self._lock:
            return len(self._specs)

    def __getstate__(self):
        with self._lock:
            return {"specs": list(self._specs)}

    def __setstate__(self, state):
        self._lock = threading.Lock()
        self._specs = list(state["specs"])
