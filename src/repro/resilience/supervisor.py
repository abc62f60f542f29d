"""The solve supervisor: timeouts, retries, backoff, and fault handling.

Every LP solve in the resilient pipeline — scenario, joint, backup,
allocation — runs through :meth:`SolveSupervisor.run`, which adds the
production behaviours the bare solver layer deliberately does not have:

* **per-solve timeout** (``solve_timeout_s``): each attempt runs inside
  :func:`repro.provisioning.highs.time_limit`, so HiGHS stops on its own
  ``time_limit`` and no thread is left behind.  A budget spent before
  the attempt reaches HiGHS raises there, before any model is built, so
  it overruns by the LP assembly after the deadline: at 0.05 s the
  default topology's joint LP (``max_link_scenarios=0``) times out after
  about 0.6 s on two vCPUs, all of it assembly.  A deadline that passes
  inside HiGHS overruns to its next check of the limit (up to 0.6 s on
  that LP at a 1.2 s budget).  A thunk that never calls HiGHS is not
  bounded at all.
* **bounded retries with jittered exponential backoff**: transient
  failures (``SolverError``, including timeouts) are retried up to
  ``solve_retries`` times, waiting ``retry_backoff_s · 2^attempt``
  multiplied by ``1 + RETRY_BACKOFF_JITTER·U(0,1)`` between attempts.
  The RNG is seeded (``BACKOFF_RNG_SEED``) and the clock/sleep are
  injectable, so tests can drive the schedule deterministically.
* **infeasibility short-circuit**: an :class:`InfeasibleError` is
  deterministic — re-solving the same LP cannot fix it — so it is never
  retried.  The attached diagnosis (constraint family + scenario, see
  :func:`repro.provisioning.formulation.diagnose_infeasibility`) is
  recorded and the error propagates, typically into the degradation
  ladder.
* **fault injection**: before each attempt the supervisor consults the
  config's :class:`~repro.resilience.faults.FaultPlan` — a ``crash``
  fault replaces the attempt with a raised ``SolverError``, a ``hang``
  fault sleeps the whole budget before the attempt runs, so HiGHS's own
  limit fires on it.

Every decision emits a structured event into the supervisor's
:class:`~repro.obs.Observability` bundle, which ends up queryable from
the produced :class:`~repro.provisioning.planner.CapacityPlan`.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Optional

from repro.core.errors import (
    InfeasibleError,
    SolverError,
    SolveTimeoutError,
    SwitchboardError,
)
from repro.config import PlannerConfig
from repro.obs.events import Observability
from repro.provisioning import highs
from repro.resilience.faults import FaultSpec

#: Multiplicative jitter fraction on each retry delay: spreads retries of
#: solves that failed together without ever shortening the base delay.
RETRY_BACKOFF_JITTER = 0.5

#: Seed of the default jitter RNG, so a drill's retry schedule repeats.
BACKOFF_RNG_SEED = 0


class SolveSupervisor:
    """Wraps LP solves with timeout, retry, backoff, and event emission.

    ``clock`` and ``sleep`` default to the real ones; tests inject fakes
    to pin the backoff schedule.  One supervisor instance is shared by
    every solve of one orchestration run, so its event log is the run's
    complete trail.
    """

    def __init__(self, config: Optional[PlannerConfig] = None,
                 obs: Optional[Observability] = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None):
        self.config = config if config is not None else PlannerConfig()
        self.obs = obs if obs is not None else Observability()
        self.clock = clock
        self.sleep = sleep
        self.rng = rng if rng is not None else random.Random(BACKOFF_RNG_SEED)

    # ------------------------------------------------------------------
    def run(self, label: str, fn: Callable[[], Any]) -> Any:
        """Execute ``fn`` under the supervisor's full policy."""
        attempts = self.config.solve_retries + 1
        last_error: Optional[SwitchboardError] = None
        for attempt in range(attempts):
            self.obs.record("solve.attempt", label=label, attempt=attempt)
            started = self.clock()
            try:
                result = self._attempt(label, fn)
            except InfeasibleError as exc:
                self.obs.record(
                    "solve.infeasible", label=label, attempt=attempt,
                    error=str(exc), diagnosis=getattr(exc, "diagnosis", None),
                )
                raise
            except SolveTimeoutError as exc:
                self.obs.record("solve.timeout", label=label, attempt=attempt,
                                error=str(exc))
                last_error = exc
            except SwitchboardError as exc:
                self.obs.record("solve.error", label=label, attempt=attempt,
                                error=str(exc))
                last_error = exc
            else:
                self.obs.record("solve.success", label=label, attempt=attempt,
                                seconds=self.clock() - started)
                return result
            if attempt + 1 < attempts:
                delay = self.backoff_delay(attempt)
                self.obs.record("solve.retry", label=label, attempt=attempt,
                                delay_s=delay)
                if delay > 0:
                    self.sleep(delay)
        self.obs.record("solve.failure", label=label,
                        attempts=attempts, error=str(last_error))
        raise last_error

    def race(self, label: str, arms, gap: float):
        """Race portfolio arms, each under the full :meth:`run` policy.

        ``arms`` is the ``[(name, thunk)]`` lineup from
        :func:`repro.provisioning.portfolio.build_arms`; each arm runs
        through :meth:`run` as ``"{label}@{arm}"`` — so a hanging exact
        LP still times out, a crashing arm still retries, and every
        attempt lands in the event log — layered under the race's
        first-valid-wins-under-gap semantics.  Win/loss per arm is
        recorded as ``portfolio.arm.win`` / ``portfolio.arm.loss``
        events.  :class:`InfeasibleError` propagates immediately
        (infeasibility belongs to the scenario, not to an arm); an
        exhausted *heuristic* arm is just a loss, while an exhausted
        exact arm fails the race.
        """
        from repro.provisioning.portfolio import run_race

        result, trail = run_race(arms, gap, runner=self.run, label=label)
        for kind, fields in trail:
            self.obs.record(kind, **fields)
        return result

    def backoff_delay(self, attempt: int) -> float:
        """Jittered exponential backoff before retry ``attempt + 1``."""
        base = self.config.retry_backoff_s * (2.0 ** attempt)
        return base * (1.0 + RETRY_BACKOFF_JITTER * self.rng.random())

    # ------------------------------------------------------------------
    def _attempt(self, label: str, fn: Callable[[], Any]) -> Any:
        fault = self._take_solve_fault(label)
        if fault is not None and fault.kind == "crash":
            raise SolverError(f"{label}: injected solver crash")
        with highs.time_limit(self.config.solve_timeout_s):
            if fault is not None:  # a hang outlasts the budget for real
                time.sleep(self.config.solve_timeout_s or 0.0)
            return fn()

    def _take_solve_fault(self, label: str) -> Optional[FaultSpec]:
        plan = self.config.fault_plan
        if plan is None:
            return None
        fault = plan.take_solve_fault(label)
        if fault is not None:
            self.obs.record("fault.injected", label=label,
                            fault_kind=fault.kind, fault=fault.describe())
        return fault
