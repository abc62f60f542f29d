"""The offline daily allocation LP (§5.3 "Allocation plan", Eq 10).

Runs once per day with the *provisioned capacities fixed*: choose the DC
shares ``S_tcx`` that minimize total ACL (Eq 10) subject to the capacity
already provisioned.  Because cost is fixed at this stage, the latency
objective is primary here; the paper describes it as a secondary objective
added to the provisioning LP, which is equivalent once ``CP``/``NP`` are
pinned at their provisioned values.

Realized demand can exceed what was provisioned for (forecast error), so
every capacity constraint carries an expensive *overflow* slack: the LP
always solves, and the overflow total reports how far reality outran the
plan — the quantity a production system would alarm on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.errors import SolverError
from repro.allocation.plan import AllocationPlan
from repro.provisioning.demand import PlacementData
from repro.provisioning.formulation import (ColumnLayout,
                                            assemble_serving_blocks,
                                            shares_from_columns)
from repro.provisioning.lp import (CscMatrix, LinearProgram, LPInstance,
                                   SolveStats)
from repro.provisioning.planner import CapacityPlan
from repro.workload.arrivals import Demand

#: Objective price of one unit of overflow (cores or Gbps).  It only needs
#: to dominate any achievable ACL coefficient (ms values are < 1e3).
_OVERFLOW_PENALTY = 1e7

#: Sub-millisecond objective bonus for placing a config at the DC the
#: real-time selector will guess (closest to the majority country, which
#: is where the first joiner almost always is).  Among DCs whose ACL
#: differs by less than this, the plan prefers the guess DC — avoiding
#: migrations that would buy less than half a millisecond (§5.4/§6.4).
_GUESS_ALIGNMENT_BONUS_MS = 0.5


@dataclass
class AllocationOutcome:
    """The plan plus how much capacity overflow it needed.

    ``method`` / ``degradation_level`` mirror
    :class:`~repro.provisioning.planner.CapacityPlan`'s tags: ``"lp"`` at
    level 0 is the Eq 10 optimum; ``"locality"`` at level 1 means the
    allocation LP failed persistently and the min-ACL heuristic produced
    the plan instead.
    """

    plan: AllocationPlan
    compute_overflow_cores: float
    network_overflow_gbps: float
    objective_acl_sum: float
    stats: SolveStats = field(default_factory=SolveStats)
    method: str = "lp"
    degradation_level: int = 0

    @property
    def overflowed(self) -> bool:
        return self.compute_overflow_cores > 1e-6 or self.network_overflow_gbps > 1e-6

    @property
    def degraded(self) -> bool:
        return self.degradation_level > 0


class AllocationLP:
    """Eq 10 over one demand, assembled once; every tail of it is a slice.

    The LP of the slots from ``k`` on, at ``scale`` times the demand, is
    this LP with the rows and columns of slots ``< k`` cut out: the
    serving-block assembler numbers rows by (resource, slot) and columns
    by (config, option, slot), and a slot's columns load only its own
    rows, so the slice is the LP a fresh assembly of
    ``Demand(slots[k:], configs, counts[k:] * scale)`` builds, entry for
    entry, and HiGHS returns the same vertex.  A slice takes its capacity
    RHS from the :class:`CapacityPlan` it is given and its ``==`` RHS
    from ``counts[k:] * scale``.  The LP is assembled at the first
    :meth:`instance`, with that call's capacity.
    """

    def __init__(self, placement: PlacementData, demand: Demand):
        self.placement = placement
        self.demand = demand
        self._full: Optional[LPInstance] = None

    def tail(self, k: int = 0, scale: float = 1.0) -> Demand:
        """The demand a slice stands for."""
        demand = self.demand
        return Demand(demand.slots[k:], demand.configs,
                      demand.counts[k:] * scale)

    def _assemble(self, capacity: CapacityPlan) -> None:
        """The shared serving-block assembler, one block, an overflow
        slack per capacity row; then the row and column bookkeeping a
        slice needs."""
        t_build = time.perf_counter()
        lp = LinearProgram()
        topology = self.placement.topology
        configs = self.demand.configs
        options = [self.placement.options(config) for config in configs]
        objective = []
        for config, config_options in zip(configs, options):
            guess_dc = topology.closest_dc(config.majority_country)
            objective.append([
                option.acl_ms - (_GUESS_ALIGNMENT_BONUS_MS
                                 if option.dc_id == guess_dc else 0.0)
                for option in config_options
            ])
        runs: List[Tuple[str, str]] = []
        run_slots: List[np.ndarray] = []

        def capacity_row(kind, resource, slots):
            # Each capacity row carries its own expensive overflow slack,
            # so the LP always solves and reports how far demand outran
            # the plan.
            slack = "over_cp" if kind == "CP" else "over_np"
            start = lp.variables.add_batch(
                [(slack, int(t), resource) for t in slots],
                objective=_OVERFLOW_PENALTY,
            )
            runs.append((kind, resource))
            run_slots.append(slots)
            return (np.full(slots.size, _capacity_of(capacity, kind, resource)),
                    np.arange(start, start + slots.size))

        eq_demand = assemble_serving_blocks(
            lp, self.demand.counts, [(None, options, objective)],
            capacity_row)
        self._full = lp.snapshot(
            assembly_seconds=time.perf_counter() - t_build)

        # Every key is (kind, slot, ...): ("over_cp"/"over_np", t,
        # resource) or ("S", t, j, dc_id).
        keys = self._full.keys
        self._runs = runs
        self._row_run = np.repeat(np.arange(len(runs)),
                                  [slots.size for slots in run_slots])
        self._ub_slot = (np.concatenate(run_slots) if run_slots
                         else np.empty(0, dtype=np.int64))
        self._eq_cell = eq_demand
        self._eq_slot = eq_demand // max(len(configs), 1)
        self._col_slot = np.array([key[1] for key in keys], dtype=np.int64)
        kinds = np.array([key[0] for key in keys])
        self._over_cp = np.flatnonzero(kinds == "over_cp")
        self._over_np = np.flatnonzero(kinds == "over_np")
        self._columns = ColumnLayout.of(keys)
        self._acl = {(config, option.dc_id): option.acl_ms
                     for config, config_options in zip(configs, options)
                     for option in config_options}

    def instance(self, capacity: CapacityPlan, k: int = 0,
                 scale: float = 1.0) -> LPInstance:
        """The LP of the slots from ``k`` on at ``scale`` times the
        demand, inside ``capacity``.  A slice carries no column keys
        (they would number slots from ``k``)."""
        if not scale > 0:
            # The tail's activity mask is the forecast's only at a
            # positive scale; at zero every row and column would vanish.
            raise SolverError(
                f"allocation slice needs scale > 0, got {scale!r}")
        if not 0 <= k < self.demand.n_slots:
            raise SolverError(f"allocation slice k={k} outside "
                              f"[0, {self.demand.n_slots})")
        t0 = time.perf_counter()
        if self._full is None:
            self._assemble(capacity)
        full = self._full
        cols = np.flatnonzero(self._col_slot >= k)
        if cols.size == 0:
            # As a fresh assembly of the all-zero tail would.
            raise SolverError(f"allocation LP from slot {k}: no variables")
        ub_rows = np.flatnonzero(self._ub_slot >= k)
        eq_rows = np.flatnonzero(self._eq_slot >= k)
        # A kept column loads only rows of its own slot, so every entry
        # of a kept column sits in a kept row: renumber the rows, keep
        # each column's entries as they are (still in ascending rows,
        # since the renumbering keeps the rows' order).
        row_of = np.full(full.n_rows, -1, dtype=np.int64)
        kept_rows = np.concatenate([ub_rows, full.n_ub + eq_rows])
        row_of[kept_rows] = np.arange(kept_rows.size)
        matrix = full.matrix
        starts = matrix.indptr[cols]
        lengths = matrix.indptr[cols + 1] - starts
        indptr = np.zeros(cols.size + 1, dtype=matrix.indptr.dtype)
        np.cumsum(lengths, out=indptr[1:])
        entries = (np.repeat(starts - indptr[:-1], lengths)
                   + np.arange(indptr[-1]))
        sliced = CscMatrix(
            matrix.data[entries],
            row_of[matrix.indices[entries]].astype(matrix.indices.dtype),
            indptr, (kept_rows.size, cols.size))
        capacities = np.array([_capacity_of(capacity, kind, resource)
                               for kind, resource in self._runs])
        return LPInstance(
            c=full.c[cols], lower=full.lower[cols], upper=full.upper[cols],
            matrix=sliced, n_ub=ub_rows.size,
            b_ub=capacities[self._row_run[ub_rows]],
            b_eq=self.demand.counts.ravel()[self._eq_cell[eq_rows]] * scale,
            keys=None if k else full.keys,
            assembly_seconds=time.perf_counter() - t0,
        )

    def allocate(self, capacity: CapacityPlan, k: int = 0,
                 scale: float = 1.0) -> AllocationOutcome:
        """Solve the slice from ``k`` at ``scale`` and read the plan
        back from the solution's non-zero columns."""
        instance = self.instance(capacity, k, scale)
        solution = instance.solve(description="daily allocation LP")
        # Back in the whole LP's columns: those of slots < k read 0.
        x = np.zeros(self._col_slot.size)
        x[self._col_slot >= k] = solution.x
        compute_overflow = 0.0
        for value in x[self._over_cp].tolist():
            if value > 1e-9:
                compute_overflow += value
        network_overflow = 0.0
        for value in x[self._over_np].tolist():
            if value > 1e-9:
                network_overflow += value
        columns = self._columns
        values = x[columns.s_cols]
        kept = np.flatnonzero(values > 1e-9)
        shares = shares_from_columns(
            self.demand.configs, columns.dc_ids, columns.s_slot[kept] - k,
            columns.s_config[kept], columns.s_dc[kept], values[kept])
        acl_sum = 0.0
        for (_, config), cell in shares.items():
            for dc_id, value in cell.items():
                acl_sum += self._acl[(config, dc_id)] * value

        return AllocationOutcome(
            plan=AllocationPlan(slots=list(self.demand.slots[k:]),
                                shares=shares),
            compute_overflow_cores=compute_overflow,
            network_overflow_gbps=network_overflow,
            objective_acl_sum=acl_sum,
            stats=solution.stats,
        )


def _capacity_of(capacity: CapacityPlan, kind: str, resource: str) -> float:
    """The provisioned cores (``"CP"``) or Gbps (``"NP"``) of a resource."""
    if kind == "CP":
        return capacity.cores.get(resource, 0.0)
    return capacity.link_gbps.get(resource, 0.0)
