"""The allocation plan: per-slot, per-config DC shares (§5.3 end).

The offline allocation stage emits, "for every time-slot in the subsequent
day, and for every call config, what fraction of calls in the call config
should be placed on each DC".  The LP's shares are fractional; the
real-time selector needs integer *slots* ("place 80 of the 100 calls of
((JP-4, ID-2), video) in Japan, 10 in Singapore, 10 in India"), so the
plan also supports largest-remainder integerization, which preserves the
per-cell totals exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import SolverError
from repro.core.types import CallConfig, TimeSlot

PlanCell = Dict[str, float]


@dataclass
class AllocationPlan:
    """Fractional DC shares per (slot index, call config)."""

    slots: List[TimeSlot]
    shares: Dict[Tuple[int, CallConfig], PlanCell]

    def cell(self, slot_index: int, config: CallConfig) -> Optional[PlanCell]:
        return self.shares.get((slot_index, config))

    def planned_calls(self) -> float:
        return sum(sum(cell.values()) for cell in self.shares.values())

    def slot_index_of(self, t_s: float) -> int:
        """Slot index for an absolute trace time (clamped to the grid)."""
        if not self.slots:
            raise SolverError("plan has no slots")
        duration = self.slots[0].duration_s
        origin = self.slots[0].start_s
        index = int((t_s - origin) // duration)
        return min(max(index, 0), len(self.slots) - 1)

    def integerized(self) -> Dict[Tuple[int, CallConfig], Dict[str, int]]:
        """Largest-remainder rounding of every cell.

        Each cell's integer counts sum to ``round(sum(fractions))`` so no
        call slots are silently created or destroyed.  Cells keep their
        order and their DCs' order; DCs rounded to zero are left out.
        """
        configs = list(dict.fromkeys(config for _, config in self.shares))
        dc_ids = sorted({dc_id for cell in self.shares.values()
                         for dc_id in cell})
        n_slots = 1 + max((t for t, _ in self.shares), default=-1)
        grid = self.integerized_grid(configs, dc_ids, n_slots)
        config_of = {config: j for j, config in enumerate(configs)}
        dc_of = {dc_id: d for d, dc_id in enumerate(dc_ids)}
        result: Dict[Tuple[int, CallConfig], Dict[str, int]] = {}
        for (t, config), cell in self.shares.items():
            counts = grid[t, config_of[config]].tolist()
            result[(t, config)] = {dc_id: counts[dc_of[dc_id]]
                                   for dc_id in cell if counts[dc_of[dc_id]]}
        return result

    def integerized_grid(self, configs: Sequence[CallConfig],
                         dc_ids: Sequence[str], n_slots: int) -> np.ndarray:
        """Largest-remainder rounding of every cell, as an ``(n_slots,
        len(configs), len(dc_ids))`` integer array; ``dc_ids`` must be
        sorted, and every cell's slot, config and DCs inside the grid.

        A cell's total is its shares summed in cell order, rounded half to
        even; the units its floors leave go to its largest remainders,
        ties to the larger DC id.
        """
        config_of = {config: j for j, config in enumerate(configs)}
        dc_of = {dc_id: d for d, dc_id in enumerate(dc_ids)}
        entries = [(t * len(configs) + config_of[config], dc_of[dc_id], share)
                   for (t, config), cell in self.shares.items()
                   for dc_id, share in cell.items()]
        cell = np.array([entry[0] for entry in entries], dtype=np.int64)
        dc = np.array([entry[1] for entry in entries], dtype=np.int64)
        value = np.array([entry[2] for entry in entries], dtype=float)
        total = np.zeros(n_slots * len(configs))
        np.add.at(total, cell, value)  # in order, as sum() adds a cell
        floors = np.floor(value)
        assigned = np.zeros_like(total)
        np.add.at(assigned, cell, floors)
        leftover = np.rint(total) - assigned
        order = np.lexsort((-dc, floors - value, cell))
        ranked = cell[order]
        rank = np.arange(ranked.size) - np.searchsorted(ranked, ranked)
        bumped = np.zeros(value.size, dtype=np.int64)
        bumped[order] = rank < leftover[ranked]
        grid = np.zeros((n_slots * len(configs), len(dc_ids)), dtype=np.int64)
        grid[cell, dc] = floors.astype(np.int64) + bumped
        return grid.reshape(n_slots, len(configs), len(dc_ids))

    def mean_acl_ms(self, acl_of) -> float:
        """Plan-weighted mean ACL; ``acl_of(dc_id, config) -> ms``."""
        weighted, total = 0.0, 0.0
        for (_, config), cell in self.shares.items():
            for dc_id, count in cell.items():
                weighted += acl_of(dc_id, config) * count
                total += count
        if total == 0:
            raise SolverError("empty allocation plan")
        return weighted / total

    def dc_call_share(self) -> Dict[str, float]:
        """Fraction of all planned calls hosted per DC (diagnostics)."""
        per_dc: Dict[str, float] = {}
        for cell in self.shares.values():
            for dc_id, count in cell.items():
                per_dc[dc_id] = per_dc.get(dc_id, 0.0) + count
        total = sum(per_dc.values())
        if total == 0:
            raise SolverError("empty allocation plan")
        return {dc_id: count / total for dc_id, count in per_dc.items()}
