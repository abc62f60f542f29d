"""Online defragmentation: reclaim stranded server capacity between batches.

Churn fragments a packed fleet: calls end in arbitrary order, leaving
many servers each holding a sliver of load.  The fleet's *total* free
capacity may comfortably host the next large call while no *single*
server can — capacity that exists but cannot be allocated.  The
:class:`Defragmenter` measures that gap (the **allocatable-slots-lost**
metric: how many reference-sized calls total free capacity could host
minus how many the per-server free capacities actually can) and repairs
it with bounded batches of call moves.

The planner is deliberately conservative, mirroring how a production
conferencing service has to treat live calls:

* only **whole-donor evacuations** are planned — a donor server empties
  completely (its capacity returns to one contiguous block) or it is not
  touched at all;
* donors are the *emptiest* servers below a fill threshold, so each move
  buys the most stranded capacity back per disturbed call;
* receivers must already be open (non-empty) — defrag never turns on a
  new server;
* at most ``max_moves_per_round`` calls move per round, bounding the
  user-visible disturbance between event batches.

Execution goes through :meth:`FleetLedger.move_call`, which
revalidates capacity under the ledger lock — a plan gone stale (a call
ended, a server filled) degrades to fewer moves, never to an overload.
Every executed move is a **defrag migration**: counted once, in the
ledger's ``defrag_moves``, never folded into the selector's DC-to-DC
migrations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs.events import Observability
from repro.packing.ledger import FleetLedger

_NO_FIT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class DefragMove:
    """One planned call move within a DC."""

    call_id: str
    dc_id: str
    from_server: int
    to_server: int
    held_mc: int


@dataclass(frozen=True)
class DefragRound:
    """What one defrag pass did."""

    planned_moves: int
    executed_moves: int
    frag_slots_before: int
    frag_slots_after: int


class Defragmenter:
    """Plans and executes bounded defrag rounds over a fleet ledger."""

    def __init__(self, ledger: FleetLedger,
                 max_moves_per_round: int = 8,
                 donor_fill_threshold: float = 0.5,
                 obs: Optional[Observability] = None):
        if max_moves_per_round < 0:
            raise ValueError("max_moves_per_round must be >= 0")
        if not 0 < donor_fill_threshold <= 1:
            raise ValueError("donor_fill_threshold must be in (0, 1]")
        self.ledger = ledger
        self.max_moves_per_round = max_moves_per_round
        self.donor_fill_threshold = donor_fill_threshold
        self.obs = obs
        self.rounds_run = 0

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan_round(self) -> List[DefragMove]:
        """A bounded batch of whole-donor evacuations, emptiest first."""
        moves: List[DefragMove] = []
        budget = self.max_moves_per_round
        for fleet in self.ledger.fleets():
            if budget <= 0:
                break
            if fleet.n_servers < 2:
                continue
            usable = fleet.usable_mc
            free = fleet.free_mc.copy()
            counts = fleet.call_count.copy()
            held = usable - free
            for src in np.argsort(held, kind="stable"):
                if budget <= 0:
                    break
                if counts[src] == 0:
                    continue
                if held[src] / usable >= self.donor_fill_threshold:
                    break  # ascending order: every later donor is fuller
                calls = self.ledger.calls_on(fleet.dc_id, int(src))
                if not calls or len(calls) > budget:
                    continue
                evacuation = self._evacuate(int(src), calls, free, counts)
                if evacuation is None:
                    continue
                for call_id, dst, size in evacuation:
                    moves.append(DefragMove(call_id, fleet.dc_id,
                                            int(src), dst, size))
                    free[dst] -= size
                    counts[dst] += 1
                free[src] = usable
                counts[src] = 0
                budget -= len(evacuation)
        return moves

    def _evacuate(self, src: int, calls: List[str], free: np.ndarray,
                  counts: np.ndarray) -> Optional[List[tuple]]:
        """Best-fit every donor call into an already-open server, or
        report the donor unevacuable (None).  All-or-nothing: a partial
        evacuation reclaims no contiguous capacity."""
        sim_free = free.copy()
        sim_counts = counts.copy()
        placed: List[tuple] = []
        for call_id in calls:
            size = self.ledger.held_mc_of(call_id)
            if size is None:
                return None  # call vanished mid-plan; replan next round
            candidates = sim_free.copy()
            candidates[src] = -1
            candidates[sim_counts == 0] = -1  # never open a new server
            residual = candidates - size
            residual = np.where(residual >= 0, residual, _NO_FIT)
            best = int(np.argmin(residual))
            if residual[best] == _NO_FIT:
                return None
            placed.append((call_id, best, size))
            sim_free[best] -= size
        return placed

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, moves: List[DefragMove]) -> int:
        """Apply planned moves; the ledger revalidates each one."""
        executed = 0
        for move in moves:
            if self.ledger.move_call(move.call_id, to_index=move.to_server,
                                     kind="defrag"):
                executed += 1
        return executed

    def run_round(self) -> DefragRound:
        """One plan + execute pass, with fragmentation before/after."""
        frag_before = self.ledger.fragmentation_slots_lost()
        moves = self.plan_round()
        executed = self.execute(moves)
        frag_after = self.ledger.fragmentation_slots_lost()
        self.rounds_run += 1
        if self.obs is not None:
            if executed:
                self.obs.counters.increment("packing.defrag.moves", executed)
            self.obs.record(
                "packing.defrag.round",
                label=f"round-{self.rounds_run}",
                planned=len(moves), executed=executed,
                frag_before=frag_before, frag_after=frag_after,
            )
        return DefragRound(
            planned_moves=len(moves),
            executed_moves=executed,
            frag_slots_before=frag_before,
            frag_slots_after=frag_after,
        )
