"""The fleet ledger: DC slot accounting *plus* server-level placement.

A plain :class:`~repro.allocation.realtime.SlotLedger` debits
DC-granularity plan slots and stops there — inside the DC the call lands
"somewhere".  A :class:`FleetLedger` keeps the same contract (so
:class:`~repro.allocation.realtime.RealTimeSelector` and the engine run
unchanged) but makes ``try_debit`` mean what it does in production: a
plan slot is taken **and** a specific MP server is reserved for the
call.  If no server fits, the slot debit is undone and the selector's
preference walk moves on to the next DC — server-level pressure
propagates into DC-level decisions for free.

The authority is in-process: per-DC numpy free-capacity vectors behind
one lock, with the plan cells in a
:class:`~repro.allocation.realtime.LocalSlotLedger`.

All capacity amounts are integer microcores
(:func:`repro.core.units.to_microcores`), so allocate/release round-trips
are exact.  The ledger also answers the provisioning-to-hardware
question: how many servers realize a DC's planned cores
(:func:`servers_for_cores`).

Post-freeze growth: the engine reports late joins via
:meth:`FleetLedger.note_join`.  A call that outgrows its reservation
enlarges it in place; if its server then exceeds capacity the ledger
counts an **overload** and tries to move the grown call to a server that
fits — the reactive churn that predictive sizing exists to avoid.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional

import numpy as np

from repro.core.errors import CapacityError
from repro.core.types import CallConfig, MediaType
from repro.core.units import from_microcores, to_microcores
from repro.allocation.plan import AllocationPlan
from repro.allocation.realtime import LocalSlotLedger, SlotLedger
from repro.obs.events import Observability
from repro.packing.policy import PackingPolicy

#: Cores per MP server: a mid-size VM/host dedicated to media processing.
DEFAULT_SERVER_CORES = 16.0

#: Reference call size (one core) of the allocatable-slots-lost
#: fragmentation metric, in microcores.
_FRAG_REF_MC = to_microcores(1.0)


def servers_for_cores(cores: float, server_cores: float = DEFAULT_SERVER_CORES,
                      utilization_target: float = 0.9) -> int:
    """Servers needed to realize ``cores`` of planned capacity.

    Computed in integer microcores: a demand that is an exact multiple of
    the usable server size never rounds up to an extra server just
    because of float representation (e.g. ``0.1 * 3`` vs ``0.3``).
    """
    if cores < 0 or server_cores <= 0:
        raise CapacityError("cores must be >= 0 and server size positive")
    if cores == 0:
        return 0
    need_mc = to_microcores(cores)
    usable_mc = to_microcores(server_cores * utilization_target)
    if usable_mc <= 0:
        raise CapacityError("server size too small to be usable")
    return -(-need_mc // usable_mc)  # integer ceiling division


@dataclass
class _Placement:
    """Where one call lives and how much it holds."""

    dc_id: str
    server_index: int
    reserved_mc: int       # the policy's up-front reservation
    actual_mc: int         # live load: frozen config + post-freeze joins
    media: MediaType
    cap_mc: int            # one server's usable capacity

    @property
    def held_mc(self) -> int:
        """What the server commits: the larger of reservation and live
        load, capped at one whole server — a call bigger than a server
        gets a dedicated one (cascading beyond that is out of scope),
        it cannot hold more than the server has."""
        return min(max(self.reserved_mc, self.actual_mc), self.cap_mc)


class _DCFleet:
    """One DC's servers as flat vectors (the scoring hot path).

    ``usable_mc`` is the *placement* budget (``server_cores x
    utilization_target``) — new reservations never exceed it.
    ``physical_mc`` is the hardware; the gap is headroom that absorbs
    post-freeze growth without a quality violation.  ``free_mc`` tracks
    the remaining placement budget and goes negative as growth eats into
    headroom; only beyond ``-(physical - usable)`` is the server truly
    **overloaded**.
    """

    def __init__(self, dc_id: str, n_servers: int, usable_mc: int,
                 physical_mc: int):
        self.dc_id = dc_id
        self.server_ids = [f"{dc_id}/mp-{i:04d}" for i in range(n_servers)]
        self.usable_mc = usable_mc
        self.physical_mc = physical_mc
        self.headroom_mc = physical_mc - usable_mc
        self.free_mc = np.full(n_servers, usable_mc, dtype=np.int64)
        self.call_count = np.zeros(n_servers, dtype=np.int64)
        self.touched = np.zeros(n_servers, dtype=bool)
        self.peak_open = 0

    @property
    def n_servers(self) -> int:
        return len(self.server_ids)

    @property
    def open_servers(self) -> int:
        return int((self.call_count > 0).sum())

    def note_open_peak(self) -> None:
        self.peak_open = max(self.peak_open, self.open_servers)

    def stranded_slots(self, ref_mc: int) -> int:
        """Allocatable-slots-lost: whole ref-sized calls the DC's total
        free capacity could host minus what its *per-server* free
        capacity actually can — capacity stranded by fragmentation."""
        if ref_mc <= 0 or self.n_servers == 0:
            return 0
        positive_free = np.maximum(self.free_mc, 0)
        ideal = int(positive_free.sum()) // ref_mc
        actual = int((positive_free // ref_mc).sum())
        return ideal - actual


@dataclass
class FleetStats:
    """Thread-safe counters of one fleet ledger's lifetime."""

    placements: int = 0
    placement_failures: int = 0
    releases: int = 0
    growth_notes: int = 0
    overload_events: int = 0
    rebalance_moves: int = 0
    rebalance_failures: int = 0
    defrag_moves: int = 0
    #: Cross-DC relocations committed by ``relocate_call`` (the live
    #: migration path) — distinct from within-DC defrag/rebalance moves.
    live_moves: int = 0

    def __post_init__(self):
        self._lock = threading.Lock()

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                name: getattr(self, name)
                for name in ("placements", "placement_failures", "releases",
                             "growth_notes", "overload_events",
                             "rebalance_moves", "rebalance_failures",
                             "defrag_moves", "live_moves")
            }


class FleetLedger(SlotLedger):
    """Plan slots plus per-server reservations, behind one lock.

    The in-process fleet vectors are the authority: they are checked and
    updated under the same lock, so a placement that scored a server can
    always commit it.  ``capacity`` is a CapacityPlan or a plain
    ``{dc: cores}`` mapping.
    """

    def __init__(self, capacity, policy: PackingPolicy,
                 server_cores: float = DEFAULT_SERVER_CORES,
                 utilization_target: float = 0.9,
                 obs: Optional[Observability] = None):
        dc_cores: Mapping[str, float] = getattr(capacity, "cores", capacity)
        self.policy = policy
        self.server_cores = server_cores
        self.utilization_target = utilization_target
        self.obs = obs
        usable_mc = to_microcores(server_cores * utilization_target)
        physical_mc = to_microcores(server_cores)
        self._fleets: Dict[str, _DCFleet] = {}
        for dc_id, cores in sorted(dc_cores.items()):
            n = servers_for_cores(cores, server_cores, utilization_target)
            self._fleets[dc_id] = _DCFleet(dc_id, n, usable_mc, physical_mc)
        self._placements: Dict[str, _Placement] = {}
        self._slots: Optional[LocalSlotLedger] = None
        self.stats = FleetStats()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # the SlotLedger contract
    # ------------------------------------------------------------------
    @property
    def slot_ledger(self) -> SlotLedger:
        if self._slots is None:
            raise CapacityError("fleet ledger has no plan loaded")
        return self._slots

    def load_plan(self, plan: AllocationPlan) -> int:
        cells = plan.integerized()
        self._slots = LocalSlotLedger(cells)
        return len(cells)

    def snapshot(self, slot_index: int, config: CallConfig
                 ) -> Optional[Dict[str, int]]:
        return self.slot_ledger.snapshot(slot_index, config)

    def try_debit(self, slot_index: int, config: CallConfig, dc_id: str,
                  call_id: Optional[str] = None) -> bool:
        """Take a plan slot *and* a server reservation, atomically.

        Without a ``call_id`` (legacy callers) this degrades to the pure
        slot debit.  With one, a successful debit means the call has a
        specific server; a slot with no fitting server is credited back
        and the debit reports failure, steering the selector elsewhere.
        """
        if not self.slot_ledger.try_debit(slot_index, config, dc_id):
            return False
        if call_id is None:
            return True
        if self._place(call_id, config, dc_id):
            return True
        self.slot_ledger.credit(slot_index, config, dc_id)
        return False

    def add_slots(self, slot_index: int, config: CallConfig, dc_id: str,
                  count: int) -> None:
        """Autoscaler scale-out: grow the plan-slot cell.

        Fleet size is fixed at construction (provisioned hardware);
        added plan slots draw on the existing servers' headroom — a
        placement that finds no fitting server still refuses the debit.
        """
        self.slot_ledger.add_slots(slot_index, config, dc_id, count)

    def remove_slots(self, slot_index: int, config: CallConfig, dc_id: str,
                     count: int) -> int:
        """Autoscaler scale-down: drain free plan slots only.

        Routed straight at the slot ledger (no ``call_id``), so no
        server reservation is created or touched — in-flight calls keep
        their servers, and only never-admitted slots are reclaimed.
        """
        return self.slot_ledger.remove_slots(slot_index, config, dc_id,
                                             count)

    # ------------------------------------------------------------------
    # placement / growth / release (the fleet side)
    # ------------------------------------------------------------------
    def _place(self, call_id: str, config: CallConfig, dc_id: str) -> bool:
        fleet = self._fleets.get(dc_id)
        if fleet is None or fleet.n_servers == 0:
            self.stats.bump("placement_failures")
            return False
        reserved = self.policy.size_mc(config)
        actual = to_microcores(self.policy.load_model.call_cores(config))
        held = min(max(reserved, actual), fleet.usable_mc)
        with self._lock:
            if call_id in self._placements:
                return False
            index = self.policy.select(fleet.free_mc, held)
            if index < 0:
                self.stats.bump("placement_failures")
                return False
            fleet.free_mc[index] -= held
            fleet.call_count[index] += 1
            fleet.touched[index] = True
            fleet.note_open_peak()
            self._placements[call_id] = _Placement(
                dc_id=dc_id, server_index=index,
                reserved_mc=reserved, actual_mc=actual,
                media=config.media, cap_mc=fleet.usable_mc,
            )
            self.stats.bump("placements")
            return True

    def note_join(self, call_id: str) -> None:
        """A post-freeze participant joined: grow the call's live load.

        Growth beyond the reservation enlarges the server's commitment;
        if that pushes the server past capacity the ledger records an
        overload and rebalances the grown call.
        """
        with self._lock:
            placement = self._placements.get(call_id)
            if placement is None:
                return
            self.stats.bump("growth_notes")
            held_before = placement.held_mc
            placement.actual_mc += self.policy.growth_mc_of(placement.media)
            delta = placement.held_mc - held_before
            if delta <= 0:
                return
            fleet = self._fleets[placement.dc_id]
            index = placement.server_index
            fleet.free_mc[index] -= delta
            if fleet.free_mc[index] < -fleet.headroom_mc:
                # Growth ate through the placement budget AND the
                # utilization headroom: the server is past its hardware.
                self.stats.bump("overload_events")
                if self.obs is not None:
                    self.obs.record("packing.overload", label=call_id,
                                    dc=placement.dc_id,
                                    server=fleet.server_ids[index])
                if not self._move(call_id, kind="rebalance"):
                    self.stats.bump("rebalance_failures")

    def release(self, call_id: str) -> None:
        """The call ended: free its server reservation.

        Unknown calls are ignored — overflow calls are served without a
        fleet reservation, and their END events still arrive here.
        """
        with self._lock:
            placement = self._placements.pop(call_id, None)
            if placement is None:
                return
            fleet = self._fleets[placement.dc_id]
            index = placement.server_index
            fleet.free_mc[index] += placement.held_mc
            fleet.call_count[index] -= 1
            self.stats.bump("releases")

    def _move(self, call_id: str, to_index: Optional[int] = None,
              kind: str = "rebalance") -> bool:
        """Move one placed call to another server in its DC."""
        with self._lock:
            placement = self._placements.get(call_id)
            if placement is None:
                return False
            fleet = self._fleets[placement.dc_id]
            source = placement.server_index
            held = placement.held_mc
            if to_index is None:
                # Reactive rebalance: an overloaded call is a hot-spot
                # emergency, so the target is the *least-loaded* fitting
                # server (maximum headroom against further growth), not
                # the policy's packing choice — planned placement packs,
                # repair spreads.  The defragmenter passes an explicit
                # target instead, packing with best fit.
                free = fleet.free_mc.copy()
                free[source] = -1
                candidate = int(np.argmax(free))
                to_index = candidate if free[candidate] >= held else -1
            if to_index < 0 or to_index == source:
                return False
            if fleet.free_mc[to_index] < held:
                return False
            fleet.free_mc[to_index] -= held
            fleet.free_mc[source] += held
            fleet.call_count[to_index] += 1
            fleet.call_count[source] -= 1
            fleet.touched[to_index] = True
            fleet.note_open_peak()
            placement.server_index = to_index
            self.stats.bump("defrag_moves" if kind == "defrag"
                            else "rebalance_moves")
            return True

    def move_call(self, call_id: str, to_index: Optional[int] = None,
                  kind: str = "defrag") -> bool:
        """Public move entry point (the defragmenter's executor)."""
        return self._move(call_id, to_index=to_index, kind=kind)

    def relocate_call(self, call_id: str, slot_index: int,
                      config: CallConfig, to_dc: str,
                      credit_source: bool = True) -> bool:
        """Move a placed call to another DC (the live migration path).

        Ordering is the migration invariant: the **destination is
        debited before the source is credited** — a plan slot is taken
        at ``to_dc`` and a server reservation committed there, and only
        then is the source server released (and, when ``credit_source``,
        the source plan slot returned).  Any failure before the source
        release leaves the call exactly where it was: no state is lost,
        no capacity double-granted.

        ``credit_source=False`` is the drain flavour (autoscale
        scale-down): the vacated source slot is *not* returned to the
        cell, completing a drain that ``remove_slots`` could not because
        the call still held it.

        Returns False when the call is unknown/unplaced, already at
        ``to_dc``, or no destination slot+server could be taken — the
        caller records such calls as disrupted rather than dropping
        them.
        """
        with self._lock:
            placement = self._placements.get(call_id)
            if placement is None:
                return False
            from_dc = placement.dc_id
            if to_dc == from_dc:
                return False
            dest = self._fleets.get(to_dc)
            if dest is None or dest.n_servers == 0:
                return False
            # 1. debit the destination plan slot.
            if not self.slot_ledger.try_debit(slot_index, config, to_dc):
                return False
            # 2. commit a destination server reservation.
            held = min(placement.held_mc, dest.usable_mc)
            index = self.policy.select(dest.free_mc, held)
            if index < 0:
                self.slot_ledger.credit(slot_index, config, to_dc)
                return False
            dest.free_mc[index] -= held
            dest.call_count[index] += 1
            dest.touched[index] = True
            dest.note_open_peak()
            # 3. only now release the source server...
            source = self._fleets[from_dc]
            src_index = placement.server_index
            source.free_mc[src_index] += placement.held_mc
            source.call_count[src_index] -= 1
            # 4. ...and credit the source plan slot.
            if credit_source:
                self.slot_ledger.credit(slot_index, config, from_dc)
            placement.dc_id = to_dc
            placement.server_index = index
            placement.cap_mc = dest.usable_mc
            self.stats.bump("live_moves")
            return True

    # ------------------------------------------------------------------
    # introspection (metrics, defrag planning)
    # ------------------------------------------------------------------
    def server_of(self, call_id: str) -> Optional[str]:
        with self._lock:
            placement = self._placements.get(call_id)
            if placement is None:
                return None
            fleet = self._fleets[placement.dc_id]
            return fleet.server_ids[placement.server_index]

    def placements(self) -> Dict[str, str]:
        """call id -> server id, for every placed call."""
        with self._lock:
            return {call_id: self._fleets[p.dc_id].server_ids[p.server_index]
                    for call_id, p in self._placements.items()}

    def fleets(self) -> Iterator[_DCFleet]:
        return iter(self._fleets.values())

    def fleet(self, dc_id: str) -> _DCFleet:
        return self._fleets[dc_id]

    def calls_on(self, dc_id: str, server_index: int) -> List[str]:
        with self._lock:
            return [call_id for call_id, p in self._placements.items()
                    if p.dc_id == dc_id and p.server_index == server_index]

    def held_mc_of(self, call_id: str) -> Optional[int]:
        """Microcores the call currently holds, or None if unplaced."""
        with self._lock:
            placement = self._placements.get(call_id)
            return placement.held_mc if placement is not None else None

    def fragmentation_slots_lost(self, ref_mc: Optional[int] = None) -> int:
        """Total stranded ref-sized call slots across every DC."""
        ref = ref_mc if ref_mc is not None else _FRAG_REF_MC
        with self._lock:
            return sum(fleet.stranded_slots(ref)
                       for fleet in self._fleets.values())

    def unresolved_overload_mc(self) -> int:
        """Microcores currently committed beyond server *hardware*."""
        with self._lock:
            return int(sum(
                (-np.minimum(fleet.free_mc + fleet.headroom_mc, 0)).sum()
                for fleet in self._fleets.values()))

    def fleet_metrics(self) -> Dict[str, object]:
        """The packing block a :class:`ServiceReport` carries."""
        with self._lock:
            n_servers = sum(f.n_servers for f in self._fleets.values())
            open_now = sum(f.open_servers for f in self._fleets.values())
            peak_open = sum(f.peak_open for f in self._fleets.values())
            touched = int(sum(f.touched.sum() for f in self._fleets.values()))
        metrics: Dict[str, object] = {
            "policy": self.policy.name,
            "n_servers": n_servers,
            "servers_open_now": open_now,
            "servers_used_peak": peak_open,
            "servers_touched": touched,
            "frag_slots_lost": self.fragmentation_slots_lost(),
            "frag_ref_cores": from_microcores(_FRAG_REF_MC),
            "unresolved_overload_mc": self.unresolved_overload_mc(),
        }
        metrics.update(self.stats.snapshot())
        return metrics
