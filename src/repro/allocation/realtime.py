"""The real-time MP selector (§5.4).

When the first participant joins, the full call config is unknown; the
selector therefore:

(a) assigns the call to the DC **closest to the first joiner** — correct
    for the ~95% of calls whose majority ends up in the first joiner's
    country;
(b) at ``A = 300 s`` the config freezes; the call is tallied against the
    precomputed plan by debiting one slot for its config at the assigned
    DC;
(c) if the plan has no slot for this config at the assigned DC, the call
    **migrates** to a DC that does (the undesirable-but-unavoidable case
    §6.4 quantifies at 1.53%); configs the plan never anticipated go to
    the DC closest to their majority country.

The selector core is stateless between calls: all mutable state lives in
a :class:`SlotLedger` (the remaining-slot tallies) and a thread-safe
:class:`SelectorStats`.  Two ledgers implement the same contract:

* :class:`LocalSlotLedger` — a locked in-process dict, the fast path the
  day-replay simulation uses;
* :class:`KVSlotLedger` — slot hashes in a (possibly sharded) kvstore
  with an atomic take-if-positive debit, what the production controller
  keeps in Redis and the online admission service uses.

Because ledger debits are atomic and stats updates are locked, one
selector instance can serve calls from many worker threads concurrently.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.core.errors import CapacityError, TopologyError
from repro.core.types import Call, CallConfig
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.allocation.plan import AllocationPlan
from repro.kvstore.client import Write
from repro.topology.builder import Topology


class SelectionOutcome(NamedTuple):
    """What happened to one call (a tuple: built once per settle)."""

    call_id: str
    initial_dc: str
    final_dc: str
    migrated: bool
    planned: bool        # the final DC came from the plan (vs fallback)
    acl_ms: float
    overflowed: bool = False   # slot-exhaustion: served at initial anyway


@dataclass
class SelectorStats:
    """Running §6.4-style statistics, safe to update from any thread."""

    calls: int = 0
    migrations: int = 0
    unplanned: int = 0
    overflow: int = 0
    acl_sum_ms: float = 0.0

    def __post_init__(self):
        # Not a dataclass field: invisible to __eq__/__repr__, never
        # compared or copied with the counters.
        self._lock = threading.Lock()

    def record(self, acl_ms: float, migrated: bool, planned: bool,
               overflowed: bool) -> None:
        """Fold one call's outcome in atomically."""
        with self._lock:
            self.calls += 1
            self.acl_sum_ms += acl_ms
            if migrated:
                self.migrations += 1
            if not planned:
                self.unplanned += 1
            if overflowed:
                self.overflow += 1

    @property
    def migration_rate(self) -> float:
        with self._lock:
            return self.migrations / self.calls if self.calls else 0.0

    @property
    def mean_acl_ms(self) -> float:
        with self._lock:
            return self.acl_sum_ms / self.calls if self.calls else 0.0


class SlotLedger(ABC):
    """Remaining plan slots per ``(slot index, config)`` cell.

    ``snapshot`` distinguishes *unknown* cells (``None`` — the plan never
    anticipated the config, §5.4's fallback case) from *exhausted* ones
    (a dict with no positive counts — the overflow case).  ``try_debit``
    must be atomic: it succeeds only if a slot was actually available,
    and concurrent debits never oversubscribe or lose slots.
    """

    @abstractmethod
    def snapshot(self, slot_index: int, config: CallConfig
                 ) -> Optional[Dict[str, int]]:
        """Remaining counts per DC, or ``None`` for an unplanned cell."""

    @abstractmethod
    def try_debit(self, slot_index: int, config: CallConfig, dc_id: str,
                  call_id: Optional[str] = None) -> bool:
        """Atomically take one slot; False if none remained.

        ``call_id`` identifies the call being admitted.  Plain slot
        ledgers ignore it; fleet-aware ledgers (``repro.packing``) use it
        to reserve a specific server in the same atomic step, so a DC
        whose servers are too fragmented to host the call refuses the
        debit and the selector's preference walk moves on.
        """

    def snapshot_and_debit(self, slot_index: int, config: CallConfig,
                           dc_id: str, call_id: Optional[str] = None,
                           writes: Sequence[Write] = ()
                           ) -> Tuple[Optional[Dict[str, int]], bool]:
        """A settle's first step, fused: the cell's counts *before* any
        debit (``None`` when unplanned), and whether one slot at
        ``dc_id`` was taken.

        The default is the two calls it stands for; a ledger whose cell
        sits behind a network (:class:`KVSlotLedger`) overrides it to
        pay one round-trip for both, and to carry ``writes`` — other
        store writes that must land first — ahead of them on that trip.
        No other ledger can carry writes.
        """
        if writes:
            raise CapacityError(
                f"{type(self).__name__} cannot carry store writes")
        cell = self.snapshot(slot_index, config)
        took = (cell is not None and cell.get(dc_id, 0) > 0
                and self.try_debit(slot_index, config, dc_id,
                                   call_id=call_id))
        return cell, took

    def credit(self, slot_index: int, config: CallConfig,
               dc_id: str) -> None:
        """Return one previously debited slot (undo).  Base ledgers
        override this; the default is a no-op for ledgers that cannot
        restore slots."""

    # ------------------------------------------------------------------
    # elastic resizing (the autoscaler's primitives)
    # ------------------------------------------------------------------
    def add_slots(self, slot_index: int, config: CallConfig, dc_id: str,
                  count: int) -> None:
        """Grow a cell by ``count`` fresh slots (scale-out).

        Unlike :meth:`credit` this *creates* the cell when the plan never
        had it, marking it planned.  Backends that cannot grow raise.
        """
        raise CapacityError(
            f"{type(self).__name__} cannot grow plan cells")

    def remove_slots(self, slot_index: int, config: CallConfig, dc_id: str,
                     count: int) -> int:
        """Drain up to ``count`` *free* slots from a cell (scale-down).

        Returns how many were actually reclaimed.  Implemented as a
        debit loop, so it only ever takes slots an admission could have
        taken — a slot held by an in-flight call is never touched and
        the cell never goes negative.  A shortfall (return < ``count``)
        means live calls still hold the difference; the caller keeps
        that capacity provisioned until the calls drain.
        """
        taken = 0
        while taken < count and self.try_debit(slot_index, config, dc_id):
            taken += 1
        return taken


class LocalSlotLedger(SlotLedger):
    """In-process ledger: a dict of integerized cells behind one lock."""

    def __init__(self, remaining: Dict[Tuple[int, CallConfig],
                                       Dict[str, int]]):
        self._remaining = remaining
        self._lock = threading.Lock()

    @classmethod
    def from_plan(cls, plan: AllocationPlan) -> "LocalSlotLedger":
        return cls(plan.integerized())

    def snapshot(self, slot_index: int, config: CallConfig
                 ) -> Optional[Dict[str, int]]:
        with self._lock:
            cell = self._remaining.get((slot_index, config))
            return dict(cell) if cell is not None else None

    def try_debit(self, slot_index: int, config: CallConfig, dc_id: str,
                  call_id: Optional[str] = None) -> bool:
        with self._lock:
            cell = self._remaining.get((slot_index, config))
            if cell is not None and cell.get(dc_id, 0) > 0:
                cell[dc_id] -= 1
                return True
            return False

    def credit(self, slot_index: int, config: CallConfig,
               dc_id: str) -> None:
        with self._lock:
            cell = self._remaining.get((slot_index, config))
            if cell is not None:
                cell[dc_id] = cell.get(dc_id, 0) + 1

    def add_slots(self, slot_index: int, config: CallConfig, dc_id: str,
                  count: int) -> None:
        if count < 0:
            raise CapacityError("add_slots count must be >= 0")
        with self._lock:
            cell = self._remaining.setdefault((slot_index, config), {})
            cell[dc_id] = cell.get(dc_id, 0) + count


class KVSlotLedger(SlotLedger):
    """Ledger in a kvstore: ``slots:{t}:{config}`` hashes, atomic debits.

    This is exactly the state the paper's controller keeps in Azure
    Redis.  A debit is one ``htake`` — the store decrements the DC's
    field iff it is positive, atomically (a Redis Lua script) — so it
    costs one round-trip whether it lands or not, a cell never reads
    negative, a refused debit writes nothing, and concurrent debitors
    never lose or double-grant a slot.  A settle's snapshot and its
    first debit travel together as one pipeline, behind whatever
    call-side writes the settling worker hands it
    (:meth:`snapshot_and_debit`).

    A ``_planned`` sentinel field marks every cell the plan knew about,
    so cells that integerize to zero slots still read as *planned but
    exhausted* (overflow) rather than *unanticipated* (fallback).
    """

    _SENTINEL = "_planned"

    def __init__(self, store):
        #: The store the cells live in.  A serving port carries call-side
        #: writes on the debit trip only when they go to this same store.
        self.store = store
        #: Interned cell keys: every planned cell's at ``load_plan``, any
        #: other on its first use (a settle formats no key).
        self._keys: Dict[Tuple[int, CallConfig], str] = {}

    def cell_key(self, slot_index: int, config: CallConfig) -> str:
        """The ``slots:{t}:{config}`` key of a cell (its shard is where a
        settle's debit trip goes)."""
        key = self._keys.get((slot_index, config))
        if key is None:
            key = self._keys[slot_index, config] = \
                f"slots:{slot_index}:{config}"
        return key

    def load_plan(self, plan: AllocationPlan) -> int:
        """Write the integerized plan into the store; returns cell count."""
        cells = plan.integerized()
        pipe = self.store.pipeline()
        for (slot_index, config), cell in cells.items():
            key = self.cell_key(slot_index, config)
            pipe.hset(key, self._SENTINEL, 1)
            for dc_id, count in cell.items():
                pipe.hset(key, dc_id, count)
        pipe.execute()
        return len(cells)

    @classmethod
    def _cell(cls, table: Dict[str, int]) -> Optional[Dict[str, int]]:
        if not table:
            return None
        return {dc: count for dc, count in table.items()
                if dc != cls._SENTINEL}

    def snapshot(self, slot_index: int, config: CallConfig
                 ) -> Optional[Dict[str, int]]:
        return self._cell(
            self.store.hgetall(self.cell_key(slot_index, config)))

    def try_debit(self, slot_index: int, config: CallConfig, dc_id: str,
                  call_id: Optional[str] = None) -> bool:
        return self.store.htake(self.cell_key(slot_index, config), dc_id)

    def snapshot_and_debit(self, slot_index: int, config: CallConfig,
                           dc_id: str, call_id: Optional[str] = None,
                           writes: Sequence[Write] = ()
                           ) -> Tuple[Optional[Dict[str, int]], bool]:
        key = self.cell_key(slot_index, config)
        table, took = self.store.execute_batch(
            [*writes, ("hgetall", (key,)), ("htake", (key, dc_id))])[-2:]
        return self._cell(table), took

    def credit(self, slot_index: int, config: CallConfig,
               dc_id: str) -> None:
        self.store.hincrby(self.cell_key(slot_index, config), dc_id, 1)

    def add_slots(self, slot_index: int, config: CallConfig, dc_id: str,
                  count: int) -> None:
        if count < 0:
            raise CapacityError("add_slots count must be >= 0")
        key = self.cell_key(slot_index, config)
        pipe = self.store.pipeline()
        # Mark the cell planned: a scaled-out cell the original plan
        # never had must read as planned-but-exhaustible (overflow
        # semantics), not unanticipated (fallback).
        pipe.hset(key, self._SENTINEL, 1)
        pipe.hincrby(key, dc_id, count)
        pipe.execute()


class RealTimeSelector:
    """Assigns each new call to a DC, honouring the precomputed plan."""

    def __init__(self, topology: Topology, plan: AllocationPlan,
                 freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S,
                 ledger: Optional[SlotLedger] = None):
        if freeze_window_s <= 0:
            raise CapacityError("freeze window must be positive")
        self.topology = topology
        self.plan = plan
        self.freeze_window_s = freeze_window_s
        self.ledger: SlotLedger = (ledger if ledger is not None
                                   else LocalSlotLedger.from_plan(plan))
        self.stats = SelectorStats()
        #: Live in-flight call registry (``repro.migrate.CallRegistry``);
        #: when set, every settle is reported so a drain can find the
        #: calls currently hosted on a DC.  ``None`` = no live migration.
        self.registry = None
        #: DCs currently down/draining.  The set object is *shared* with
        #: the :class:`~repro.migrate.MigrationExecutor` that installed
        #: it — membership changes apply to subsequent settles without
        #: re-wiring.  A down DC is skipped in the preference walk, and
        #: fallback/overflow placements are redirected off it.
        self.down_dcs = None

    # ------------------------------------------------------------------
    # the two decision points of §5.4
    # ------------------------------------------------------------------
    def initial_dc(self, call: Call) -> str:
        """(a): closest DC to the first joiner."""
        return self.topology.closest_dc(call.first_joiner.country)

    def settle(self, call_id: str, slot_index: int, frozen: CallConfig,
               final: CallConfig, initial_dc: str,
               writes: Sequence[Write] = ()) -> SelectionOutcome:
        """(b)+(c): reconcile one call against the plan, record the outcome.

        ``frozen`` is the config at the freeze (the plan cell it debits),
        ``final`` its full config (what its ACL is measured on).  The
        caller derives the key from a ``Call`` (:meth:`process_call`) or
        from a batch's precomputed columns (the serving port).
        ``writes`` ride the fused snapshot+debit trip ahead of it
        (:meth:`SlotLedger.snapshot_and_debit`); a caller passes them
        only when the initial DC is live, since a down one skips that
        trip.
        """
        down = self.down_dcs if self.down_dcs else ()
        if initial_dc in down:
            if writes:
                raise CapacityError(
                    f"no debit trip to carry writes: {initial_dc} is down")
            cell, took = self.ledger.snapshot(slot_index, frozen), False
        else:
            cell, took = self.ledger.snapshot_and_debit(
                slot_index, frozen, initial_dc, call_id=call_id,
                writes=writes)
        planned, overflowed = True, False
        if took:
            final_dc = initial_dc
        elif cell is None:
            # Unanticipated config: closest DC to the majority (§5.4 b).
            planned = False
            final_dc = self.topology.closest_dc(frozen.majority_country)
            if final_dc in down:
                final_dc = self._failover_dc(frozen, down, final_dc)
        else:
            # Prefer the lowest-ACL DC among those with slots remaining;
            # under concurrency a candidate can vanish between snapshot
            # and debit, so walk the preference order until a debit lands.
            open_dcs = sorted(
                (dc for dc, slots in cell.items()
                 if slots > 0 and dc != initial_dc and dc not in down),
                key=lambda dc: (self.topology.acl_ms(dc, frozen), dc))
            for final_dc in open_dcs:
                if self.ledger.try_debit(slot_index, frozen, final_dc,
                                         call_id=call_id):
                    break
            else:
                # Slot exhaustion: more calls of this config arrived than
                # planned.  Stay at the initial DC and count the overflow
                # — unless that DC is down, in which case overflow is
                # redirected to the best live DC (a served-but-off-plan
                # placement, still counted overflow).
                overflowed = True
                final_dc = (self._failover_dc(frozen, down, initial_dc)
                            if initial_dc in down else initial_dc)
        migrated = final_dc != initial_dc
        acl = self.topology.acl_ms(final_dc, final)
        self.stats.record(acl, migrated, planned, overflowed)
        if self.registry is not None:
            self.registry.on_settle(
                call_id=call_id, slot_index=slot_index, config=frozen,
                dc=final_dc, planned=planned, overflowed=overflowed)
        return SelectionOutcome(call_id, initial_dc, final_dc, migrated,
                                planned, acl, overflowed)

    def _failover_dc(self, config: CallConfig, down, fallback: str) -> str:
        """The best live DC when the natural choice is down."""
        try:
            return self.topology.best_dc(config, exclude=tuple(sorted(down)))
        except TopologyError:
            return fallback

    def process_call(self, call: Call) -> SelectionOutcome:
        initial = self.initial_dc(call)
        return self.settle(call.call_id, self.plan.slot_index_of(call.start_s),
                           call.config(self.freeze_window_s), call.config(),
                           initial)

    def process_trace(self, calls: Iterable[Call]) -> List[SelectionOutcome]:
        return [self.process_call(call) for call in calls]
