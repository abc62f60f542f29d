"""The serving core: one window kernel, one engine base, the thread executor.

This is the serving layer the paper's controller actually is (§5.4,
§6.6): every call reaches the service as a stream of events — start,
joins, media changes, the A-second config freeze, the hangup — and is
handled by **one** stateless function whose state lives where Azure
Redis sits in production.  Scale-out only changes who schedules it:

* :func:`serve_rows` — the window kernel.  It owns the *call side* of a
  partition: the :class:`WorkerState` call table and counters, and every
  call-state write.  The writes are write-behind: they queue in row
  order, one queue per store shard, and a settle takes the queue of its
  ledger cell's shard onto its own store trip when the slot ledger
  shares the store — so a call waits on the store about once (its
  freeze), on one shard, not at every lifecycle step.  A write is
  durable at the next settle on its shard or at the end of the window,
  whichever comes first; the store at every barrier is what per-step
  writes would leave.
* the *port* — the kernel's only view of the *ledger side*: slot/fleet
  ledger, selector and its statistics, the migrator's live-call
  registry, outcome counts, settle latencies.  :class:`LocalPort` calls
  them in-process; ``repro.service.mp``'s pipe port sends one message
  per scheduled row to a parent that does.
* :class:`ServingEngine` — everything that is not scheduling: wiring,
  the call→worker map, window bucketing, the barrier between windows,
  snapshots, and the report folded from per-worker fragments.
* :class:`AdmissionEngine` — the thread executor: one worker serves each
  window on the calling thread (fully deterministic — the oracle the
  process executor is pinned against); N workers run the kernel once
  per window per call partition on N threads, so their simulated store
  round-trips overlap the way Fig 10's controller scales with Redis
  writer threads.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.core.errors import SwitchboardError
from repro.core.types import MediaType
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.allocation.plan import AllocationPlan
from repro.allocation.realtime import (
    KVSlotLedger,
    RealTimeSelector,
    SlotLedger,
)
from repro.autoscale.telemetry import ServiceSnapshot
from repro.controller.columnar import ColumnarEventBatch
from repro.controller.events import EVENT_SORT_CODE, EventType
from repro.kvstore.client import PipelinedStateClient, Write
from repro.kvstore.sharded import ShardedKVStore
from repro.kvstore.store import InMemoryKVStore
from repro.obs.events import Observability
from repro.obs.histogram import LatencyHistogram, percentiles_ms
from repro.service.report import ServiceReport
from repro.topology.builder import Topology
from repro.workload.columnar import ColumnarTrace

_START = EVENT_SORT_CODE[EventType.CALL_START]
_JOIN = EVENT_SORT_CODE[EventType.PARTICIPANT_JOIN]
_MEDIA = EVENT_SORT_CODE[EventType.MEDIA_CHANGE]
_FREEZE = EVENT_SORT_CODE[EventType.CONFIG_FREEZE]
_END = EVENT_SORT_CODE[EventType.CALL_END]

#: What ``run`` accepts: one columnar batch, or an iterable of batches
#: (served incrementally, so peak memory stays one batch).
EventSource = Union[ColumnarEventBatch, Iterable[ColumnarEventBatch]]


# ----------------------------------------------------------------------
# the call side: one worker's state
# ----------------------------------------------------------------------
class _Call:
    """Per-call serving state, owned by exactly one worker.

    ``dc`` and ``media`` are the authoritative copies of what the store's
    ``call:{<id>}`` hash holds: the owner is the only writer of that
    hash, so it never has to read it back.  ``spread`` is the call's
    ``call:{<id>}:spread`` key, built once at START for every JOIN write,
    and ``queue`` the write queue of the shard both keys live on,
    resolved once at START.
    """

    __slots__ = ("dc", "spread", "queue", "media", "settled", "ended")

    def __init__(self, dc: str, spread: str, queue: List[Write]):
        self.dc = dc
        self.spread = spread
        self.queue = queue
        self.media = MediaType.AUDIO
        self.settled = False
        self.ended = False


class WorkerState:
    """One worker's private call table and cumulative counters.

    Workers never share these, so the kernel takes no engine-wide lock;
    the report folds the per-worker :meth:`fragment`s after the run.
    """

    COUNTERS = ("processed", "dropped", "joins", "media_changes",
                "generated", "early_ended", "ended")
    __slots__ = COUNTERS + ("calls", "admission_ms", "closest_dc")

    def __init__(self, topology: Topology):
        self.calls: Dict[str, _Call] = {}
        self.admission_ms: List[float] = []
        #: §5.4 (a): a call starts at the DC closest to its first joiner.
        self.closest_dc = topology.closest_dc
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def counts(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.COUNTERS}

    def fragment(self) -> Dict[str, Any]:
        """What this worker contributes to the run's report."""
        return {
            "counters": self.counts(),
            "unsettled": sum(1 for call in self.calls.values()
                             if not call.settled),
            "admission_ms": self.admission_ms,
        }


# ----------------------------------------------------------------------
# the window kernel
# ----------------------------------------------------------------------
def serve_rows(worker: WorkerState, trace: ColumnarTrace,
               rows: Iterable[int], call_idx: Sequence[int],
               type_code: Sequence[int], country_code: Sequence[int],
               media_code: Sequence[int], client: PipelinedStateClient,
               port) -> None:
    """Serve one worker's rows of one window, in row order.

    ``rows`` are batch row numbers and the four columns their values as
    plain Python scalars (see :func:`partition_columns` — per-row numpy
    scalar indexing costs more than the dispatch itself at stream
    scale).  No event or call object is built here.

    Port contract — the ledger side, and the only thing that differs
    between executors:

    * ``port.settle(row, call_index, call_id, initial_dc, ended, client)``
      → ``(final_dc, migrated)`` reconciles a freeze against the plan;
      ``ended`` says the call already hung up, so its reservation is to
      be released in the same step.  ``client`` holds the worker's queued
      call-side writes, one queue per store shard.  When the settle's
      debit trip goes to the call-side store (a :class:`KVSlotLedger` on
      it, initial DC live), that trip carries the queue of the ledger
      cell's shard ahead of its ledger ops, and the other queues wait.
      Otherwise every queue leaves as one pipeline just ahead of the
      settle.  Whatever the port sends, it empties.
    * ``port.join(row, call_id)`` / ``port.release(row, call_id)`` hear
      served joins and the ends of settled calls; each is ``None`` when
      nothing on the ledger side consumes them (no fleet ledger, no
      migrator) and is then never called.
    * ``port.skip(row)`` accounts for a row the ledger side might be
      waiting on that turned out to need nothing: a dropped freeze
      always; a dropped join, or a dropped / early end, only when the
      matching hook is set.

    So every freeze row — plus every join and end row when hooks are set
    — makes exactly one port call, which is what lets the process
    executor's parent apply them in global row order.

    The call side is write-only and write-behind: a call's current DC
    and media live in its :class:`_Call`, so nothing here reads the
    store, and every call-side write (START's open, joins, media, the
    migrate and close a freeze or end decides) joins the FIFO of its
    key's shard in row order (the client's ``queues``; one on a
    one-shard store).  A call's shard is resolved once, at START, and
    each ``dcload:<dc>`` counter's once per client.  A queue leaves with
    the next settle on its shard, and whatever is left when the window
    ends leaves as one batch — one store wait, fanned out to every shard
    with writes.  So START, JOIN, MEDIA and END make no trip of their
    own, and a carried FREEZE makes one, on one shard (plus its
    preference walk).  A write is durable at the next settle on its
    shard or at the end of the window, whichever comes first.  Final
    store state and op counts equal per-event writes, and so does every
    barrier's: the ops are the same, each key hears them in the same
    order (a key lives on one shard, and a call's keys have one writer),
    ``dcload`` increments commute, and no call-side key is a ledger key.

    A JOIN or MEDIA row for a call with no live entry (participants who
    join after the hangup, or a call whose start was dropped) is counted
    as before but writes nothing — its keys are gone, and a write would
    recreate them with nobody left to delete them.
    """
    calls = worker.calls
    closest_dc = worker.closest_dc
    record_admission = worker.admission_ms.append
    ids = trace.call_ids()
    country_of = trace.countries.values
    open_call = client.open
    settle, skip = port.settle, port.skip
    join, release = port.join, port.release
    clock = time.perf_counter
    for row, call_index, code, country, media in zip(
            rows, call_idx, type_code, country_code, media_code):
        call_id = ids[call_index]
        if code == _JOIN:
            if country < 0:
                worker.dropped += 1
                if join is not None:
                    skip(row)
                continue
            call = calls.get(call_id)
            if call is not None:
                call.queue.append(
                    ("hincrby", (call.spread, country_of[country], 1)))
            worker.joins += 1
            if join is not None:
                # Post-freeze joins grow the call's server reservation
                # (a no-op before the call is settled/placed).
                join(row, call_id)
        elif code == _START:
            if country < 0:
                worker.dropped += 1
                continue
            t0 = clock()
            first_country = country_of[country]
            initial = closest_dc(first_country)
            calls[call_id] = _Call(initial,
                                   *open_call(call_id, initial, first_country))
            worker.generated += 1
            record_admission((clock() - t0) * 1e3)
        elif code == _MEDIA:
            if media < 0:
                worker.dropped += 1
                continue
            call = calls.get(call_id)
            if call is not None:
                call.media = call.media.escalate(MediaType.from_code(media))
                client.media(call.queue, call_id, call.media)
            worker.media_changes += 1
        elif code == _FREEZE:
            call = calls.get(call_id)
            if call is None or call.settled:
                worker.dropped += 1
                skip(row)
                continue
            final_dc, migrated = settle(row, call_index, call_id,
                                        call.dc, call.ended, client)
            call.settled = True
            if migrated:
                client.migrate(call.queue, call_id, call.dc, final_dc)
                call.dc = final_dc
            if call.ended:
                # Hung up before its freeze point; it was settled against
                # the plan anyway (the slot was reserved for it), and its
                # state can be released now.
                client.close(call.queue, call_id, call.dc)
                del calls[call_id]
        elif code == _END:
            call = calls.get(call_id)
            if call is None:
                worker.dropped += 1
                if release is not None:
                    skip(row)
                continue
            worker.ended += 1
            if call.settled:
                client.close(call.queue, call_id, call.dc)
                del calls[call_id]
                if release is not None:
                    release(row, call_id)
            else:
                call.ended = True
                worker.early_ended += 1
                if release is not None:
                    skip(row)
        else:
            raise SwitchboardError(f"unknown event code {code}")
        worker.processed += 1
    client.flush()


def partition_columns(batch, lo: int, hi: int,
                      shard_of_call: Optional[np.ndarray], worker: int
                      ) -> Tuple[Iterable[int], List[int], List[int],
                                 List[int], List[int]]:
    """One worker's share of window ``[lo, hi)`` as :func:`serve_rows`
    input: row numbers plus the four columns, ``tolist()``-ed up front.

    ``shard_of_call`` is ``None`` for a single worker — the whole window,
    no mask.  ``batch`` is anything with the event arrays (a
    :class:`ColumnarEventBatch` or a worker's shared-memory view).
    """
    if shard_of_call is None:
        rows: Iterable[int] = range(lo, hi)
        pick: Any = slice(lo, hi)
    else:
        pick = np.flatnonzero(
            shard_of_call[batch.call_idx[lo:hi]] == worker) + lo
        rows = pick.tolist()
    return (rows, batch.call_idx[pick].tolist(),
            batch.type_code[pick].tolist(),
            batch.country_code[pick].tolist(),
            batch.media_code[pick].tolist())


# ----------------------------------------------------------------------
# the ledger side, in-process
# ----------------------------------------------------------------------
class LocalPort:
    """The kernel's port when the ledger side is in this process.

    Settles through the selector against the shared ledger, counts the
    outcome where it is decided, and forwards joins/ends to whichever of
    ``ledger.note_join`` / ``ledger.release`` / the migrator's
    ``registry.on_end`` exist (plain slot ledgers have neither hook).
    The thread executor holds one per worker, so counts need no lock;
    the process executor's parent feeds one the workers' messages.

    ``store`` is where the kernel's call-side writes go (``None`` when
    they never reach this port: the process executor's workers send
    their own).  When the ledger is a :class:`KVSlotLedger` on that
    store and the call's initial DC is live, a settle carries the write
    queue of its ledger cell's shard on its fused snapshot+debit trip,
    so the trip touches that one shard.  Otherwise — a fleet or local
    ledger, a down initial DC — every queue leaves as one pipeline just
    ahead of the settle.
    """

    def __init__(self, selector: RealTimeSelector, ledger: SlotLedger,
                 migrator, settle_latency: LatencyHistogram, store=None):
        self.admitted = self.migrated = self.overflowed = self.unplanned = 0
        self._selector = selector
        self._settle = selector.settle
        self._record_settle = settle_latency.record
        self._carries = (isinstance(ledger, KVSlotLedger)
                         and ledger.store is store)
        self._cell_key = ledger.cell_key if self._carries else None
        note_join = getattr(ledger, "note_join", None)
        enders: List[Callable[[str], Any]] = []
        if getattr(ledger, "release", None) is not None:
            enders.append(ledger.release)
        if migrator is not None:
            # The registry's settle feed is wired through the selector
            # at bind time; here it hears every call end.
            enders.append(migrator.registry.on_end)
        self.join = (None if note_join is None
                     else lambda row, call_id: note_join(call_id))
        self.release = None if not enders else self._release
        self._enders = enders

    def open(self, trace: ColumnarTrace) -> None:
        """Batch open: derive the settle key of every call of ``trace``
        at once — its plan slot (one ``floor_divide``, clamped like
        :meth:`~repro.allocation.plan.AllocationPlan.slot_index_of`) and
        its frozen and final configs (the trace's interned config
        tables) — so a settle indexes three lists, never a call view."""
        selector = self._selector
        slots = selector.plan.slots
        index = np.floor_divide(trace.start_s - slots[0].start_s,
                                slots[0].duration_s)
        self._slot_of_call = np.clip(index, 0, len(slots) - 1) \
            .astype(np.int64).tolist()
        frozen, codes = trace.config_table(selector.freeze_window_s)
        self._frozen = [frozen[code] for code in codes.tolist()]
        final, codes = trace.config_table(None)
        self._final = [final[code] for code in codes.tolist()]

    def _release(self, row: int, call_id: str) -> None:
        for end in self._enders:
            end(call_id)

    def skip(self, row: int) -> None:
        pass

    def settle(self, row: int, call_index: int, call_id: str,
               initial_dc: str, ended: bool,
               client: Optional[PipelinedStateClient] = None
               ) -> Tuple[str, bool]:
        slot, frozen = self._slot_of_call[call_index], self._frozen[call_index]
        writes: List[Write] = []
        if client is not None:
            if self._carries and initial_dc not in (self._selector.down_dcs
                                                    or ()):
                queues = client.queues
                # One shard has one queue: no cell key to route.
                writes = (queues[0] if len(queues) == 1 else
                          client.queue_of(self._cell_key(slot, frozen)))
            else:
                client.flush()
        t0 = time.perf_counter()
        _, _, final_dc, migrated, planned, _, overflowed = self._settle(
            call_id, slot, frozen, self._final[call_index], initial_dc,
            writes)
        writes.clear()
        if migrated:
            self.migrated += 1
        elif overflowed:
            self.overflowed += 1
        else:
            self.admitted += 1
        if not planned:
            self.unplanned += 1
        self._record_settle((time.perf_counter() - t0) * 1e3)
        if ended and self.release is not None:
            # An early-ended call closes at its freeze: release its
            # reservation now, before the next scheduled row.
            self.release(row, call_id)
        return final_dc, migrated


# ----------------------------------------------------------------------
# store-state dumps (the byte-identical parity surface)
# ----------------------------------------------------------------------
def _shards_of(store) -> List[InMemoryKVStore]:
    if isinstance(store, ShardedKVStore):
        return [store.shard(shard_id) for shard_id in store.shard_ids]
    return [store]


def dump_store_state(store) -> Dict[str, Any]:
    """A canonical ``key -> value`` dump of a kvstore, shards merged.

    Hash values are copied so the dump is a stable snapshot.  Keys are
    disjoint across shards by construction, so the merge is a plain
    union.
    """
    return {key: dict(value) if isinstance(value, dict) else value
            for shard in _shards_of(store)
            for key, value in shard._data.items()}


def store_latency_samples(store) -> List[float]:
    return [sample for shard in _shards_of(store)
            for sample in shard.latency_samples_ms()]


# ----------------------------------------------------------------------
# the shared engine
# ----------------------------------------------------------------------
class ServingEngine:
    """Everything about serving a stream that is not scheduling.

    Subclasses are executors: they decide *where* :func:`serve_rows`
    runs for each window, through five hooks, and nothing else:

    * ``_start()`` — bring up the workers and ``self._ports`` for a run;
    * ``_open_batch(batch, shard_of_call)`` — a new batch is about to be
      served window by window;
    * ``_serve_window(batch, lo, hi)`` — serve rows ``[lo, hi)`` on every
      worker; returns, once all are quiescent, each worker's cumulative
      counters;
    * ``_finish()`` — collect every worker's report fragment;
    * ``_stop(failed)`` — release what ``_start`` acquired.

    Build through :meth:`repro.service.runtime.ServiceRuntime.from_config`.
    """

    executor: str
    #: Built when no ``store`` is passed.
    _default_store: Callable[[], Union[ShardedKVStore, InMemoryKVStore]]

    def __init__(self, topology: Topology, plan: AllocationPlan,
                 store: Optional[Union[ShardedKVStore,
                                       InMemoryKVStore]] = None,
                 n_workers: int = 1,
                 freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S,
                 obs: Optional[Observability] = None,
                 ledger: Optional[SlotLedger] = None,
                 defragmenter=None,
                 defrag_interval_s: Optional[float] = None,
                 rescaler=None,
                 migrator=None):
        if n_workers < 1:
            raise SwitchboardError("need at least one admission worker")
        if defrag_interval_s is not None and defrag_interval_s <= 0:
            raise SwitchboardError("defrag_interval_s must be positive")
        self.topology = topology
        self.store = store if store is not None else self._default_store()
        #: Shard count of the store(s) holding per-call state.
        self._n_shards = getattr(self.store, "n_shards", 1)
        self.n_workers = n_workers
        self.obs = obs
        # An injected ledger (e.g. a repro.packing fleet ledger) replaces
        # the DC-granularity slot ledger: same contract, plus per-server
        # placement.  It must expose load_plan(plan) -> cell count.
        self.ledger = ledger if ledger is not None else KVSlotLedger(self.store)
        self.planned_cells = self.ledger.load_plan(plan)
        self.selector = RealTimeSelector(topology, plan, freeze_window_s,
                                         ledger=self.ledger)
        self.defragmenter = defragmenter
        self.defrag_interval_s = defrag_interval_s
        self.defrag_rounds = 0
        # The rescaler and the migrator share the defragmenter's safe
        # point: serving pauses at window boundaries (workers quiescent),
        # so plan mutations never race the admission path.  Each declares
        # its own ``interval_s``; with several consumers the window grid
        # is the finest of their intervals, and each still acts on every
        # boundary it observes.
        self.rescaler = rescaler
        self.migrator = migrator
        consumers = [c for c in (rescaler, migrator) if c is not None]
        intervals = [c.interval_s for c in consumers]
        if defragmenter is not None and defrag_interval_s is not None:
            intervals.append(defrag_interval_s)
        self._window_interval_s = min(intervals) if intervals else None
        for consumer in consumers:
            consumer.bind(self)
        self.admission_latency = LatencyHistogram()
        self.settle_latency = LatencyHistogram()
        #: Ledger-side ports of the current run (their outcome counts sum
        #: to the run's) and each worker's counters as of the last window.
        self._ports: List[LocalPort] = []
        self._counts: List[Dict[str, int]] = []

    def _local_port(self, store=None) -> LocalPort:
        return LocalPort(self.selector, self.ledger, self.migrator,
                         self.settle_latency, store)

    def _stop(self, failed: bool) -> None:
        """Release whatever ``_start`` acquired (runs on every path)."""

    # ------------------------------------------------------------------
    def run(self, events: EventSource) -> ServiceReport:
        """Serve the whole stream; returns the run's report.

        Calls shard to workers by call id, so per-call event order is
        preserved while different calls proceed concurrently.  Any item
        that is not a :class:`~repro.controller.columnar.ColumnarEventBatch`
        raises :class:`SwitchboardError`.
        """
        batches = self._batch_source(events)
        if self.obs is not None:
            self.obs.record("service.run", label="admission",
                            n_workers=self.n_workers, executor=self.executor)
        n_events = 0
        anchor: Optional[float] = None
        failed = True
        try:
            self._start()
            start = time.perf_counter()
            for batch in batches:
                if len(batch) == 0:
                    continue
                n_events += len(batch)
                for port in self._ports:
                    port.open(batch.trace)
                self._open_batch(batch, self._shard_of_call(batch.trace))
                ranges, anchor = self._window_ranges(batch, anchor)
                for lo, hi in ranges:
                    self._counts = self._serve_window(batch, lo, hi)
                    self._barrier(float(batch.t_s[hi - 1]))
            wall = time.perf_counter() - start
            fragments = self._finish()
            failed = False
        finally:
            self._stop(failed)
        if n_events == 0:
            raise SwitchboardError("no events to serve")

        report = self._report(fragments, n_events, wall)
        if self.obs is not None:
            self.obs.record("service.done", label="admission",
                            events_per_s=report.events_per_s,
                            accounting_exact=report.accounting_exact)
        return report

    def store_state(self) -> Dict[str, Any]:
        """Canonical end-of-run store state (executor-independent)."""
        return dump_store_state(self.store)

    # ------------------------------------------------------------------
    @staticmethod
    def _batch_source(events: EventSource) -> Iterator[ColumnarEventBatch]:
        """Normalize the input into an iterator of batches, rejecting
        anything else as it arrives."""
        for batch in ([events] if isinstance(events, ColumnarEventBatch)
                      else events):
            if not isinstance(batch, ColumnarEventBatch):
                raise SwitchboardError(
                    f"run serves ColumnarEventBatch input, got "
                    f"{type(batch).__name__}; encode a trace with "
                    f"repro.controller.columnar.build_event_batch")
            yield batch

    def _shard_of_call(self, trace: ColumnarTrace) -> Optional[np.ndarray]:
        """Call index → owning worker; ``None`` for a single worker."""
        if self.n_workers == 1:
            return None
        # Stable shard (zlib.crc32, not the randomized builtin hash) so a
        # given trace always lands on the same workers.
        return np.array(
            [zlib.crc32(call_id.encode("utf-8")) % self.n_workers
             for call_id in trace.call_ids()], dtype=np.int64)

    def _window_ranges(self, batch: ColumnarEventBatch,
                       anchor: Optional[float]
                       ) -> Tuple[List[Tuple[int, int]], Optional[float]]:
        """Bucket a batch's rows into barrier windows: fixed intervals
        anchored at the stream's first timestamp, empty windows merged
        forward.  Without a barrier consumer the batch is one window."""
        interval = self._window_interval_s
        if interval is None:
            return [(0, len(batch))], anchor
        if anchor is None:
            anchor = float(batch.t_s[0])
        window = np.floor_divide(batch.t_s - anchor,
                                 interval).astype(np.int64)
        cuts = np.flatnonzero(np.diff(window)) + 1
        bounds = [0] + cuts.tolist() + [len(batch)]
        return list(zip(bounds[:-1], bounds[1:])), anchor

    def _barrier(self, t_s: float) -> None:
        """The safe point between windows: workers are quiescent, so the
        fleet and the plan may be mutated through the ledger."""
        if self.defragmenter is not None:
            self.defragmenter.run_round()
            self.defrag_rounds += 1
        if self.rescaler is not None:
            self.rescaler.on_window(self._snapshot(t_s))
        if self.migrator is not None:
            # After the rescaler: drain orders it just issued (and any
            # due DC failures) execute at this same barrier.
            self.migrator.on_window(self._snapshot(t_s))

    def _snapshot(self, t_s: float) -> ServiceSnapshot:
        """Cumulative accounting at the just-served window's boundary."""
        return ServiceSnapshot(
            t_s=t_s,
            generated=sum(c["generated"] for c in self._counts),
            admitted=sum(p.admitted for p in self._ports),
            migrated=sum(p.migrated for p in self._ports),
            overflowed=sum(p.overflowed for p in self._ports),
            unplanned=sum(p.unplanned for p in self._ports),
            events_processed=sum(c["processed"] for c in self._counts),
        )

    # ------------------------------------------------------------------
    def _report(self, fragments: List[Dict[str, Any]], n_events: int,
                wall_s: float) -> ServiceReport:
        """Fold the workers' fragments and the ledger side into one
        report.  Fragments from worker processes also carry their private
        store's ``kv_op_count`` / ``kv_samples_ms``."""
        counters = [f["counters"] for f in fragments]

        def total(name: str) -> int:
            return sum(c[name] for c in counters)

        processed = total("processed")
        kv_samples = store_latency_samples(self.store)
        for fragment in fragments:
            self.admission_latency.record_many(fragment["admission_ms"])
            kv_samples.extend(fragment.get("kv_samples_ms", ()))

        def metrics(source, method: str) -> Dict[str, object]:
            """An optional subsystem's metrics block ({} when absent)."""
            read = getattr(source, method, None)
            return read() if read is not None else {}

        stats = self.selector.stats
        packing = metrics(self.ledger, "fleet_metrics")
        autoscale = metrics(self.rescaler, "autoscale_metrics")
        migration = metrics(self.migrator, "migration_metrics")
        return ServiceReport(
            n_workers=self.n_workers,
            n_shards=self._n_shards,
            executor=self.executor,
            events_total=n_events,
            events_processed=processed,
            dropped_events=total("dropped"),
            joins=total("joins"),
            media_changes=total("media_changes"),
            generated_calls=total("generated"),
            admitted_calls=sum(p.admitted for p in self._ports),
            migrated_calls=sum(p.migrated for p in self._ports),
            overflowed_calls=sum(p.overflowed for p in self._ports),
            unplanned_calls=sum(p.unplanned for p in self._ports),
            early_ended_calls=total("early_ended"),
            ended_calls=total("ended"),
            unsettled_calls=sum(f["unsettled"] for f in fragments),
            wall_time_s=wall_s,
            events_per_s=processed / wall_s if wall_s > 0 else 0.0,
            admission_latency_ms=self.admission_latency.percentiles(),
            settle_latency_ms=self.settle_latency.percentiles(),
            kv_latency_ms=percentiles_ms(kv_samples),
            kv_op_count=(self.store.op_count
                         + sum(f.get("kv_op_count", 0) for f in fragments)),
            migration_rate=stats.migration_rate,
            mean_acl_ms=stats.mean_acl_ms,
            defrag_migrated_calls=int(packing.get("defrag_moves", 0)),
            defrag_rounds=self.defrag_rounds,
            frag_slots_lost=int(packing.get("frag_slots_lost", 0)),
            packing=packing,
            rescale_events=int(autoscale.get("rescale_events", 0)),
            autoscale=autoscale,
            live_migrated_calls=int(
                migration.get("live_migrated_calls", 0)),
            disrupted_calls=int(migration.get("disrupted_calls", 0)),
            migration_batches=int(migration.get("batches", 0)),
            migration_latency_ms=(self.migrator.latency.percentiles()
                                  if migration else {}),
            migration=migration,
        )


# ----------------------------------------------------------------------
# the thread executor
# ----------------------------------------------------------------------
class AdmissionEngine(ServingEngine):
    """Serves the stream in this process, one thread per worker.

    All call state and ledgers live in one (sharded) kvstore.  With one
    worker every window is served on the calling thread, so a run is
    fully deterministic.
    """

    executor = "thread"
    _default_store = ShardedKVStore

    def _start(self) -> None:
        self._clients = [PipelinedStateClient(self.store)
                         for _ in range(self.n_workers)]
        self._workers = [WorkerState(self.topology)
                         for _ in range(self.n_workers)]
        self._ports = [self._local_port(self.store)
                       for _ in range(self.n_workers)]

    def _open_batch(self, batch: ColumnarEventBatch,
                    shard_of_call: Optional[np.ndarray]) -> None:
        self._shard = shard_of_call

    def _serve_window(self, batch: ColumnarEventBatch, lo: int, hi: int
                      ) -> List[Dict[str, int]]:
        def serve(w: int) -> None:
            serve_rows(self._workers[w], batch.trace,
                       *partition_columns(batch, lo, hi, self._shard, w),
                       self._clients[w], self._ports[w])

        if self.n_workers == 1:
            serve(0)
        else:
            errors: List[BaseException] = []

            def guarded(w: int) -> None:
                try:
                    serve(w)
                except BaseException as exc:  # surface, don't swallow
                    errors.append(exc)

            threads = [threading.Thread(target=guarded, args=(w,),
                                        daemon=True)
                       for w in range(self.n_workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise SwitchboardError(
                    f"admission worker failed: {errors[0]!r}") from errors[0]
        return [worker.counts() for worker in self._workers]

    def _finish(self) -> List[Dict[str, Any]]:
        return [worker.fragment() for worker in self._workers]
