"""The process executor: shard workers as OS processes over shared memory.

The thread executor (:class:`~repro.service.engine.AdmissionEngine`)
overlaps simulated kvstore round-trips, but every instruction still
serializes on the GIL, so adding workers cannot add real events/s past
one core.  This module schedules the *same* window kernel
(:func:`~repro.service.engine.serve_rows`) across OS processes:

* **Shared-memory wire format** — each
  :class:`~repro.controller.columnar.ColumnarEventBatch` is promoted to
  one ``multiprocessing.shared_memory`` segment holding the five event
  arrays, the eight trace arrays, and the per-call shard map; workers
  attach zero-copy numpy views.  No event or call object is ever
  pickled — only the tiny string-table/override metadata rides the
  control pipe.
* **Call side in the workers** — each worker process runs the kernel
  over its call partition of every window against a private kvstore
  built from a :class:`StoreSpec`.
* **Ledger side in the parent** — every outcome-affecting shared
  structure (slot/fleet ledger, selector stats, migrator registry,
  defragmenter, autoscaler, settle latencies) stays in the parent
  behind one :class:`~repro.service.engine.LocalPort`.  The workers'
  kernel talks to it through a :class:`PipePort`: exactly one message
  per scheduled row, which the parent applies in **global row order**
  by walking a precomputed schedule of which worker owns each such row.
  A freeze is a blocking round-trip (the worker needs the outcome to
  write migrations); joins/releases/skips are fire-and-forget.  This
  makes ledger state, selector statistics, and the accounting partition
  byte-identical to the single-process oracle.
* **Barriers and merge** — a window ends with a ``done`` message from
  every worker (all quiescent), and the run with a ``result`` fragment
  from each (counters, latency samples, kv op count, final store
  state); the barrier sequence and the report are the shared base's.

Construction belongs to
:meth:`repro.service.runtime.ServiceRuntime.from_config`, which selects
this engine when ``ServiceConfig.executor == "process"``.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.errors import SwitchboardError
from repro.controller.columnar import ColumnarEventBatch
from repro.kvstore.client import PipelinedStateClient
from repro.kvstore.sharded import ShardedKVStore
from repro.kvstore.store import InMemoryKVStore
from repro.service.engine import (
    _END,
    _FREEZE,
    _JOIN,
    ServingEngine,
    WorkerState,
    dump_store_state,
    partition_columns,
    serve_rows,
    store_latency_samples,
)
from repro.topology.builder import Topology
from repro.workload.columnar import ColumnarTrace, StringTable

#: Cap on per-worker latency samples shipped back at drain; merging is
#: for percentile reporting, not accounting, so a bounded sample is fine.
_MAX_SHIPPED_SAMPLES = 200_000

#: (attribute, dtype) of the event arrays promoted to shared memory.
_BATCH_ARRAYS: Tuple[Tuple[str, Any], ...] = (
    ("t_s", np.float64), ("call_idx", np.int64), ("type_code", np.int8),
    ("country_code", np.int32), ("media_code", np.int8),
)

#: (attribute, dtype) of the trace arrays promoted to shared memory.
_TRACE_ARRAYS: Tuple[Tuple[str, Any], ...] = (
    ("start_s", np.float64), ("duration_s", np.float64),
    ("call_uid", np.int64), ("part_offsets", np.int64),
    ("join_offset_s", np.float64), ("country_code", np.int32),
    ("media_code", np.int8), ("part_index", np.int32),
)

# ----------------------------------------------------------------------
# worker store recipe (picklable; built inside the worker process)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreSpec:
    """How each worker process builds its private call-state kvstore.

    Workers cannot share a live store object across processes, so they
    receive this recipe instead and construct their own — the same
    shape the thread engine would have used (sharded ring, optional
    simulated latency).
    """

    n_shards: int = 4
    latency_median_ms: Optional[float] = None
    latency_seed: int = 99

    @classmethod
    def from_service_config(cls, svc) -> "StoreSpec":
        return cls(n_shards=svc.n_shards,
                   latency_median_ms=svc.kv_latency_median_ms,
                   latency_seed=svc.kv_latency_seed)

    def build(self) -> ShardedKVStore:
        if self.latency_median_ms is not None:
            return ShardedKVStore.with_latency(
                n_shards=self.n_shards, median_ms=self.latency_median_ms,
                seed=self.latency_seed)
        return ShardedKVStore(n_shards=self.n_shards)


def merge_store_states(dumps: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-process store dumps into one canonical state.

    Call-state keys (``call:*``) are disjoint across workers (each call
    lives on exactly one worker) and ledger keys (``slots:*``,
    ``pack:*``) live only in the parent; the single legitimate overlap
    is the ``dcload:{dc}`` counters, whose increments commute — integer
    collisions sum, anything else is a partitioning bug.
    """
    merged: Dict[str, Any] = {}
    for dump in dumps:
        for key, value in dump.items():
            if key not in merged:
                merged[key] = value
            elif isinstance(merged[key], int) and isinstance(value, int):
                merged[key] = merged[key] + value
            else:
                raise SwitchboardError(
                    f"conflicting cross-worker store state for key {key!r}")
    return merged


# ----------------------------------------------------------------------
# shared-memory segment layout
# ----------------------------------------------------------------------
def _pack_segment(batch: ColumnarEventBatch,
                  shard_of_call: Optional[np.ndarray]
                  ) -> Tuple[shared_memory.SharedMemory, Dict[str, Any]]:
    """Promote one batch (events + trace + shard map, when there is more
    than one worker) to a single shared-memory segment; returns the
    segment and its pickled-side metadata (segment name, per-array
    offsets, string tables)."""
    trace = batch.trace
    arrays: Dict[str, np.ndarray] = {}
    if shard_of_call is not None:
        arrays["shard_of_call"] = np.ascontiguousarray(shard_of_call,
                                                       dtype=np.int64)
    for name, dtype in _BATCH_ARRAYS:
        arrays[f"batch.{name}"] = np.ascontiguousarray(
            getattr(batch, name), dtype=dtype)
    for name, dtype in _TRACE_ARRAYS:
        arrays[f"trace.{name}"] = np.ascontiguousarray(
            getattr(trace, name), dtype=dtype)

    layout: Dict[str, Tuple[int, str, int]] = {}
    offset = 0
    for key, arr in arrays.items():
        offset = (offset + 15) & ~15  # 16-byte-align every array
        layout[key] = (offset, arr.dtype.str, int(arr.shape[0]))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for key, arr in arrays.items():
        start = layout[key][0]
        view = np.frombuffer(shm.buf, dtype=arr.dtype,
                             count=arr.shape[0], offset=start)
        view[:] = arr
    meta = {
        "shm": shm.name,
        "layout": layout,
        "countries": trace.countries.values,
        "slots": list(trace.slots),
        "call_id_overrides": dict(trace.call_id_overrides),
        "part_id_overrides": dict(trace.part_id_overrides),
    }
    return shm, meta


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it for cleanup.

    The parent owns every segment's lifetime (it unlinks after the
    workers exit).  A worker's attach must therefore stay invisible to
    the resource tracker: on 3.13+ that is the ``track=False`` keyword;
    on 3.11/3.12 attaching always registers, the registration is never
    dropped by ``close()``, and the tracker reports the segment as
    leaked at shutdown.  There, registration is suppressed for the
    duration of the attach (workers are single-threaded at this point).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *_args, **_kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class _AttachedBatch:
    """A worker's zero-copy view of one promoted batch."""

    def __init__(self, meta: Dict[str, Any]):
        self.shm = _attach_untracked(meta["shm"])
        layout = meta["layout"]

        def view(key: str) -> np.ndarray:
            start, dtype, count = layout[key]
            return np.frombuffer(self.shm.buf, dtype=np.dtype(dtype),
                                 count=count, offset=start)

        self.shard_of_call = (view("shard_of_call")
                              if "shard_of_call" in layout else None)
        self.trace = ColumnarTrace(
            **{name: view(f"trace.{name}") for name, _ in _TRACE_ARRAYS},
            countries=StringTable(meta["countries"]),
            slots=meta["slots"],
            call_id_overrides=meta["call_id_overrides"],
            part_id_overrides=meta["part_id_overrides"],
        )
        for name, _ in _BATCH_ARRAYS:
            setattr(self, name, view(f"batch.{name}"))

    def close(self) -> None:
        """Drop the numpy views, then unmap.  Calls never straddle
        batches, so nothing serving-side can reference these arrays
        after the batch's last window."""
        self.trace = self.shard_of_call = None
        for name, _ in _BATCH_ARRAYS:
            setattr(self, name, None)
        try:
            self.shm.close()
        except BufferError:
            # A stray view still holds the buffer; the OS reclaims the
            # mapping at process exit, and the parent owns the unlink.
            pass




# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
class PipePort:
    """The kernel's port in a worker process: the ledger side is the
    parent, one control-pipe message per scheduled row away.

    ``fleet`` says whether the parent consumes joins and ends (a fleet
    ledger or a migrator is bound) and so schedules those rows too;
    without it only freezes are scheduled.  The kernel's call-side
    writes go to the worker's private store: they cannot ride the
    parent's ledger trip, so a settle flushes every queue as one
    pipeline first.
    """

    def __init__(self, conn, fleet: bool):
        self._conn = conn
        self._send = conn.send
        self.join = self._join if fleet else None
        self.release = self._release if fleet else None

    def _join(self, row: int, call_id: str) -> None:
        self._send(("join", row, call_id))

    def _release(self, row: int, call_id: str) -> None:
        self._send(("release", row, call_id))

    def skip(self, row: int) -> None:
        self._send(("skip", row))

    def settle(self, row: int, call_index: int, call_id: str,
               initial_dc: str, ended: bool,
               client: PipelinedStateClient) -> Tuple[str, bool]:
        client.flush()
        # Blocking round-trip: the parent runs the selector against the
        # shared ledger (releasing an already-ended call's reservation in
        # the same step) and replies with the outcome to write.
        self._send(("settle", row, call_index, initial_dc, ended))
        reply = self._conn.recv()
        if reply[0] != "outcome":
            raise SwitchboardError(
                f"expected settle outcome, got {reply[0]!r}")
        return reply[1], reply[2]


def _worker_main(worker_index: int, topology: Topology,
                 store_spec: StoreSpec, fleet: bool, conn) -> None:
    """Worker-process entry point: run the kernel over my call partition
    of every window, the parent on the other end of the port.

    Protocol (worker side):

    * recv ``("batch", meta)`` — attach the shared-memory segment;
    * recv ``("serve", lo, hi)`` — serve my rows of ``[lo, hi)``; every
      scheduled row emits exactly one message (``settle`` blocks for the
      ``outcome`` reply; ``join``/``release``/``skip`` do not); finish
      with ``("done", counters)``;
    * recv ``("finish",)`` — reply ``("result", fragment)`` and exit.
    """
    current: Optional[_AttachedBatch] = None
    try:
        state = WorkerState(topology)
        store = store_spec.build()
        client = PipelinedStateClient(store)
        port = PipePort(conn, fleet)
        conn.send(("ready", worker_index))
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "batch":
                if current is not None:
                    current.close()
                current = _AttachedBatch(msg[1])
            elif kind == "serve":
                serve_rows(state, current.trace,
                           *partition_columns(current, msg[1], msg[2],
                                              current.shard_of_call,
                                              worker_index),
                           client, port)
                conn.send(("done", state.counts()))
            elif kind == "finish":
                fragment = state.fragment()
                fragment["admission_ms"] = \
                    fragment["admission_ms"][:_MAX_SHIPPED_SAMPLES]
                fragment["kv_op_count"] = store.op_count
                fragment["kv_samples_ms"] = \
                    store_latency_samples(store)[:_MAX_SHIPPED_SAMPLES]
                fragment["state"] = dump_store_state(store)
                conn.send(("result", fragment))
                if current is not None:
                    current.close()
                return
            else:
                raise SwitchboardError(f"unknown control message {kind!r}")
    except EOFError:
        return  # parent went away; nothing left to report to
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


# ----------------------------------------------------------------------
# parent engine
# ----------------------------------------------------------------------
class MultiprocessAdmissionEngine(ServingEngine):
    """Serves the stream across worker processes.

    Same construction surface as the thread executor (plus
    ``worker_store_spec``), same report, byte-identical accounting and
    store state — pinned against the thread oracle in
    ``tests/test_mpservice.py``.  ``store`` here is the **parent-side**
    store: it holds the slot ledger (and any injected fleet ledger's
    keys) and folds into the merged op count and state dump; per-call
    state lives in the workers' private stores built from
    ``worker_store_spec``.
    """

    executor = "process"
    # The parent ledger store deliberately simulates no latency: settles
    # serialize through the parent actor, and their cost must not scale
    # with the workers they coordinate.  Ops are still counted, so
    # op-count parity with the oracle holds.
    _default_store = InMemoryKVStore

    def __init__(self, *args, worker_store_spec: StoreSpec = StoreSpec(),
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.worker_store_spec = worker_store_spec
        self._n_shards = worker_store_spec.n_shards
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        self._segments: List[shared_memory.SharedMemory] = []
        self._worker_states: Optional[List[Dict[str, Any]]] = None

    def store_state(self) -> Dict[str, Any]:
        """Worker stores + parent ledger store, merged — the
        byte-identical parity surface against the thread executor's."""
        if self._worker_states is None:
            raise SwitchboardError("store_state() requires a completed "
                                   "run()")
        return merge_store_states(
            self._worker_states + [dump_store_state(self.store)])

    # ------------------------------------------------------------------
    # executor hooks
    # ------------------------------------------------------------------
    def _start(self) -> None:
        port = self._local_port()
        self._ports = [port]
        # A migrator forces the fleet schedule even over a plain slot
        # ledger (its registry hears every end through port.release).
        fleet = port.join is not None or port.release is not None
        self._scheduled_codes = (_JOIN, _FREEZE, _END) if fleet \
            else (_FREEZE,)
        # fork inherits the imported world for free; spawn works too but
        # pays re-import, so it is only the fallback (non-POSIX hosts).
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        for w in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(w, self.topology, self.worker_store_spec, fleet,
                      child_conn),
                name=f"admission-worker-{w}", daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        # Ready barrier: spawn/import cost stays out of the serve timer.
        for w in range(self.n_workers):
            self._expect(w, "ready")

    def _open_batch(self, batch: ColumnarEventBatch,
                    shard_of_call: Optional[np.ndarray]) -> None:
        shm, meta = _pack_segment(batch, shard_of_call)
        self._segments.append(shm)
        self._broadcast(("batch", meta))
        # The parent's schedule: exactly the rows whose serving touches
        # the ledger side, in global row order, each tagged with the
        # worker that owns it.
        sched = np.flatnonzero(np.isin(batch.type_code,
                                       self._scheduled_codes))
        self._sched_rows = sched.tolist()
        self._sched_owner = (
            shard_of_call[batch.call_idx[sched]].tolist()
            if shard_of_call is not None else [0] * len(sched))
        self._sched_next = 0

    def _serve_window(self, batch: ColumnarEventBatch, lo: int, hi: int
                      ) -> List[Dict[str, int]]:
        self._broadcast(("serve", lo, hi))
        rows, owners = self._sched_rows, self._sched_owner
        ptr = self._sched_next
        while ptr < len(rows) and rows[ptr] < hi:
            self._apply(batch.trace, rows[ptr], owners[ptr])
            ptr += 1
        self._sched_next = ptr
        # Window barrier: every worker reports done (and is now
        # quiescent, blocked on the next control message).
        return [self._expect(w, "done")[1] for w in range(self.n_workers)]

    def _apply(self, trace: ColumnarTrace, row: int, owner: int) -> None:
        """One scheduled row's message, applied to the ledger side."""
        msg = self._recv(owner)
        kind = msg[0]
        if msg[1] != row:
            raise SwitchboardError(
                f"worker {owner} answered row {msg[1]} at scheduled row "
                f"{row}: partition/schedule mismatch")
        port = self._ports[0]
        if kind == "settle":
            _, _, call_index, initial_dc, ended = msg
            self._send(owner, ("outcome",) + port.settle(
                row, call_index, trace.call_id(call_index), initial_dc,
                ended))
        elif kind in ("join", "release"):
            # The fleet schedule carries both kinds even when only one
            # has a consumer (a migrator over a plain slot ledger).
            hook = getattr(port, kind)
            if hook is not None:
                hook(row, msg[2])
        elif kind != "skip":
            raise SwitchboardError(f"unknown worker message {kind!r}")

    def _finish(self) -> List[Dict[str, Any]]:
        self._broadcast(("finish",))
        fragments = [self._expect(w, "result")[1]
                     for w in range(self.n_workers)]
        self._worker_states = [f.pop("state") for f in fragments]
        return fragments

    def _stop(self, failed: bool) -> None:
        for proc in self._procs:
            if failed and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=10.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs, self._conns = [], []
        # Segments are unlinked only after every worker has exited: a
        # worker's attach registers with the resource tracker, and
        # unlinking while registrations are still in flight races the
        # tracker into leak warnings at interpreter shutdown.
        for shm in self._segments:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments = []

    # ------------------------------------------------------------------
    def _crashed(self, w: int) -> SwitchboardError:
        return SwitchboardError(
            f"admission worker {w} crashed "
            f"(exitcode {self._procs[w].exitcode}); aborting the run")

    def _send(self, w: int, msg) -> None:
        try:
            self._conns[w].send(msg)
        except OSError:
            # The worker's end of the pipe is gone: it died.
            raise self._crashed(w)

    def _broadcast(self, msg) -> None:
        for w in range(self.n_workers):
            self._send(w, msg)

    def _recv(self, w: int):
        conn, proc = self._conns[w], self._procs[w]
        while not conn.poll(0.05):
            if not proc.is_alive():
                raise self._crashed(w)
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            proc.join(timeout=1.0)  # reap it so the exit code shows
            raise self._crashed(w)
        if msg[0] == "error":
            raise SwitchboardError(
                f"admission worker {w} failed:\n{msg[1]}")
        return msg

    def _expect(self, w: int, kind: str):
        msg = self._recv(w)
        if msg[0] != kind:
            raise SwitchboardError(
                f"worker {w}: expected {kind}, got {msg[0]!r}")
        return msg
