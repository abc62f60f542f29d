"""Typed client facades over the kvstore for controller state.

Define the key schema the controller uses, so that the raw store never
leaks stringly-typed keys into the controller logic (``<x>`` is a
placeholder, braces are literal):

* ``call:<id>``            — hash: assigned DC (``dc``), escalated media
  (``media``);
* ``call:<id>:spread``     — hash: participants so far per country;
* ``slots:<t>:<config>``   — hash: remaining plan slots per DC (owned
  by :class:`~repro.allocation.realtime.KVSlotLedger`, not by these
  clients);
* ``dcload:<dc>``          — counter: live calls per DC.

:class:`ControllerStateClient` is the per-op, read-before-write
reference the serving core's store state is pinned against.
:class:`PipelinedStateClient`, the serving core's, writes the same
schema with the call id as a Redis-cluster hash tag — ``call:{<id>}``
and ``call:{<id>}:spread`` — so both of a call's keys live on one shard.
It sends nothing per step: it queues writes, one FIFO per store shard,
and its owner sends them in batches through the store's one batch entry
point, ``execute_batch`` (an empty batch makes no call).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.core.types import CallConfig, MediaType
from repro.kvstore.store import InMemoryKVStore

if TYPE_CHECKING:
    from repro.kvstore.sharded import ShardedKVStore

#: Any store with the single-key op surface (and, for the pipelined
#: client, ``execute_batch``): one in-memory instance or a sharded cluster.
KVStore = Union[InMemoryKVStore, "ShardedKVStore"]


class ControllerStateClient:
    """What the real controller would do against Redis, typed."""

    def __init__(self, store: KVStore):
        self._store = store

    # -- per-call state -------------------------------------------------
    def open_call(self, call_id: str, dc_id: str, first_country: str) -> None:
        self._store.hset(f"call:{call_id}", "dc", dc_id)
        self._store.hset(f"call:{call_id}", "media", MediaType.AUDIO.value)
        self._store.hincrby(f"call:{call_id}:spread", first_country, 1)
        self._store.incr(f"dcload:{dc_id}")

    def record_join(self, call_id: str, country: str) -> None:
        self._store.hincrby(f"call:{call_id}:spread", country, 1)

    def record_media(self, call_id: str, media: MediaType) -> None:
        current = self._store.hget(f"call:{call_id}", "media")
        if current is not None:
            escalated = MediaType(current).escalate(media)
            self._store.hset(f"call:{call_id}", "media", escalated.value)
        else:
            self._store.hset(f"call:{call_id}", "media", media.value)

    def call_dc(self, call_id: str) -> Optional[str]:
        return self._store.hget(f"call:{call_id}", "dc")

    def migrate_call(self, call_id: str, new_dc: str) -> None:
        old_dc = self._store.hget(f"call:{call_id}", "dc")
        self._store.hset(f"call:{call_id}", "dc", new_dc)
        if old_dc is not None:
            self._store.decr(f"dcload:{old_dc}")
        self._store.incr(f"dcload:{new_dc}")

    def close_call(self, call_id: str) -> None:
        dc_id = self._store.hget(f"call:{call_id}", "dc")
        if dc_id is not None:
            self._store.decr(f"dcload:{dc_id}")
        self._store.delete(f"call:{call_id}")
        self._store.delete(f"call:{call_id}:spread")

    def observed_config(self, call_id: str) -> Optional[CallConfig]:
        """The config as accumulated so far from join/media events."""
        spread = self._store.hgetall(f"call:{call_id}:spread")
        if not spread:
            return None
        media_raw = self._store.hget(f"call:{call_id}", "media")
        media = MediaType(media_raw) if media_raw else MediaType.AUDIO
        return CallConfig.build(spread, media)

    # -- load ------------------------------------------------------------
    def dc_load(self, dc_id: str) -> int:
        return self._store.get(f"dcload:{dc_id}") or 0


#: One queued store write: ``(op name, args)``, as a pipeline carries it.
Write = Tuple[str, Tuple[Any, ...]]


class PipelinedStateClient:
    """One serving worker's client: write-only, write-behind, per shard.

    The per-op :class:`ControllerStateClient` pays one network trip per
    op and reads a call's DC and media back before changing them.  The
    online admission service cannot afford that: each call has exactly
    one owner (its worker), which already holds the call's current DC
    and media, so this client never reads.  Its methods *queue* writes
    in row order on :attr:`queues`, one FIFO per store shard, and send
    nothing: the owner hands a queue to a settle to ride that shard's
    ledger trip, and sends whatever is left with :meth:`flush`.

    Every key's shard is resolved once — a call's at :meth:`open` (the
    owner keeps the returned queue for the call's later writes), each
    ``dcload:<dc>`` counter's on its first write — so queueing a write
    routes nothing.  On a one-shard store there is one queue and no
    routing at all.
    """

    def __init__(self, store: KVStore):
        self._store = store
        n_shards = getattr(store, "n_shards", 1)
        #: Writes not yet sent: one FIFO per store shard, in row order.
        self.queues: List[List[Write]] = [[] for _ in range(n_shards)]
        self._loads: Dict[str, Tuple[List[Write], Write, Write]] = {}

    def queue_of(self, key: str) -> List[Write]:
        """The FIFO of the shard ``key`` lives on."""
        if len(self.queues) == 1:
            return self.queues[0]
        return self.queues[self._store.shard_index(key)]

    def _load(self, dc_id: str) -> Tuple[List[Write], Write, Write]:
        """The FIFO of ``dcload:<dc>``'s shard and the counter's ``+1``
        and ``-1`` writes, built on the DC's first write and kept."""
        key = f"dcload:{dc_id}"
        load = self._loads[dc_id] = (self.queue_of(key), ("incr", (key, 1)),
                                     ("incr", (key, -1)))
        return load

    @staticmethod
    def _key(call_id: str) -> str:
        return f"call:{{{call_id}}}"

    def open(self, call_id: str, dc_id: str, first_country: str
             ) -> Tuple[str, List[Write]]:
        """Queue a new call's state.  Returns its spread key and its
        shard's FIFO, which the owner keeps: a join is
        ``("hincrby", (spread, country, 1))`` appended there."""
        key = self._key(call_id)
        spread = f"{key}:spread"
        queue = self.queue_of(key)
        queue += [("hset", (key, "dc", dc_id)),
                  ("hset", (key, "media", MediaType.AUDIO.value)),
                  ("hincrby", (spread, first_country, 1))]
        counter, up, _ = self._loads.get(dc_id) or self._load(dc_id)
        counter.append(up)
        return spread, queue

    def media(self, queue: List[Write], call_id: str,
              media: MediaType) -> None:
        """``media`` is the call's media after escalation (the owner
        escalates; the store is only told the result)."""
        queue.append(("hset", (self._key(call_id), "media", media.value)))

    def migrate(self, queue: List[Write], call_id: str, old_dc: str,
                new_dc: str) -> None:
        queue.append(("hset", (self._key(call_id), "dc", new_dc)))
        counter, _, down = self._loads.get(old_dc) or self._load(old_dc)
        counter.append(down)
        counter, up, _ = self._loads.get(new_dc) or self._load(new_dc)
        counter.append(up)

    def close(self, queue: List[Write], call_id: str, dc_id: str) -> None:
        key = self._key(call_id)
        counter, _, down = self._loads.get(dc_id) or self._load(dc_id)
        counter.append(down)
        queue += [("delete", (key,)), ("delete", (f"{key}:spread",))]

    def flush(self) -> None:
        """Send every queued write as one batch, and empty the queues.
        One store wait: a sharded store sends each non-empty queue to
        its shard concurrently.  Nothing queued sends nothing."""
        queues = self.queues
        writes = (queues[0] if len(queues) == 1
                  else [write for queue in queues for write in queue])
        if writes:
            self._store.execute_batch(writes)
            for queue in queues:
                queue.clear()
