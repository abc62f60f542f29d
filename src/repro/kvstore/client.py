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
It sends nothing itself: it builds writes, and the owner queues them
and sends them in batches through the store's one batch entry point,
``execute_batch`` (an empty batch makes no call).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple, Union

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
    """The serving core's client: write-only, and it never waits per step.

    The per-op :class:`ControllerStateClient` pays one network trip per
    op and reads a call's DC and media back before changing them.  The
    online admission service cannot afford that: each call has exactly
    one owner (its worker), which already holds the call's current DC
    and media, so this client never reads.  Its methods *build* writes;
    the owner queues them in row order and sends the queue as one
    pipelined trip (:meth:`flush`), or hands it to its next settle to
    ride the ledger's debit trip, however many writes the queue holds.
    """

    def __init__(self, store: KVStore):
        self._store = store

    @staticmethod
    def _key(call_id: str) -> str:
        return f"call:{{{call_id}}}"

    def open_writes(self, call_id: str, dc_id: str, first_country: str
                    ) -> Tuple[str, List[Write]]:
        """A new call's state as writes, plus its spread key, which the
        owner keeps: a join is ``("hincrby", (key, country, 1))``."""
        key = self._key(call_id)
        spread = f"{key}:spread"
        return spread, [("hset", (key, "dc", dc_id)),
                        ("hset", (key, "media", MediaType.AUDIO.value)),
                        ("hincrby", (spread, first_country, 1)),
                        ("incr", (f"dcload:{dc_id}", 1))]

    def media_write(self, call_id: str, media: MediaType) -> Write:
        """``media`` is the call's media after escalation (the owner
        escalates; the store is only told the result)."""
        return "hset", (self._key(call_id), "media", media.value)

    def migrate_writes(self, call_id: str, old_dc: str,
                       new_dc: str) -> List[Write]:
        return [("hset", (self._key(call_id), "dc", new_dc)),
                ("incr", (f"dcload:{old_dc}", -1)),
                ("incr", (f"dcload:{new_dc}", 1))]

    def close_writes(self, call_id: str, dc_id: str) -> List[Write]:
        key = self._key(call_id)
        return [("incr", (f"dcload:{dc_id}", -1)),
                ("delete", (key,)),
                ("delete", (f"{key}:spread",))]

    def flush(self, writes: List[Write]) -> None:
        """Send ``writes`` as one pipelined trip (none when empty)."""
        if writes:
            self._store.execute_batch(writes)
