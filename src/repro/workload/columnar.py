"""Columnar (struct-of-arrays) call traces: the streaming data plane.

The object-per-call representation (:class:`~repro.workload.trace.CallTrace`
holding ``Call``/``Participant`` dataclasses) is the right *edge* API — tests
and small experiments read naturally against it — but at Fig-10 scale
(millions of join/media events replayed through the controller, §6.5/§6.6)
the per-object overhead dominates both wall clock and RSS.  This module
holds the columnar core everything else now runs on:

* :class:`StringTable` — interned string ids (country codes, and any
  non-canonical call/participant ids) so the hot arrays carry small ints;
* :class:`ColumnarTrace` — parallel numpy arrays for calls (start,
  duration, uid) and participants (CSR join offsets, country code, media
  code), with *vectorized* freeze-window config resolution
  (:meth:`ColumnarTrace.config_table`) and ``D_tc`` aggregation
  (:meth:`ColumnarTrace.to_demand`) via bincount-style reductions;
* :class:`CallView` / :class:`ParticipantView` — lazily-constructed
  object views satisfying the ``Call`` / ``Participant`` duck interface,
  so the real-time selector and every existing object-based caller keep
  working unchanged at the edges.

Chunking contract: a trace can be sliced at **call granularity**
(:meth:`ColumnarTrace.slice_calls`) and chunks re-assembled with
:func:`concat_traces`; every call carries all of its participants in
exactly one chunk, which is what keeps the admission service's exact
accounting (admitted + migrated + overflowed == generated) intact under
chunked streaming.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.types import (
    Call,
    CallConfig,
    MediaType,
    Participant,
    TimeSlot,
)
from repro.workload.arrivals import Demand

__all__ = [
    "CallView",
    "ColumnarTrace",
    "ParticipantView",
    "StringTable",
    "concat_traces",
]


class StringTable:
    """Bidirectional string<->code interning (append-only, stable codes)."""

    def __init__(self, values: Optional[Iterable[str]] = None):
        self._values: List[str] = []
        self._codes: Dict[str, int] = {}
        if values is not None:
            for value in values:
                self.code(value)

    def __len__(self) -> int:
        return len(self._values)

    def code(self, value: str) -> int:
        """Intern ``value``; returns its stable code."""
        found = self._codes.get(value)
        if found is None:
            found = len(self._values)
            self._codes[value] = found
            self._values.append(value)
        return found

    def codes(self, values: Iterable[str]) -> np.ndarray:
        return np.fromiter((self.code(v) for v in values), dtype=np.int32)

    def value(self, code: int) -> str:
        return self._values[code]

    @property
    def values(self) -> Tuple[str, ...]:
        return tuple(self._values)


class ParticipantView:
    """Lazy ``Participant``-shaped view into one participant row."""

    __slots__ = ("_trace", "_pos")

    def __init__(self, trace: "ColumnarTrace", pos: int):
        self._trace = trace
        self._pos = pos

    @property
    def participant_id(self) -> str:
        return self._trace.participant_id(self._pos)

    @property
    def country(self) -> str:
        return self._trace.countries.value(int(self._trace.country_code[self._pos]))

    @property
    def join_offset_s(self) -> float:
        return float(self._trace.join_offset_s[self._pos])

    @property
    def media(self) -> MediaType:
        return MediaType.from_code(int(self._trace.media_code[self._pos]))

    def to_participant(self) -> Participant:
        return Participant(
            participant_id=self.participant_id,
            country=self.country,
            join_offset_s=self.join_offset_s,
            media=self.media,
        )


class CallView:
    """Lazy ``Call``-shaped view into one call row.

    Satisfies everything the real-time selector and controller touch —
    ``call_id``, ``start_s``/``duration_s``/``end_s``, ``first_joiner``,
    ``config(freeze_after_s)``, ``participants`` — without materializing
    participant objects unless actually asked for.  ``config()`` hits the
    trace's vectorized, interned config table, so the per-call hot path
    never rebuilds spread dicts.
    """

    __slots__ = ("_trace", "index")

    def __init__(self, trace: "ColumnarTrace", index: int):
        self._trace = trace
        self.index = index

    @property
    def call_id(self) -> str:
        return self._trace.call_id(self.index)

    @property
    def start_s(self) -> float:
        return float(self._trace.start_s[self.index])

    @property
    def duration_s(self) -> float:
        return float(self._trace.duration_s[self.index])

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def series_id(self) -> None:
        return None

    @property
    def participants(self) -> List[ParticipantView]:
        lo, hi = self._trace.call_span(self.index)
        return [ParticipantView(self._trace, pos) for pos in range(lo, hi)]

    @property
    def first_joiner(self) -> ParticipantView:
        return ParticipantView(self._trace,
                               self._trace.first_position(self.index))

    @property
    def media(self) -> MediaType:
        lo, hi = self._trace.call_span(self.index)
        return MediaType.from_code(int(self._trace.media_code[lo:hi].max()))

    def config(self, freeze_after_s: Optional[float] = None) -> CallConfig:
        return self._trace.config_of(self.index, freeze_after_s)

    def to_call(self) -> Call:
        """Materialize a real ``Call`` dataclass (the object edge)."""
        return Call(
            call_id=self.call_id,
            start_s=self.start_s,
            duration_s=self.duration_s,
            participants=[p.to_participant() for p in self.participants],
        )


class ColumnarTrace:
    """A call trace as parallel arrays (struct-of-arrays).

    Call-level arrays (length ``n_calls``):

    * ``start_s``/``duration_s`` — float64 seconds;
    * ``call_uid`` — int64; a uid of ``-1`` means the call id does not
      follow the canonical ``call-{uid:08d}`` scheme and the exact string
      lives in an override table instead (lossless round-trips).

    Participant-level arrays (length ``n_participants``, CSR-indexed by
    ``part_offsets``):

    * ``join_offset_s`` — float64 seconds since call start;
    * ``country_code`` — int32 into the ``countries`` string table;
    * ``media_code`` — int8 :attr:`MediaType.code` (escalation rank);
    * ``part_index`` — int32 canonical participant number (the ``k`` of
      ``{call_id}-p{k}``); ``-1`` with an override for foreign ids.
    """

    def __init__(self, start_s: np.ndarray, duration_s: np.ndarray,
                 call_uid: np.ndarray, part_offsets: np.ndarray,
                 join_offset_s: np.ndarray, country_code: np.ndarray,
                 media_code: np.ndarray, part_index: np.ndarray,
                 countries: StringTable, slots: Sequence[TimeSlot],
                 call_id_overrides: Optional[Dict[int, str]] = None,
                 part_id_overrides: Optional[Dict[int, str]] = None):
        self.start_s = np.asarray(start_s, dtype=np.float64)
        self.duration_s = np.asarray(duration_s, dtype=np.float64)
        self.call_uid = np.asarray(call_uid, dtype=np.int64)
        self.part_offsets = np.asarray(part_offsets, dtype=np.int64)
        self.join_offset_s = np.asarray(join_offset_s, dtype=np.float64)
        self.country_code = np.asarray(country_code, dtype=np.int32)
        self.media_code = np.asarray(media_code, dtype=np.int8)
        self.part_index = np.asarray(part_index, dtype=np.int32)
        self.countries = countries
        self.slots = list(slots)
        self.call_id_overrides = call_id_overrides or {}
        self.part_id_overrides = part_id_overrides or {}

        n = self.start_s.shape[0]
        if self.part_offsets.shape != (n + 1,):
            raise WorkloadError(
                f"part_offsets must have length n_calls+1 "
                f"({n + 1}), got {self.part_offsets.shape}")
        if n and (np.diff(self.part_offsets) < 1).any():
            raise WorkloadError("every call needs at least one participant")
        m = self.join_offset_s.shape[0]
        if int(self.part_offsets[0]) != 0 or int(self.part_offsets[-1]) != m:
            raise WorkloadError("participant arrays inconsistent with CSR offsets")

        # Caches (per freeze key); None key == full config.
        self._config_cache: Dict[object, Tuple[List[CallConfig], np.ndarray]] = {}
        self._call_id_cache: Dict[int, str] = {}
        self._call_ids_all: Optional[List[str]] = None
        self._first_pos: Optional[np.ndarray] = None
        self._part_call: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def n_calls(self) -> int:
        return int(self.start_s.shape[0])

    @property
    def n_participants(self) -> int:
        return int(self.join_offset_s.shape[0])

    def __len__(self) -> int:
        return self.n_calls

    def __iter__(self):
        for i in range(self.n_calls):
            yield CallView(self, i)

    def call(self, index: int) -> CallView:
        return CallView(self, index)

    def call_span(self, index: int) -> Tuple[int, int]:
        return int(self.part_offsets[index]), int(self.part_offsets[index + 1])

    def call_id(self, index: int) -> str:
        cached = self._call_id_cache.get(index)
        if cached is None:
            override = self.call_id_overrides.get(index)
            cached = (override if override is not None
                      else f"call-{int(self.call_uid[index]):08d}")
            self._call_id_cache[index] = cached
        return cached

    def call_ids(self) -> List[str]:
        """Every call id, built in one pass and cached (per-event hot
        loops index this instead of formatting strings per event)."""
        if self._call_ids_all is None:
            ids = [f"call-{uid:08d}" for uid in self.call_uid.tolist()]
            for index, override in self.call_id_overrides.items():
                ids[index] = override
            self._call_ids_all = ids
        return self._call_ids_all

    def participant_id(self, pos: int) -> str:
        override = self.part_id_overrides.get(pos)
        if override is not None:
            return override
        call_index = int(self.participant_call()[pos])
        return f"{self.call_id(call_index)}-p{int(self.part_index[pos])}"

    def participant_call(self) -> np.ndarray:
        """Participant row -> owning call index (cached)."""
        if self._part_call is None:
            self._part_call = np.repeat(
                np.arange(self.n_calls, dtype=np.int64),
                np.diff(self.part_offsets))
        return self._part_call

    def first_positions(self) -> np.ndarray:
        """Per call, the participant row of the first joiner.

        Matches ``Call.first_joiner``: the minimum ``(join_offset_s,
        participant_id)``.  Generated traces store participants sorted by
        join offset with a unique 0.0 minimum, so this is almost always
        ``part_offsets[:-1]``; ties fall back to the id comparison.
        """
        if self._first_pos is not None:
            return self._first_pos
        if self.n_calls == 0:
            self._first_pos = np.zeros(0, dtype=np.int64)
            return self._first_pos
        starts = self.part_offsets[:-1]
        seg_min = np.minimum.reduceat(self.join_offset_s, starts)
        first = starts.copy()
        # Calls whose stored first row is not (or not uniquely) the
        # minimum-offset participant need a real argmin walk.
        needs_walk = self.join_offset_s[starts] != seg_min
        tie_possible = np.add.reduceat(
            (self.join_offset_s == seg_min[self.participant_call()]).astype(np.int64),
            starts) > 1
        for i in np.nonzero(needs_walk | tie_possible)[0]:
            lo, hi = self.call_span(int(i))
            best = min(range(lo, hi),
                       key=lambda p: (float(self.join_offset_s[p]),
                                      self.participant_id(p)))
            first[i] = best
        self._first_pos = first
        return first

    def first_position(self, index: int) -> int:
        """The first joiner's participant row for one call."""
        return int(self.first_positions()[index])

    # ------------------------------------------------------------------
    # vectorized config resolution (the §5.4 freeze, in columns)
    # ------------------------------------------------------------------
    def config_table(self, freeze_after_s: Optional[float] = None
                     ) -> Tuple[List[CallConfig], np.ndarray]:
        """``(configs, codes)``: per-call interned config at the freeze.

        ``codes[i]`` indexes ``configs`` with the config of call ``i`` as
        observed ``freeze_after_s`` seconds in (``None`` = final config),
        computed with masked bincount-style reductions instead of a
        per-participant dict walk.  Configs are interned in call order
        (first appearance), matching the object path's ordering.
        """
        key = freeze_after_s
        cached = self._config_cache.get(key)
        if cached is not None:
            return cached
        if self.n_calls == 0:
            result: Tuple[List[CallConfig], np.ndarray] = ([], np.zeros(0, np.int64))
            self._config_cache[key] = result
            return result

        part_call = self.participant_call()
        if freeze_after_s is None:
            mask = np.ones(self.n_participants, dtype=bool)
        else:
            mask = self.join_offset_s <= freeze_after_s
            kept = np.add.reduceat(mask.astype(np.int64), self.part_offsets[:-1])
            if (kept == 0).any():
                bad = int(np.nonzero(kept == 0)[0][0])
                raise WorkloadError(
                    f"call {self.call_id(bad)}: no participant within freeze window")

        masked_media = np.where(mask, self.media_code, 0).astype(np.int8)
        call_media = np.maximum.reduceat(masked_media, self.part_offsets[:-1])

        n_countries = max(len(self.countries), 1)
        pair = (part_call[mask] * n_countries
                + self.country_code[mask].astype(np.int64))
        upair, ucount = np.unique(pair, return_counts=True)
        ucall = upair // n_countries
        uctry = (upair % n_countries).astype(np.int32)
        bounds = np.searchsorted(ucall, np.arange(self.n_calls + 1))

        # One token per (country, count), one row per call in country-code
        # order (0 = no such position): equal rows <=> equal spreads.
        token = uctry.astype(np.int64) * (int(ucount.max()) + 1) + ucount
        rows = np.zeros((self.n_calls, int(np.diff(bounds).max())),
                        dtype=np.int64)
        rows[ucall, np.arange(upair.shape[0]) - bounds[ucall]] = token
        # Refine a per-call key one position at a time: after column p two
        # calls share a key iff they agree on media and tokens 0..p.
        # Re-ranking each step keeps the key below n_calls (no overflow).
        call_key = call_media.astype(np.int64)
        base = int(token.max()) + 1
        for p in range(rows.shape[1]):
            call_key = np.unique(call_key * base + rows[:, p],
                                 return_inverse=True)[1]
        _, first, inverse = np.unique(call_key, return_index=True,
                                      return_inverse=True)
        # np.unique numbers keys in sorted order; renumber by first
        # appearance (call order).
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        codes = rank[inverse]

        configs: List[CallConfig] = []
        for i in first[order].tolist():
            s, e = bounds[i], bounds[i + 1]
            spread = {self.countries.value(int(c)): int(k)
                      for c, k in zip(uctry[s:e], ucount[s:e])}
            configs.append(CallConfig.build(
                spread, MediaType.from_code(int(call_media[i]))))
        result = (configs, codes)
        self._config_cache[key] = result
        return result

    def config_of(self, index: int,
                  freeze_after_s: Optional[float] = None) -> CallConfig:
        configs, codes = self.config_table(freeze_after_s)
        return configs[int(codes[index])]

    def to_demand(self, freeze_after_s: Optional[float] = None) -> Demand:
        """``D_tc`` over the trace's slot grid, via one bincount."""
        if self.n_calls == 0:
            raise WorkloadError("empty trace")
        configs, codes = self.config_table(freeze_after_s)
        duration = self.slots[0].duration_s
        slot_i = np.minimum((self.start_s // duration).astype(np.int64),
                            len(self.slots) - 1)
        n_cfg = len(configs)
        flat = np.bincount(slot_i * n_cfg + codes,
                           minlength=len(self.slots) * n_cfg)
        counts = flat.reshape(len(self.slots), n_cfg).astype(np.float64)
        return Demand(self.slots, configs, counts)

    # ------------------------------------------------------------------
    # misc aggregations
    # ------------------------------------------------------------------
    def join_offsets(self) -> np.ndarray:
        """All participant join offsets (Fig 8's input)."""
        return self.join_offset_s.copy()

    def first_country_codes(self) -> np.ndarray:
        """Per call, the first joiner's country code."""
        return self.country_code[self.first_positions()]

    def majority_matches_first_joiner_rate(self) -> float:
        """Fraction of calls whose majority country equals the first
        joiner's country (the paper measures 95.2%, §5.4): one gather
        over the interned config table instead of a per-call dict walk."""
        if self.n_calls == 0:
            raise WorkloadError("empty trace")
        configs, codes = self.config_table(None)
        majority_code = np.array(
            [self.countries.code(c.majority_country) for c in configs],
            dtype=np.int64)
        matches = majority_code[codes] == self.first_country_codes()
        return float(matches.mean())

    # ------------------------------------------------------------------
    # overlay hooks (the repro.storms substrate)
    # ------------------------------------------------------------------
    def replace(self, **arrays) -> "ColumnarTrace":
        """A copy of this trace with some arrays/fields replaced.

        The storm overlays transform traces through this hook: the copy
        re-validates CSR consistency and starts with fresh caches, so a
        transformed trace never leaks the original's config tables or
        id caches.  Unnamed fields carry over (overrides are copied).
        """
        kwargs = dict(
            start_s=self.start_s, duration_s=self.duration_s,
            call_uid=self.call_uid, part_offsets=self.part_offsets,
            join_offset_s=self.join_offset_s, country_code=self.country_code,
            media_code=self.media_code, part_index=self.part_index,
            countries=self.countries, slots=self.slots,
            call_id_overrides=dict(self.call_id_overrides),
            part_id_overrides=dict(self.part_id_overrides),
        )
        unknown = set(arrays) - set(kwargs)
        if unknown:
            raise WorkloadError(f"unknown trace fields: {sorted(unknown)}")
        kwargs.update(arrays)
        return ColumnarTrace(**kwargs)

    def permute_calls(self, perm: np.ndarray) -> "ColumnarTrace":
        """Reorder calls by ``perm`` (one CSR gather, no Python loops).

        ``perm[k]`` is the old index of the call that lands at new index
        ``k``; id overrides are remapped through the same permutation.
        Overlays that move calls in time (e.g. ``ClockShift``) use this
        to restore the start-sorted invariant.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.n_calls,):
            raise WorkloadError(
                f"permutation length {perm.shape} != n_calls {self.n_calls}")
        if self.n_calls == 0:
            return self.replace()
        lengths = np.diff(self.part_offsets)
        new_lengths = lengths[perm]
        new_offsets = np.concatenate(
            [[0], np.cumsum(new_lengths)]).astype(np.int64)
        gather = (np.repeat(self.part_offsets[:-1][perm], new_lengths)
                  + np.arange(new_offsets[-1], dtype=np.int64)
                  - np.repeat(new_offsets[:-1], new_lengths))
        inverse = np.empty(self.n_calls, dtype=np.int64)
        inverse[perm] = np.arange(self.n_calls)
        pos_map = np.empty(self.n_participants, dtype=np.int64)
        pos_map[gather] = np.arange(self.n_participants)
        return self.replace(
            start_s=self.start_s[perm], duration_s=self.duration_s[perm],
            call_uid=self.call_uid[perm], part_offsets=new_offsets,
            join_offset_s=self.join_offset_s[gather],
            country_code=self.country_code[gather],
            media_code=self.media_code[gather],
            part_index=self.part_index[gather],
            call_id_overrides={int(inverse[i]): v
                               for i, v in self.call_id_overrides.items()},
            part_id_overrides={int(pos_map[p]): v
                               for p, v in self.part_id_overrides.items()},
        )

    def repeat_calls(self, repeats: np.ndarray) -> "ColumnarTrace":
        """Call ``i`` appears ``repeats[i]`` times (0 drops it).

        The first surviving copy keeps the call's uid and any id
        overrides; extra copies are new calls and get fresh canonical
        uids (allocated sequentially after the trace's current maximum)
        so ids stay unique.  Participant arrays are replicated with one
        CSR gather.  Repeats preserve start order, so a start-sorted
        trace stays start-sorted.
        """
        reps = np.asarray(repeats, dtype=np.int64)
        if reps.shape != (self.n_calls,):
            raise WorkloadError(
                f"repeats length {reps.shape} != n_calls {self.n_calls}")
        if (reps < 0).any():
            raise WorkloadError("repeats must be non-negative")
        if self.n_calls == 0 or (reps == 1).all():
            return self.replace()
        src = np.repeat(np.arange(self.n_calls, dtype=np.int64), reps)
        prefix = np.concatenate([[0], np.cumsum(reps)]).astype(np.int64)
        occurrence = np.arange(src.shape[0], dtype=np.int64) - prefix[src]
        lengths = np.diff(self.part_offsets)
        new_lengths = lengths[src]
        new_offsets = np.concatenate(
            [[0], np.cumsum(new_lengths)]).astype(np.int64)
        gather = (np.repeat(self.part_offsets[:-1][src], new_lengths)
                  + np.arange(new_offsets[-1], dtype=np.int64)
                  - np.repeat(new_offsets[:-1], new_lengths))

        uid = self.call_uid[src].copy()
        extra = occurrence > 0
        n_extra = int(extra.sum())
        if n_extra:
            base = int(self.call_uid.max(initial=-1)) + 1
            uid[extra] = base + np.arange(n_extra, dtype=np.int64)

        call_over = {int(prefix[i]): v
                     for i, v in self.call_id_overrides.items()
                     if reps[i] > 0}
        part_over = {}
        if self.part_id_overrides:
            # New row of the first copy of call c, participant offset d:
            # new_offsets[prefix[c]] + d.
            for p, v in self.part_id_overrides.items():
                owner = int(self.participant_call()[p])
                if reps[owner] > 0:
                    delta = p - int(self.part_offsets[owner])
                    part_over[int(new_offsets[prefix[owner]]) + delta] = v
        return self.replace(
            start_s=self.start_s[src], duration_s=self.duration_s[src],
            call_uid=uid, part_offsets=new_offsets,
            join_offset_s=self.join_offset_s[gather],
            country_code=self.country_code[gather],
            media_code=self.media_code[gather],
            part_index=self.part_index[gather],
            call_id_overrides=call_over, part_id_overrides=part_over,
        )

    # ------------------------------------------------------------------
    # chunking
    # ------------------------------------------------------------------
    def slice_calls(self, start: int, stop: int) -> "ColumnarTrace":
        """Calls ``[start, stop)`` as a new trace (call granularity).

        Shares the country table; per-call/per-participant arrays are
        numpy slices (views where possible).
        """
        start = max(0, start)
        stop = min(self.n_calls, stop)
        if stop < start:
            raise WorkloadError("invalid call slice")
        plo = int(self.part_offsets[start])
        phi = int(self.part_offsets[stop])
        call_over = {i - start: cid for i, cid in self.call_id_overrides.items()
                     if start <= i < stop}
        part_over = {p - plo: pid for p, pid in self.part_id_overrides.items()
                     if plo <= p < phi}
        return ColumnarTrace(
            start_s=self.start_s[start:stop],
            duration_s=self.duration_s[start:stop],
            call_uid=self.call_uid[start:stop],
            part_offsets=self.part_offsets[start:stop + 1] - plo,
            join_offset_s=self.join_offset_s[plo:phi],
            country_code=self.country_code[plo:phi],
            media_code=self.media_code[plo:phi],
            part_index=self.part_index[plo:phi],
            countries=self.countries,
            slots=self.slots,
            call_id_overrides=call_over,
            part_id_overrides=part_over,
        )

    # ------------------------------------------------------------------
    # object-edge conversions
    # ------------------------------------------------------------------
    def to_trace(self):
        """Materialize the object-based :class:`CallTrace` (edge API)."""
        from repro.workload.trace import CallTrace

        return CallTrace([self.call(i).to_call() for i in range(self.n_calls)],
                         list(self.slots))

    @classmethod
    def from_trace(cls, trace, countries: Optional[StringTable] = None
                   ) -> "ColumnarTrace":
        """Columnarize an object trace losslessly.

        Canonical ids (``call-{n:08d}``, ``{call_id}-p{k}``) compress to
        ints; anything else keeps its exact string in an override table.
        """
        table = countries if countries is not None else StringTable()
        n = len(trace.calls)
        start = np.empty(n, dtype=np.float64)
        dur = np.empty(n, dtype=np.float64)
        uid = np.empty(n, dtype=np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        call_over: Dict[int, str] = {}
        joins: List[float] = []
        ctry: List[int] = []
        media: List[int] = []
        pidx: List[int] = []
        part_over: Dict[int, str] = {}

        for i, call in enumerate(trace.calls):
            if not call.participants:
                raise WorkloadError(f"call {call.call_id} has no participants")
            start[i] = call.start_s
            dur[i] = call.duration_s
            uid[i] = _parse_call_uid(call.call_id)
            if uid[i] < 0:
                call_over[i] = call.call_id
            for k, participant in enumerate(call.participants):
                pos = len(joins)
                joins.append(participant.join_offset_s)
                ctry.append(table.code(participant.country))
                media.append(participant.media.code)
                index = _parse_part_index(call.call_id, participant.participant_id)
                pidx.append(index if index is not None else k)
                if index is None:
                    part_over[pos] = participant.participant_id
            offsets[i + 1] = len(joins)

        return cls(
            start_s=start, duration_s=dur, call_uid=uid, part_offsets=offsets,
            join_offset_s=np.array(joins, dtype=np.float64),
            country_code=np.array(ctry, dtype=np.int32),
            media_code=np.array(media, dtype=np.int8),
            part_index=np.array(pidx, dtype=np.int32),
            countries=table, slots=list(trace.slots),
            call_id_overrides=call_over, part_id_overrides=part_over,
        )


def concat_traces(chunks: Sequence[ColumnarTrace]) -> ColumnarTrace:
    """Re-assemble call-granularity chunks into one trace.

    All chunks must share one country table and slot grid (the generator
    guarantees this); call order is preserved, so chunks emitted in slot
    order concatenate into a globally start-sorted trace.
    """
    chunks = [c for c in chunks]
    if not chunks:
        raise WorkloadError("no chunks to concatenate")
    table = chunks[0].countries
    slots = chunks[0].slots
    for chunk in chunks[1:]:
        if chunk.countries is not table:
            raise WorkloadError("chunks must share one country table")

    offsets = [np.asarray(chunks[0].part_offsets)]
    call_over: Dict[int, str] = dict(chunks[0].call_id_overrides)
    part_over: Dict[int, str] = dict(chunks[0].part_id_overrides)
    call_base = chunks[0].n_calls
    part_base = chunks[0].n_participants
    for chunk in chunks[1:]:
        offsets.append(chunk.part_offsets[1:] + part_base)
        call_over.update({i + call_base: v
                          for i, v in chunk.call_id_overrides.items()})
        part_over.update({p + part_base: v
                          for p, v in chunk.part_id_overrides.items()})
        call_base += chunk.n_calls
        part_base += chunk.n_participants

    return ColumnarTrace(
        start_s=np.concatenate([c.start_s for c in chunks]),
        duration_s=np.concatenate([c.duration_s for c in chunks]),
        call_uid=np.concatenate([c.call_uid for c in chunks]),
        part_offsets=np.concatenate(offsets),
        join_offset_s=np.concatenate([c.join_offset_s for c in chunks]),
        country_code=np.concatenate([c.country_code for c in chunks]),
        media_code=np.concatenate([c.media_code for c in chunks]),
        part_index=np.concatenate([c.part_index for c in chunks]),
        countries=table, slots=slots,
        call_id_overrides=call_over, part_id_overrides=part_over,
    )


def _parse_call_uid(call_id: str) -> int:
    """``call-00000042`` -> 42; anything else -> -1 (kept verbatim)."""
    if call_id.startswith("call-"):
        digits = call_id[5:]
        if digits.isdigit() and len(digits) == 8:
            return int(digits)
    return -1


def _parse_part_index(call_id: str, participant_id: str) -> Optional[int]:
    """``{call_id}-p{k}`` -> k; anything else -> None (kept verbatim)."""
    prefix = f"{call_id}-p"
    if participant_id.startswith(prefix):
        digits = participant_id[len(prefix):]
        if digits.isdigit():
            return int(digits)
    return None
