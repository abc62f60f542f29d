"""The seeded packing workload: class-structured call growth.

The organic workload model's post-freeze growth is fat-tailed — two
calls frozen with the same config can have wildly different futures,
which no per-config predictor can size for.  Server-level packing is
interesting (and the paper's Tetris framing applies) in the regime real
conferencing fleets sit in: distinct call *classes* whose growth is
predictable in aggregate.  This module generates exactly that, seeded
and reproducible:

* **audio calls** — fully assembled by the config freeze: the frozen
  participant count *is* the peak, so reserving beyond the observed
  size wastes servers;
* **video calls** — frozen with a fixed core group, then predictably
  growing as the remaining invitees trickle in after the freeze.

A predictive packer that learns the per-media joined-by-freeze fraction
sizes both classes right (no reservation for audio, pre-reservation for
video) and can run its servers hot; an observed-size packer must either
overload on video growth or buy blanket headroom on every server.  That
is the comparison ``fig_packing`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.types import Call, MediaType, Participant, make_slots
from repro.core.units import DEFAULT_FREEZE_WINDOW_S, DEFAULT_SLOT_S
from repro.controller.columnar import ColumnarEventBatch, build_event_batch
from repro.workload.arrivals import Demand
from repro.workload.columnar import ColumnarTrace
from repro.workload.trace import CallTrace


@dataclass
class PackingLoad:
    """A generated packing workload plus its planning inputs."""

    trace: ColumnarTrace
    batch: ColumnarEventBatch
    demand: Demand
    freeze_window_s: float
    #: Held-out calls (same distribution, different seed) for fitting
    #: the predictive policy's peak predictor.
    training_calls: List[Call]

    @property
    def n_calls(self) -> int:
        return self.trace.n_calls

    @property
    def n_events(self) -> int:
        return len(self.batch)


def _build_calls(rng: np.random.Generator, n_calls: int,
                 horizon_s: float, freeze_window_s: float,
                 countries: List[str], audio_fraction: float,
                 tag: str) -> List[Call]:
    calls: List[Call] = []
    for i in range(n_calls):
        call_id = f"pack-{tag}-{i:05d}"
        start_s = float(rng.uniform(0.0, horizon_s * 0.75))
        country = countries[int(rng.integers(0, len(countries)))]
        is_audio = rng.random() < audio_fraction
        participants: List[Participant] = []

        if is_audio:
            # Fully assembled by the freeze: frozen count == peak.
            n = int(rng.integers(3, 9))
            duration_s = float(rng.uniform(1200.0, 2400.0))
            for p in range(n):
                offset = float(rng.uniform(0.0, freeze_window_s * 0.8))
                participants.append(Participant(
                    participant_id=f"{call_id}-p{p}",
                    country=country,
                    join_offset_s=offset if p else 0.0,
                    media=MediaType.AUDIO,
                ))
        else:
            # Video: a core group freezes, the rest of the invitees
            # trickle in afterwards — predictable growth in aggregate.
            frozen = int(rng.integers(3, 6))
            late = int(rng.integers(2, 5))
            duration_s = float(rng.uniform(2400.0, 3600.0))
            for p in range(frozen):
                offset = float(rng.uniform(0.0, freeze_window_s * 0.8))
                participants.append(Participant(
                    participant_id=f"{call_id}-p{p}",
                    country=country,
                    join_offset_s=offset if p else 0.0,
                    media=MediaType.VIDEO,
                ))
            for p in range(late):
                offset = float(rng.uniform(
                    freeze_window_s * 1.5, duration_s * 0.6))
                participants.append(Participant(
                    participant_id=f"{call_id}-p{frozen + p}",
                    country=country,
                    join_offset_s=offset,
                    media=MediaType.VIDEO,
                ))
        calls.append(Call(call_id=call_id, start_s=start_s,
                          duration_s=duration_s,
                          participants=participants))
    calls.sort(key=lambda call: call.start_s)
    return calls


def generate_packing_load(n_calls: int = 300,
                          horizon_s: float = 4 * 3600.0,
                          freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S,
                          audio_fraction: float = 0.6,
                          countries: Optional[List[str]] = None,
                          seed: int = 7) -> PackingLoad:
    """Generate the seeded class-structured packing workload.

    Calls concentrate in few countries (default US + CA) so a small
    number of DC fleets carry real load; ``training_calls`` come from an
    independent seed so the predictor never sees the evaluation trace.
    """
    if n_calls < 1:
        raise WorkloadError("need at least one call")
    if horizon_s < DEFAULT_SLOT_S:
        raise WorkloadError("need at least one slot of horizon")
    chosen = countries if countries is not None else ["US", "CA"]
    rng = np.random.default_rng(seed)
    calls = _build_calls(rng, n_calls, horizon_s, freeze_window_s,
                         chosen, audio_fraction, tag=f"s{seed}")
    train_rng = np.random.default_rng(seed + 1000)
    training = _build_calls(train_rng, n_calls, horizon_s, freeze_window_s,
                            chosen, audio_fraction, tag=f"t{seed}")
    slot_horizon = max(call.start_s + call.duration_s for call in calls) + 1.0
    trace = ColumnarTrace.from_trace(
        CallTrace(calls, make_slots(slot_horizon, DEFAULT_SLOT_S)))
    return PackingLoad(
        trace=trace,
        batch=build_event_batch(trace, freeze_window_s),
        demand=trace.to_demand(freeze_after_s=freeze_window_s),
        freeze_window_s=freeze_window_s,
        training_calls=training,
    )


def media_mix(calls: Iterable[Call]) -> Dict[str, int]:
    """Count calls by their (escalated) media class."""
    mix: Dict[str, int] = {}
    for call in calls:
        mix[call.media.value] = mix.get(call.media.value, 0) + 1
    return mix
