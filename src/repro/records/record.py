"""Record schema of the Call Records Database (§5, design module 1).

Teams records one row per *call leg*: the MP server's DC, the
participant's country, the call's start time, and the latency the
participant experienced.  Records are anonymized — we never store
participant identities, only countries, matching the paper's privacy
posture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.errors import RecordError
from repro.core.types import CallConfig


@dataclass(frozen=True)
class CallLegRecord:
    """One participant's leg of one call."""

    call_id: str
    participant_country: str
    dc_id: str
    latency_ms: float
    start_s: float

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise RecordError(f"negative leg latency on call {self.call_id}")
        if self.start_s < 0:
            raise RecordError(f"negative start time on call {self.call_id}")


@dataclass(frozen=True)
class CallRecord:
    """Aggregated metadata of one call, as stored after the call ends."""

    call_id: str
    config: CallConfig
    dc_id: str
    start_s: float
    duration_s: float
    series_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise RecordError(f"negative start time on call {self.call_id}")
        if self.duration_s < 0:
            raise RecordError(f"negative duration on call {self.call_id}")

    def legs(self, latency_of) -> List[CallLegRecord]:
        """Materialize per-leg records using ``latency_of(dc, country)``."""
        records = []
        for country, count in self.config.spread:
            latency = latency_of(self.dc_id, country)
            for _ in range(count):
                records.append(CallLegRecord(
                    call_id=self.call_id,
                    participant_country=country,
                    dc_id=self.dc_id,
                    latency_ms=latency,
                    start_s=self.start_s,
                ))
        return records
