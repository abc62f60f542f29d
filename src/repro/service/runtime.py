"""One way to stand up the service plane: :class:`ServiceRuntime`.

``ServiceRuntime.from_config`` is the single supported construction
path for the engine/ledger/defragmenter/autoscaler/migrator wiring:

>>> from repro.config import ServiceConfig
>>> from repro.service import ServiceRuntime
>>> runtime = ServiceRuntime.from_config(topology, plan,
...                                      ServiceConfig(executor="process",
...                                                    n_workers=4))
>>> report = runtime.run(build_event_batch(trace))

``ServiceConfig.executor`` selects who schedules the one window kernel
(:func:`~repro.service.engine.serve_rows`) — ``"thread"`` (the
in-process :class:`~repro.service.engine.AdmissionEngine`, the
deterministic oracle) or ``"process"``
(:class:`~repro.service.mp.MultiprocessAdmissionEngine`, one OS process
per worker over shared-memory columnar segments).  Everything else
(sharding, simulated kv latency, worker count) comes from the same
config either way, and both executors accept the same inputs, so the
two are interchangeable and produce identical accounting.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.config import PlannerConfig, ServiceConfig
from repro.core.errors import SwitchboardError
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.allocation.plan import AllocationPlan
from repro.allocation.realtime import SlotLedger
from repro.kvstore.sharded import ShardedKVStore
from repro.kvstore.store import InMemoryKVStore
from repro.obs.events import Observability
from repro.service.engine import AdmissionEngine
from repro.service.mp import MultiprocessAdmissionEngine, StoreSpec
from repro.service.report import ServiceReport
from repro.topology.builder import Topology

__all__ = ["ServiceRuntime"]


def _resolve_service_config(
        config: Optional[Union[PlannerConfig, ServiceConfig]]
) -> ServiceConfig:
    if config is None:
        return ServiceConfig()
    if isinstance(config, ServiceConfig):
        return config
    if isinstance(config, PlannerConfig):
        return config.service if config.service is not None else ServiceConfig()
    raise SwitchboardError(
        f"ServiceRuntime.from_config wants a PlannerConfig, a "
        f"ServiceConfig, or None; got {type(config).__name__}")


class ServiceRuntime:
    """The service plane behind one construction API.

    Build with :meth:`from_config`, serve with :meth:`run`, read the
    result with :meth:`report` (or the return value of ``run``).  The
    underlying engine stays reachable as :attr:`engine` for callers
    that inspect selector statistics or store state.
    """

    def __init__(self, engine):
        self.engine = engine
        self.executor = engine.executor
        self._report: Optional[ServiceReport] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, topology: Topology, plan: AllocationPlan,
                    config: Optional[Union[PlannerConfig,
                                           ServiceConfig]] = None,
                    *,
                    store: Optional[Union[ShardedKVStore,
                                          InMemoryKVStore]] = None,
                    ledger: Optional[SlotLedger] = None,
                    defragmenter=None,
                    defrag_interval_s: Optional[float] = None,
                    rescaler=None,
                    migrator=None,
                    freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S,
                    obs: Optional[Observability] = None) -> "ServiceRuntime":
        """Stand up the service plane described by ``config``.

        ``config`` may be a :class:`PlannerConfig` (its ``service``
        sub-config is used), a :class:`ServiceConfig`, or ``None`` for
        defaults.  The keyword-only arguments inject the optional
        subsystems (a packing fleet ledger + defragmenter, a bound
        autoscaler, a live migrator, a pre-built store); with the
        process executor,
        ``store`` is the parent-side ledger store and the per-worker
        stores are built from the config's sharding/latency knobs.
        """
        svc = _resolve_service_config(config)
        wiring = dict(
            n_workers=svc.n_workers, freeze_window_s=freeze_window_s,
            obs=obs, ledger=ledger, defragmenter=defragmenter,
            defrag_interval_s=defrag_interval_s, rescaler=rescaler,
            migrator=migrator)
        spec = StoreSpec.from_service_config(svc)
        if svc.executor == "process":
            engine = MultiprocessAdmissionEngine(
                topology, plan, store=store, worker_store_spec=spec,
                **wiring)
        else:
            engine = AdmissionEngine(
                topology, plan,
                store=store if store is not None else spec.build(),
                **wiring)
        return cls(engine)

    # ------------------------------------------------------------------
    def run(self, events) -> ServiceReport:
        """Serve events end to end; returns (and retains) the report.

        Accepts a :class:`~repro.controller.columnar.ColumnarEventBatch`
        or an iterable of batches (bounded memory:
        :func:`~repro.controller.columnar.iter_event_batches`).  Anything
        else raises :class:`~repro.core.errors.SwitchboardError`: encode
        a trace with :func:`~repro.controller.columnar.build_event_batch`
        first.
        """
        self._report = self.engine.run(events)
        return self._report

    def report(self) -> ServiceReport:
        """The last run's report."""
        if self._report is None:
            raise SwitchboardError("no report yet: call run() first")
        return self._report

    # ------------------------------------------------------------------
    # engine surface the call sites read through the runtime
    # ------------------------------------------------------------------
    @property
    def selector(self):
        return self.engine.selector

    @property
    def store(self):
        return self.engine.store

    def store_state(self) -> Dict[str, Any]:
        """Canonical end-of-run store state, executor-independent."""
        return self.engine.store_state()

    def __repr__(self) -> str:
        return (f"ServiceRuntime(executor={self.executor!r}, "
                f"engine={type(self.engine).__name__})")
