"""The online admission service: engine, runtime, reporting.

``repro.service`` is the serving layer grown on top of the planner: the
:class:`AdmissionEngine` serves a columnar controller event stream
(:mod:`repro.controller.columnar`, cut from a sampled day at whole
calls by :func:`~repro.controller.columnar.event_prefix`) — stateless
selector core, sharded kvstore state, worker-thread scaling — reporting
exact call accounting and p50/p95/p99 admission latencies in a
:class:`ServiceReport`.
"""

from repro.service.engine import AdmissionEngine
from repro.service.mp import MultiprocessAdmissionEngine
from repro.service.report import REPORT_SCHEMA_VERSION, ServiceReport
from repro.service.runtime import ServiceRuntime

__all__ = [
    "AdmissionEngine",
    "MultiprocessAdmissionEngine",
    "REPORT_SCHEMA_VERSION",
    "ServiceReport",
    "ServiceRuntime",
]
