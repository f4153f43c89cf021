"""A job-scheduler substrate — the Celery / multiprocessing substitute.

gem5art hands run objects to an external task manager: Celery when runs span
machines, or the Python multiprocessing library for a single host (the
paper's third option, no task manager at all, needs nothing from this
package).  Both shapes sit behind one application:

- :class:`SchedulerApp` — a Celery-like application: ``@app.task`` decorated
  functions, ``apply_async``, task states, retries, timeouts, admission
  control, a result backend, and worker lifecycle management.  Its worker
  threads share the in-process database.
- :class:`ProcessPool` — the multiprocessing substrate: spawn-safe worker
  processes fed pickle-safe :class:`JobEnvelope` s, with lease-backed
  crash redelivery and telemetry merge-on-drain.  Selected behind the
  scheduler with ``substrate="processes"``.
"""

from repro.scheduler.states import TaskState
from repro.scheduler.result import AsyncResult, ResultBackend
from repro.scheduler.retry import RetryPolicy, TaskOutcome
from repro.scheduler.lease import DEFAULT_LEASE_TTL, Lease, LeaseManager
from repro.scheduler.admission import (
    PRIORITIES,
    AdmissionController,
    AdmissionRejected,
    CircuitBreaker,
    LeveledQueue,
    OverflowRecord,
    TenantLimits,
    TokenBucket,
)
from repro.scheduler.broker import Broker, TaskMessage
from repro.scheduler.app import SchedulerApp
from repro.scheduler.procpool import (
    JobEnvelope,
    ProcessPool,
    ProcJobHandle,
    WorkerJobError,
)

__all__ = [
    "PRIORITIES",
    "AdmissionController",
    "AdmissionRejected",
    "CircuitBreaker",
    "LeveledQueue",
    "OverflowRecord",
    "TenantLimits",
    "TokenBucket",
    "TaskState",
    "AsyncResult",
    "ResultBackend",
    "RetryPolicy",
    "TaskOutcome",
    "DEFAULT_LEASE_TTL",
    "Lease",
    "LeaseManager",
    "Broker",
    "TaskMessage",
    "SchedulerApp",
    "JobEnvelope",
    "ProcessPool",
    "ProcJobHandle",
    "WorkerJobError",
]
