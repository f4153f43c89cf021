"""Task execution — the paper's Fig 5 launch-script tail.

Section IV-D hands run objects to Celery, to Python multiprocessing, or to
no task manager at all.  Two entry points cover all three:
:func:`run_jobs_scheduler` drives the Celery-like
:class:`~repro.scheduler.SchedulerApp`, on worker threads
(``substrate="threads"``) or on a multiprocessing
:class:`~repro.scheduler.ProcessPool` (``substrate="processes"``); and
:func:`run_job` executes one run synchronously.  Both return the same
summaries, so launch scripts can switch managers freely.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from typing import Dict, List, Optional, Sequence

from repro.art.cache import RunCache
from repro.art.checkpoints import CheckpointStore
from repro.art.procjobs import InlineTransport, PoolTransport
from repro.art.run import Gem5Run
from repro.common.errors import ValidationError
from repro.scheduler import (
    AdmissionController,
    AdmissionRejected,
    ProcessPool,
    RetryPolicy,
    SchedulerApp,
    TaskState,
)
from repro.telemetry import get_metrics, get_tracer


def run_job(
    run: Gem5Run,
    use_cache: bool = True,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> Dict[str, object]:
    """Execute one run synchronously (the no-scheduler option)."""
    return run.run(use_cache=use_cache, checkpoint_store=checkpoint_store)


def group_runs_by_prefix(
    runs: Sequence[Gem5Run],
) -> Dict[str, List[int]]:
    """Group run indices by boot-prefix fingerprint.

    The planner's first step: every key is one boot to pay for, every
    value the variant cohort that shares it.  Runs without a prefix
    (GPU runs, spec-less documents) are omitted — they have no boot
    stage.
    """
    plan: Dict[str, List[int]] = {}
    for index, run in enumerate(runs):
        prefix = run.prefix
        if prefix is None:
            continue
        plan.setdefault(prefix, []).append(index)
    return plan


def run_boot_stage(
    runs: Sequence[Gem5Run],
    store: CheckpointStore,
    worker_count: int = 4,
    pool: Optional[ProcessPool] = None,
    boot_cpu: str = "kvm",
) -> Dict[str, object]:
    """Stage 1 of the planner: one boot checkpoint per unique prefix.

    Groups the sweep by prefix fingerprint and drives one boot job per
    group through the run transport — in this process for the thread
    substrate, as a boot envelope on the process pool.  Boot leadership
    is single-flighted through the store, so racing stages (or racing
    experiments sharing one store) still produce exactly one boot per
    prefix.  Returns ``{prefix: checkpoint-or-None}``; a None cohort
    degrades to full boots downstream.
    """
    plan = group_runs_by_prefix(runs)
    transport = InlineTransport() if pool is None else PoolTransport(pool)

    def boot_one(prefix: str) -> object:
        representative = runs[plan[prefix][0]]
        return store.get_or_boot(
            prefix, lambda: transport.boot(representative, boot_cpu)
        )

    checkpoints: Dict[str, object] = {}
    with get_tracer().span(
        "stage.boot",
        attributes={"prefixes": len(plan), "runs": len(runs)},
    ):
        if len(plan) <= 1:
            for prefix in plan:
                checkpoints[prefix] = boot_one(prefix)
        else:
            # Boots for distinct prefixes are independent; drive them
            # concurrently (on the process substrate each thread only
            # blocks on a pool handle, so worker processes fill up).
            with ThreadPoolExecutor(
                max_workers=min(worker_count, len(plan))
            ) as boots:
                checkpoints = dict(zip(plan, boots.map(boot_one, plan)))
    return checkpoints


def run_jobs_scheduler(
    runs: Sequence[Gem5Run],
    worker_count: int = 4,
    timeout_per_job: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    use_cache: bool = True,
    substrate: str = "threads",
    tenant: str = "default",
    priority: str = "default",
    queue_limit: Optional[int] = None,
    admission: Optional[AdmissionController] = None,
    use_checkpoints: bool = False,
    checkpoint_store: Optional[CheckpointStore] = None,
    repeats: int = 1,
    dispatch_batch: int = 1,
) -> List[Dict[str, object]]:
    """Execute runs through the Celery-like scheduler app.

    Each job's gem5art timeout is enforced by the scheduler; jobs that
    exceed it are reported with a ``timed_out`` summary rather than
    raising, since a timeout is a recorded outcome for the database.

    ``retry_policy`` opts jobs into the scheduler's retry/backoff
    machinery (e.g. re-running simulations that died on flaky
    infrastructure); the default stays fail-fast, recording the first
    failure.

    With ``use_cache`` (the default), runs carrying equal spec
    fingerprints are **single-flighted**: the first submission becomes
    the leader and actually executes; concurrent identical submissions
    coalesce onto the leader's task instead of enqueuing duplicate
    simulations, and once the leader finishes each follower adopts the
    (now cached) result into its own run document.  ``use_cache=False``
    disables both the cache consult and the coalescing — every run
    simulates.

    ``substrate`` picks where leader executions happen: ``"threads"``
    runs them on the scheduler's own worker threads (GIL-bound but
    zero-overhead), ``"processes"`` ships each leader's simulation to a
    :class:`~repro.scheduler.ProcessPool` worker process for real CPU
    parallelism.  Dedup, coalescing, caching and every database write
    stay in the parent either way — only simulations cross the process
    boundary.

    ``tenant``/``priority`` are the admission coordinates every job is
    submitted under (a campaign typically submits as one tenant at one
    priority); ``queue_limit``/``admission`` opt the underlying app into
    bounded-queue overload protection.  Admission happens in the parent
    broker on *both* substrates.  A job refused by admission is not an
    exception here: its summary reports ``admission_rejected`` with the
    structured ``retry_after``, because a rejected point — like a timed
    out one — is a recorded outcome for the database.

    With ``use_checkpoints`` the sweep runs as a **staged pipeline**:
    the runs are grouped by boot-prefix fingerprint, a boot stage takes
    one checkpoint per unique prefix (single-flighted through
    ``checkpoint_store``, created on demand from the first run's
    database when not supplied), and only then does the variant stage
    fan out — each variant job carrying ``restore_from`` so it skips
    the boot its cohort already paid for.  A prefix whose boot fails
    degrades that cohort back to full boots; nothing is lost but time.

    ``repeats`` amplifies each process-substrate job (one envelope, N
    simulations); ``dispatch_batch`` sets how many queued jobs the
    process pool ships to a worker per transport round-trip.
    """
    if substrate not in ("threads", "processes"):
        raise ValidationError(
            f"unknown substrate {substrate!r} "
            "(expected 'threads' or 'processes')"
        )
    pool = (
        ProcessPool(workers=worker_count, dispatch_batch=dispatch_batch)
        if substrate == "processes"
        else None
    )
    app = SchedulerApp(
        name="gem5art",
        worker_count=worker_count,
        queue_limit=queue_limit,
        admission=admission,
    )
    store: Optional[CheckpointStore] = None
    if use_checkpoints and runs:
        store = checkpoint_store or CheckpointStore(runs[0].db)

    @app.task(name="gem5art.run_gem5_job", retry_policy=retry_policy)
    def run_gem5_job(index: int):
        if pool is None:
            return runs[index].run(
                use_cache=use_cache, checkpoint_store=store
            )
        return runs[index].run_in_pool(
            pool,
            use_cache=use_cache,
            repeats=repeats,
            checkpoint_store=store,
        )

    stages = ExitStack()
    try:
        if store is not None:
            run_boot_stage(
                runs, store, worker_count=worker_count, pool=pool
            )
            stages.enter_context(
                get_tracer().span(
                    "stage.variants", attributes={"runs": len(runs)}
                )
            )
        handles = []
        leaders: Dict[str, str] = {}
        followers: List[bool] = []
        rejections: Dict[int, AdmissionRejected] = {}
        for index in range(len(runs)):
            dedup_key = (
                runs[index].fingerprint
                if use_cache and runs[index].fingerprint
                else None
            )
            try:
                handle = run_gem5_job.apply_async(
                    args=(index,),
                    timeout=timeout_per_job or runs[index].timeout,
                    dedup_key=dedup_key,
                    tenant=tenant,
                    priority=priority,
                )
            except AdmissionRejected as rejection:
                rejections[index] = rejection
                handles.append(None)
                followers.append(False)
                continue
            coalesced = (
                dedup_key is not None
                and leaders.get(dedup_key) is not None
                and leaders[dedup_key] == handle.task_id
            )
            if dedup_key is not None and not coalesced:
                leaders[dedup_key] = handle.task_id
            if coalesced:
                get_metrics().counter(
                    "runcache_coalesced_total",
                    "Runs coalesced onto an identical in-flight "
                    "execution",
                ).inc()
            handles.append(handle)
            followers.append(coalesced)
        summaries: List[Dict[str, object]] = []
        for index, handle in enumerate(handles):
            if handle is None:
                rejection = rejections[index]
                summaries.append(
                    {
                        "success": False,
                        "admission_rejected": True,
                        "reason": rejection.reason,
                        "retry_after": rejection.retry_after,
                        "parked": rejection.parked,
                        "error": str(rejection),
                        "run_id": runs[index].run_id,
                    }
                )
                continue
            state = app.backend.wait(handle.task_id)
            if state is TaskState.SUCCESS:
                summary = handle.get()
                if followers[index]:
                    # The follower's own document never executed; adopt
                    # the leader's (now cached) result so the database
                    # records this point too.
                    adopted = RunCache(runs[index].db).consult(
                        runs[index].fingerprint
                    )
                    if adopted is not None:
                        summary = runs[index].adopt_cached(adopted)
                summaries.append(summary)
            else:
                record = app.backend.record(handle.task_id)
                summaries.append(
                    {
                        "success": False,
                        "timed_out": state is TaskState.TIMEOUT,
                        "scheduler_state": state.value,
                        "error": record["error"],
                        "run_id": runs[index].run_id,
                    }
                )
        return summaries
    finally:
        stages.close()
        app.shutdown()
        if pool is not None:
            pool.shutdown()
