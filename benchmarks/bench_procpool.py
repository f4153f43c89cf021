"""Microbenchmark: thread substrate vs process substrate on one shard.

Runs the same 16-job timing-CPU boot shard twice:

- **threads** — a :class:`concurrent.futures.ThreadPoolExecutor` with 4
  workers; the GIL serializes the pure-Python simulator, so this
  measures what a fixed set of worker threads really parallelizes
  (nothing);
- **processes** — :class:`repro.scheduler.ProcessPool` with 4 spawn-safe
  worker processes; simulations run on separate interpreters and scale
  with cores.

Each job re-simulates its (deterministic) boot ``REPEATS`` times — work
amplification that makes one job big enough to time honestly and doubles
as a determinism check (the worker fails if any repeat's stats differ).

A second phase SIGKILLs a worker mid-shard (via
:func:`repro.sim.testing.kill_once_job`) and asserts lease redelivery
completes the shard with stats fingerprints identical to an
uninterrupted run — the robustness half of the acceptance criteria.

Run as a script (deliberately not named ``test_*``):

    PYTHONPATH=src python benchmarks/bench_procpool.py

Writes ``BENCH_procpool.json`` and exits 1 if the process substrate is
not at least ``MIN_SPEEDUP``x faster — enforced only when the host
actually has ``MIN_CORES_FOR_FLOOR`` effective cores (a 1-core container
physically cannot show CPU parallelism; the kill/redelivery phase is
enforced everywhere).
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.common.hostinfo import effective_cores
from repro.scheduler.procpool import JobEnvelope, ProcessPool
from repro.sim.testing import boot_shard_job

#: The paper's parallelism claim in one number: with 4 workers on a
#: multi-core host, real processes must halve the wall clock at minimum.
MIN_SPEEDUP = 2.0

#: Cores below which the speedup floor is reported but not enforced.
MIN_CORES_FOR_FLOOR = 4

WORKERS = 4
SHARD = 16
REPEATS = 4000


def payloads():
    return [{"index": i, "repeats": REPEATS} for i in range(SHARD)]


def bench_threads() -> float:
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(boot_shard_job, payloads()))
    elapsed = time.perf_counter() - started
    assert all(r["ok"] for r in results)
    return elapsed


def bench_processes() -> float:
    envelopes = [
        JobEnvelope(
            target="repro.sim.testing:boot_shard_job", args=(payload,)
        )
        for payload in payloads()
    ]
    started = time.perf_counter()
    with ProcessPool(workers=WORKERS) as pool:
        results = pool.map_envelopes(envelopes, timeout=600)
    elapsed = time.perf_counter() - started
    assert all(r["ok"] for r in results)
    return elapsed


def bench_kill_redelivery() -> dict:
    """SIGKILL one worker mid-shard; the shard must still finish with
    stats identical to an uninterrupted run."""
    baseline = boot_shard_job({"index": 0, "repeats": 1})
    sentinel = f"/tmp/bench-procpool-kill-{os.getpid()}"
    if os.path.exists(sentinel):
        os.unlink(sentinel)
    shard = [
        JobEnvelope(
            target="repro.sim.testing:kill_once_job",
            args=({"index": 0, "repeats": 1, "sentinel": sentinel},),
        )
    ] + [
        JobEnvelope(
            target="repro.sim.testing:boot_shard_job",
            args=({"index": i, "repeats": 1},),
        )
        for i in range(1, 8)
    ]
    try:
        with ProcessPool(workers=WORKERS, lease_ttl=0.5) as pool:
            results = pool.map_envelopes(shard, timeout=600)
        killed = os.path.exists(sentinel)
    finally:
        if os.path.exists(sentinel):
            os.unlink(sentinel)
    fingerprints = {r["stats_fingerprint"] for r in results}
    return {
        "shard": len(shard),
        "worker_killed": killed,
        "all_completed": all(r["ok"] for r in results),
        "fingerprints_identical_to_uninterrupted": (
            fingerprints == {baseline["stats_fingerprint"]}
        ),
    }


def main() -> int:
    cores = effective_cores()
    threads_seconds = bench_threads()
    processes_seconds = bench_processes()
    speedup = (
        threads_seconds / processes_seconds
        if processes_seconds > 0
        else float("inf")
    )
    floor_enforced = cores >= MIN_CORES_FOR_FLOOR
    kill = bench_kill_redelivery()
    report = {
        "benchmark": "procpool",
        "shard": SHARD,
        "repeats": REPEATS,
        "workers": WORKERS,
        "effective_cores": cores,
        "threads_seconds": round(threads_seconds, 3),
        "processes_seconds": round(processes_seconds, 3),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "floor_enforced": floor_enforced,
        "kill_redelivery": kill,
    }
    with open("BENCH_procpool.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    failed = False
    if not (
        kill["worker_killed"]
        and kill["all_completed"]
        and kill["fingerprints_identical_to_uninterrupted"]
    ):
        print("FAIL: kill/redelivery phase did not complete identically")
        failed = True
    if floor_enforced and speedup < MIN_SPEEDUP:
        print(
            f"FAIL: process substrate {speedup:.2f}x < {MIN_SPEEDUP}x "
            f"floor on {cores} cores"
        )
        failed = True
    if failed:
        return 1
    if not floor_enforced:
        print(
            f"OK: {speedup:.2f}x measured on {cores} core(s); "
            f"{MIN_SPEEDUP}x floor requires >= {MIN_CORES_FOR_FLOOR} "
            "cores and was not enforced"
        )
    else:
        print(f"OK: process substrate {speedup:.2f}x faster than threads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
