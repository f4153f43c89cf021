#!/usr/bin/env python3
"""The repo benchmark: the paper's own sweeps, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, untraced and traced, one process
each.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``fig8-cold``: the 480-run Fig-8 boot grid, inline, fresh ``file://``
  database, cache and telemetry off;
- ``fig8-rerun``: the same grid relaunched against a filled cache in a
  new session (the fill is untimed and closes its database first);
- ``fig8-telemetry``: ``fig8-cold`` with telemetry enabled;
- ``paper-procs``: Fig 6/7 PARSEC (60 runs) plus Fig 9 GPU (58 runs) in
  one ``run_jobs_scheduler`` call on the process substrate.

Each run sets a sweep up and launches it repeatedly for ``--seconds``
(at least twice), checks every launch's outputs, and reports medians.
With ``--trace 0`` the last line holds the end-to-end metrics
(``runs_per_s``, ``setup_s``, ``peak_rss_mb``, ``completed_ratio``);
with ``--trace 1`` launches alternate between untraced and traced, and
the last line holds the per-layer metrics of the traced ones (see
``layers.py``).  The lines before it report host facts, sample counts,
the bare-simulator floor and the output checks.  The exit code is 1
when an output check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from host import ChildPeakRss, host_facts, self_peak_mb
from layers import PER_LAYER, Probe, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Measured launches per run, at least, whatever ``--seconds`` says.
MIN_LAUNCHES = 2
#: Set-ups per run, at least; extra ones are set up and torn down only.
MIN_SETUPS = 15
#: Bare-simulator loops per run; the floor is their median.
FLOOR_REPEATS = 3

END_TO_END = {
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """Runs one workload's launches and collects their samples."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.samples = collections.defaultdict(list)
        self.layers = collections.defaultdict(list)
        self.tail_percentiles = set()
        self.floors = []
        self.attempted = 0
        self.failed = 0
        self.launches = 0
        self.problems = []
        self.durability = ""

    def _launch(self, traced: bool = False, timed: bool = True) -> None:
        workload = self.workload
        path = workload.provision()
        with Probe() if traced else contextlib.nullcontext() as setup_probe:
            started = time.perf_counter()
            sweep = workload.setup(path)
            setup_s = time.perf_counter() - started
        self.durability = sweep.db.database.durability
        # Collect the previous launch's garbage outside the timed window.
        gc.collect()
        children = ChildPeakRss() if workload.spawns else None
        summaries = None
        with Probe() if traced else contextlib.nullcontext() as probe:
            try:
                with children or contextlib.nullcontext():
                    started = time.perf_counter()
                    summaries = workload.launch(sweep)
                    launch_s = time.perf_counter() - started
            except Exception:
                # The framework raised: every run of this launch failed.
                self.problems.append(traceback.format_exc(limit=3))
        self.launches += 1
        if summaries is None:
            self.attempted += len(sweep.runs)
            self.failed += len(sweep.runs)
            workload.teardown(sweep)
            return
        verdict = workload.verify(sweep, summaries)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems.extend(verdict.problems)
        disk_mb = workload.teardown(sweep)
        if not timed:
            return
        runs_per_s = len(sweep.runs) / launch_s
        if probe is None:
            self.samples["setup_s"].append(setup_s)
            self.samples["launch_s"].append(launch_s)
            self.samples["runs_per_s"].append(runs_per_s)
            self.samples["peak_rss_mb"].append(
                self_peak_mb() + (children.total_mb() if children else 0.0)
            )
            return
        self.samples["trace.runs_per_s"].append(runs_per_s)
        self.samples["db.disk_mb"].append(disk_mb)
        layers = probe.metrics(verdict.worker_runs, verdict.worker_seconds)
        layers.update(setup_probe.setup_metrics())
        for name, expected in workload.expected_layers.items():
            if layers[name] != expected:
                self.problems.append(
                    f"{name} read {layers[name]}, expected {expected}"
                )
        for name, value in layers.items():
            self.layers[name].append(value)
        if probe.durations["art.run"]:
            self.tail_percentiles.add(tail(probe.durations["art.run"])[0])

    def _setup_only(self) -> None:
        path = self.workload.provision()
        started = time.perf_counter()
        sweep = self.workload.setup(path)
        self.samples["setup_s"].append(time.perf_counter() - started)
        self.workload.teardown(sweep)

    def run(self) -> None:
        self.problems.extend(self.workload.prepare())
        self.floors = [self.workload.floor() for _ in range(FLOOR_REPEATS)]
        if self.workload.warmup:
            self._launch(timed=False)
        started = time.perf_counter()
        count = 0
        while (
            count < MIN_LAUNCHES
            or time.perf_counter() - started < self.seconds
        ):
            self._launch(traced=self.trace and count % 2 == 1)
            count += 1
        while len(self.samples["setup_s"]) < MIN_SETUPS:
            self._setup_only()

    # ----------------------------------------------------------- results

    def end_to_end(self):
        median = statistics.median
        return {
            "runs_per_s": median(self.samples["runs_per_s"]),
            "setup_s": median(self.samples["setup_s"]),
            "peak_rss_mb": median(self.samples["peak_rss_mb"]),
            "completed_ratio": (self.attempted - self.failed)
            / self.attempted,
        }

    def floor(self):
        floor_s = statistics.median(self.floors)
        return {
            "sim.floor_s": floor_s,
            "sim.overhead_x": statistics.median(self.samples["launch_s"])
            / floor_s,
        }

    def per_layer(self):
        median = statistics.median
        out = {name: median(values) for name, values in self.layers.items()}
        out.update(self.floor())
        out["db.disk_mb"] = median(self.samples["db.disk_mb"])
        traced = median(self.samples["trace.runs_per_s"])
        untraced = median(self.samples["runs_per_s"])
        out["trace.runs_per_s"] = traced
        out["trace.overhead_pct"] = (untraced - traced) / untraced * 100
        return out


def _stop_multiprocessing_helpers() -> None:
    """Wait for every child process, the resource tracker included, so no
    process this run started outlives it."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _report(args, bench, facts) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host " + json.dumps(facts, sort_keys=True))
    print(f"checks launches={bench.launches} attempted={bench.attempted} "
          f"failed={bench.failed} problems={len(bench.problems)}")
    for problem, count in collections.Counter(bench.problems).items():
        print(f"  FAIL x{count} {problem.rstrip()}")
    basis = {
        name: f"median of {len(bench.samples[name])}"
        for name in ("runs_per_s", "setup_s", "peak_rss_mb")
    }
    basis["completed_ratio"] = f"over {bench.launches} launches"
    for name, value in bench.end_to_end().items():
        print(f"  {name:<18} {value:>14.6f} {END_TO_END[name]:<6} "
              f"{basis[name]}")
    basis = {
        "sim.floor_s": f"median of {len(bench.floors)} bare simulator loops",
        "sim.overhead_x": "median launch seconds / sim.floor_s",
    }
    for name, value in bench.floor().items():
        print(f"  {name:<18} {value:>14.6f} {PER_LAYER[name][0]:<6} "
              f"{basis[name]}")
    if not args.trace:
        return
    print(f"per-layer: median of {len(bench.samples['trace.runs_per_s'])} "
          f"traced launches; art.run.tail_ms is "
          f"p{sorted(bench.tail_percentiles)}")
    for name, value in bench.per_layer().items():
        unit, _, predicted = PER_LAYER[name]
        print(f"  {name:<32} {value:>16.6f} {unit:<6} -> {predicted}")


def run_all(args, workloads) -> int:
    """Every workload, untraced then traced, each in a process of its own
    so that no run's peak memory or imports leak into the next."""
    status = 0
    for name in workloads:
        for trace in (0, 1):
            child = subprocess.run([
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ])
            status = max(status, child.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from repro.common.hostinfo import effective_cores
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, golden)
        bench = Bench(workload, args.seconds, bool(args.trace))
        bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
        _stop_multiprocessing_helpers()
    facts = host_facts(ROOT, effective_cores(), args.seed, bench.durability)
    _report(args, bench, facts)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name][0]}
            for name, value in bench.per_layer().items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in bench.end_to_end().items()
        }
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
