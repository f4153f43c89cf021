"""Per-layer probes, installed from outside the program.

A :class:`Probe` wraps public functions and methods of ``repro`` with
timing wrappers for the duration of one traced set-up or launch, then
puts the originals back.  Nothing under ``src/`` knows it is being measured, so
the untraced runs that give the end-to-end numbers execute exactly the
code a user runs.

Each wrapped call adds one to ``calls``, its duration to ``seconds`` and
an optional ``amount`` (bytes moved, cache hits, worker seconds) under a
metric name.  Calls are attributed to a *group*: a call made while
another call of the same group is running on the same thread is not
counted again, so ``Collection.find_one`` calling ``Collection.find``
counts once, as ``find_one``.
"""

from __future__ import annotations

import collections
import copy
import functools
import math
import pickle
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every per-layer metric: name -> (unit, better, predicted end-to-end
#: metric and the workload(s) where the layer should move it).  On the
#: other workloads the layer should read about zero.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "sim.run_fs.calls": ("count", "lower", "none (the floor); all"),
    "sim.run_fs.s": ("s", "lower", "none (the floor); all"),
    "sim.floor_s": ("s", "lower", "none (the floor); all"),
    "sim.overhead_x": ("x", "lower", "runs_per_s; all"),
    "art.run.p50_ms": ("ms", "lower", "runs_per_s; all"),
    "art.run.tail_ms": ("ms", "lower", "runs_per_s; all"),
    "art.rehydrate.calls": ("count", "lower", "runs_per_s; fig8-cold"),
    "art.rehydrate.s": ("s", "lower", "runs_per_s; fig8-cold"),
    "art.spec.fingerprint.calls": (
        "count", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "art.spec.fingerprint.s": (
        "s", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "art.db.update_run.calls": ("count", "lower", "runs_per_s; fig8-cold"),
    "art.db.update_run.s": ("s", "lower", "runs_per_s; fig8-cold"),
    "art.db.get_run.calls": ("count", "lower", "runs_per_s; fig8-cold"),
    "art.cache.consult.calls": ("count", "lower", "runs_per_s; fig8-rerun"),
    "art.cache.consult.s": ("s", "lower", "runs_per_s; fig8-rerun"),
    "art.cache.hit_ratio": ("ratio", "higher", "runs_per_s; fig8-rerun"),
    "art.procjobs.envelope.calls": (
        "count", "lower", "runs_per_s; paper-procs"),
    "art.procjobs.envelope.s": ("s", "lower", "runs_per_s; paper-procs"),
    "art.procjobs.envelope.bytes": (
        "bytes", "lower", "runs_per_s, peak_rss_mb; paper-procs"),
    "db.collection.find.calls": (
        "count", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "db.collection.find.s": (
        "s", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "db.collection.find_one.calls": (
        "count", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "db.collection.find_one.s": (
        "s", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "db.collection.insert_one.calls": (
        "count", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "db.collection.insert_one.s": (
        "s", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "db.collection.update_one.calls": (
        "count", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "db.collection.update_one.s": (
        "s", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "db.deepcopy.calls": (
        "count", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "db.deepcopy.s": ("s", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "db.filestore.put.calls": ("count", "lower", "runs_per_s; fig8-cold"),
    "db.filestore.put.s": ("s", "lower", "runs_per_s; fig8-cold"),
    "db.filestore.put.bytes": ("bytes", "lower", "runs_per_s; fig8-cold"),
    "db.filestore.get.calls": ("count", "lower", "runs_per_s; fig8-rerun"),
    "db.filestore.get.s": ("s", "lower", "runs_per_s; fig8-rerun"),
    "db.filestore.get.bytes": ("bytes", "lower", "runs_per_s; fig8-rerun"),
    "db.disk_mb": ("MB", "lower", "none (disk use after close); all"),
    "common.canonical_dumps.calls": (
        "count", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "common.canonical_dumps.s": (
        "s", "lower", "runs_per_s; fig8-cold, fig8-rerun"),
    "telemetry.subtree.calls": (
        "count", "lower", "runs_per_s; fig8-telemetry"),
    "telemetry.subtree.s": ("s", "lower", "runs_per_s; fig8-telemetry"),
    "telemetry.span_to_dict.calls": (
        "count", "lower", "runs_per_s; fig8-telemetry"),
    "telemetry.archive.calls": (
        "count", "lower", "runs_per_s; fig8-telemetry"),
    "telemetry.archive.s": ("s", "lower", "runs_per_s; fig8-telemetry"),
    "scheduler.submit.calls": ("count", "lower", "runs_per_s; paper-procs"),
    "scheduler.result_wait.s": ("s", "lower", "runs_per_s; paper-procs"),
    "scheduler.worker_busy.s": ("s", "lower", "runs_per_s; paper-procs"),
    "scheduler.dispatch_overhead_ms": (
        "ms", "lower", "runs_per_s; paper-procs"),
    "setup.art.spec.fingerprint.calls": ("count", "lower", "setup_s; all"),
    "setup.art.spec.fingerprint.s": ("s", "lower", "setup_s; all"),
    "setup.common.canonical_dumps.calls": ("count", "lower", "setup_s; all"),
    "setup.common.canonical_dumps.s": ("s", "lower", "setup_s; all"),
    "setup.db.collection.insert_one.calls": (
        "count", "lower", "setup_s; all"),
    "setup.db.collection.insert_one.s": ("s", "lower", "setup_s; all"),
    "setup.db.deepcopy.calls": ("count", "lower", "setup_s; all"),
    "setup.db.deepcopy.s": ("s", "lower", "setup_s; all"),
    "trace.runs_per_s": ("1/s", "higher", "none (the traced run); all"),
    "trace.overhead_pct": ("%", "lower", "none (the traced run); all"),
}

#: Layers that also do work while a sweep is set up (run creation
#: fingerprints every spec and inserts every run document).
SETUP_LAYERS = (
    "art.spec.fingerprint",
    "common.canonical_dumps",
    "db.collection.insert_one",
    "db.deepcopy",
)

#: Percentiles tried, highest first, when choosing the tail.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values: List[float]) -> Tuple[float, float]:
    """(p, value) for the highest percentile with at least ten samples
    beyond it; the median when there are too few samples for any."""
    for p in _TAIL_PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


def _repro_modules() -> List[types.ModuleType]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


class Probe:
    """Timing wrappers around the program's layer boundaries."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []
        self._functions: List[Tuple[Callable, Callable]] = []
        self.calls: Dict[str, int] = collections.Counter()
        self.seconds: Dict[str, float] = collections.defaultdict(float)
        self.amount: Dict[str, float] = collections.defaultdict(float)
        self.durations: Dict[str, List[float]] = collections.defaultdict(
            list
        )

    # ------------------------------------------------------------ record

    def _active(self) -> set:
        active = getattr(self._local, "groups", None)
        if active is None:
            active = self._local.groups = set()
        return active

    def _wrap(
        self,
        name: str,
        func: Callable,
        group: Optional[str] = None,
        amount: Optional[Callable[[tuple, Any], float]] = None,
        keep: bool = False,
    ) -> Callable:
        probe = self
        group = group or name

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            active = probe._active()
            if group in active:
                return func(*args, **kwargs)
            active.add(group)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                active.discard(group)
                with probe._lock:
                    probe.calls[name] += 1
                    probe.seconds[name] += elapsed
                    if keep:
                        probe.durations[name].append(elapsed)
            if amount is not None:
                value = amount(args, result)
                with probe._lock:
                    probe.amount[name] += value
            return result

        return wrapper

    # ------------------------------------------------------------- patch

    def _method(self, cls, attr: str, name: str, **options) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(name, raw.__func__, **options))
        else:
            patched = self._wrap(name, raw, **options)
        setattr(cls, attr, patched)
        self._undo.append((cls, attr, raw))

    def _function(self, module, attr: str, name: str, **options) -> None:
        """Wrap a module-level function at every ``repro`` module that
        bound it by name (``from x import f`` copies the reference)."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, **options)
        self._functions.append((wrapper, original))
        for loaded in _repro_modules():
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._undo.append((loaded, key, original))

    def install(self) -> None:
        """Wrap every layer boundary.  Call after a warm-up launch, so the
        modules that bind functions by name are already imported."""
        import repro.art.artifact as artifact_module
        import repro.art.procjobs as procjobs
        import repro.common.jsonutil as jsonutil
        import repro.db.collection as collection_module
        import repro.telemetry.recorder as recorder
        from repro.art.artifact import Artifact
        from repro.art.cache import RunCache
        from repro.art.db import ArtifactDB
        from repro.art.run import Gem5Run
        from repro.art.spec import RunSpec
        from repro.db.collection import Collection
        from repro.db.filestore import FileStore
        from repro.gpu.device import GPUDevice
        from repro.scheduler.procpool import ProcessPool, ProcJobHandle
        from repro.sim.simulator import Gem5Simulator
        from repro.telemetry.tracing import Span, Tracer

        self._method(Gem5Simulator, "run_fs", "sim.run_fs")
        self._method(GPUDevice, "execute", "sim.run_fs")
        self._method(Gem5Run, "run", "art.run", keep=True)
        self._method(Gem5Run, "run_in_pool", "art.run", keep=True)
        self._method(Artifact, "load", "art.rehydrate")
        self._function(
            artifact_module, "load_disk_image", "art.rehydrate"
        )
        self._method(RunSpec, "fingerprint", "art.spec.fingerprint")
        self._method(ArtifactDB, "update_run", "art.db.update_run")
        self._method(ArtifactDB, "get_run", "art.db.get_run")
        self._method(
            RunCache,
            "consult",
            "art.cache.consult",
            amount=lambda args, entry: 0 if entry is None else 1,
        )
        self._function(
            procjobs,
            "envelope_for_run",
            "art.procjobs.envelope",
            amount=lambda args, envelope: len(pickle.dumps(envelope)),
        )
        for op in ("find", "find_one", "insert_one", "update_one"):
            self._method(
                Collection, op, f"db.collection.{op}", group="db.collection"
            )
        # Only the collection module's own copy.deepcopy calls: the
        # module gets a private view of ``copy`` whose deepcopy is
        # wrapped, so deepcopy's recursion and other callers stay out.
        view = types.ModuleType("copy")
        view.__dict__.update(vars(copy))
        view.deepcopy = self._wrap("db.deepcopy", copy.deepcopy)
        self._undo.append((collection_module, "copy", collection_module.copy))
        collection_module.copy = view
        self._method(
            FileStore,
            "put_bytes",
            "db.filestore.put",
            amount=lambda args, digest: len(args[1]),
        )
        self._method(
            FileStore,
            "get_bytes",
            "db.filestore.get",
            amount=lambda args, data: len(data),
        )
        self._function(
            jsonutil, "canonical_dumps", "common.canonical_dumps"
        )
        self._method(Tracer, "subtree", "telemetry.subtree")
        self._method(Span, "to_dict", "telemetry.span_to_dict")
        self._function(recorder, "archive_telemetry", "telemetry.archive")
        self._method(ProcessPool, "submit", "scheduler.submit")
        self._method(
            ProcJobHandle,
            "result",
            "scheduler.result_wait",
            amount=lambda args, value: args[0].host_seconds,
        )

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        # A module imported while the probe was installed bound the
        # wrapper by name; put the original back there too.
        for loaded in _repro_modules():
            for key, value in list(vars(loaded).items()):
                for wrapper, original in self._functions:
                    if value is wrapper:
                        setattr(loaded, key, original)

    # ----------------------------------------------------------- metrics

    def setup_metrics(self) -> Dict[str, float]:
        """The probe's metrics for one traced set-up."""
        out: Dict[str, float] = {}
        for name in SETUP_LAYERS:
            out[f"setup.{name}.calls"] = self.calls[name]
            out[f"setup.{name}.s"] = self.seconds[name]
        return out

    def metrics(
        self, worker_runs: int, worker_seconds: float
    ) -> Dict[str, float]:
        """The probe's per-layer metrics for one traced launch.

        ``worker_runs``/``worker_seconds`` are the simulations worker
        processes reported (their ``host_seconds``); the parent-side
        wrappers cannot see inside a worker.
        """
        calls, seconds, amount = self.calls, self.seconds, self.amount
        out: Dict[str, float] = {
            "sim.run_fs.calls": calls["sim.run_fs"] + worker_runs,
            "sim.run_fs.s": seconds["sim.run_fs"] + worker_seconds,
        }
        durations = self.durations["art.run"]
        if durations:
            out["art.run.p50_ms"] = percentile(durations, 50.0) * 1e3
            out["art.run.tail_ms"] = tail(durations)[1] * 1e3
        else:
            out["art.run.p50_ms"] = out["art.run.tail_ms"] = 0.0
        for name in (
            "art.rehydrate",
            "art.spec.fingerprint",
            "art.db.update_run",
            "art.cache.consult",
            "art.procjobs.envelope",
            "db.collection.find",
            "db.collection.find_one",
            "db.collection.insert_one",
            "db.collection.update_one",
            "db.deepcopy",
            "db.filestore.put",
            "db.filestore.get",
            "common.canonical_dumps",
            "telemetry.subtree",
            "telemetry.archive",
        ):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = seconds[name]
        out["art.db.get_run.calls"] = calls["art.db.get_run"]
        consults = calls["art.cache.consult"]
        out["art.cache.hit_ratio"] = (
            amount["art.cache.consult"] / consults if consults else 0.0
        )
        out["art.procjobs.envelope.bytes"] = amount["art.procjobs.envelope"]
        out["db.filestore.put.bytes"] = amount["db.filestore.put"]
        out["db.filestore.get.bytes"] = amount["db.filestore.get"]
        out["telemetry.span_to_dict.calls"] = calls["telemetry.span_to_dict"]
        jobs = calls["scheduler.submit"]
        wait = seconds["scheduler.result_wait"]
        busy = amount["scheduler.result_wait"]
        out["scheduler.submit.calls"] = jobs
        out["scheduler.result_wait.s"] = wait
        out["scheduler.worker_busy.s"] = busy
        out["scheduler.dispatch_overhead_ms"] = (
            (wait - busy) / jobs * 1e3 if jobs else 0.0
        )
        return out
