"""The benchmark's four workloads: the paper's own sweeps, end to end.

Each workload builds its inputs through the same public entry points a
launch script uses (artifact registration, ``Experiment`` or
``Gem5Run.create_*``), launches them through one kept entry point
(``Experiment.launch(backend="inline")`` or
``run_jobs_scheduler(substrate="processes")``) and checks the outputs.
The seed only permutes the order in which runs are created and
submitted; every check below must hold for every seed.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import telemetry
from repro.art import (
    ArtifactDB,
    Experiment,
    Gem5Run,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    run_jobs_scheduler,
)
from repro.common.hostinfo import effective_cores
from repro.db import connect
from repro.gpu import GPUConfig
from repro.gpu.device import GPUDevice
from repro.gpu.workloads import get_gpu_workload
from repro.guest import BOOT_TEST_KERNEL_VERSIONS, get_distro, get_kernel
from repro.resources import build_resource
from repro.sim import Gem5Build, Gem5Simulator, SystemConfig
from repro.sim.workload import PARSEC_WORKING_APPS

RESOURCES_URL = "https://gem5.googlesource.com/public/gem5-resources"

#: The Fig-8 cross product: 2 boot types x 5 kernels x 4 CPU models x
#: 3 memory systems x 4 core counts = 480 runs.
FIG8_AXES = {
    "boot_type": ("init", "systemd"),
    "cpu_type": ("kvm", "atomic", "timing", "o3"),
    "memory_system": ("classic", "MI_example", "MESI_Two_Level"),
    "num_cpus": (1, 2, 4, 8),
}

#: Fig 6/7: 2 Ubuntu releases x 10 PARSEC apps x {1, 2, 8} cores.
PARSEC_DISTROS = ("ubuntu-18.04", "ubuntu-20.04")
PARSEC_CORES = (1, 2, 8)
GPU_ALLOCATORS = ("simple", "dynamic")


def results_digest(runs: List[Gem5Run], docs: List[Dict[str, Any]]) -> str:
    """SHA-256 over the sorted (spec fingerprint, stats blob digest) pairs.

    Both halves are content addresses, so the digest is independent of
    run ids, creation order, backend and cache state.
    """
    pairs = sorted(
        [run.fingerprint, (doc.get("results") or {}).get("stats_file_id")]
        for run, doc in zip(runs, docs)
    )
    return hashlib.sha256(json.dumps(pairs).encode("utf-8")).hexdigest()


def dir_mb(path: str) -> float:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total / 2**20


@dataclass
class Sweep:
    """One set-up sweep: its database and the runs to launch."""

    db: ArtifactDB
    path: str
    runs: List[Gem5Run]
    experiment: Optional[Experiment] = None


@dataclass
class Verdict:
    """What one launch produced, checked against the expected outputs."""

    attempted: int
    failed: int
    digest: str
    statuses: Dict[str, int]
    problems: List[str] = field(default_factory=list)
    worker_runs: int = 0
    worker_seconds: float = 0.0


class Workload:
    """A sweep the benchmark can set up, launch, check and tear down."""

    name = ""
    #: Golden key: workloads over the same specs share expected outputs.
    golden_key = ""
    #: Whether the launch runs in worker processes (their RSS counts).
    spawns = False
    #: Whether one untimed launch runs before timing starts.
    warmup = True
    #: Per-layer values every traced launch must read exactly.
    expected_layers: Dict[str, float] = {}

    def __init__(self, seed: int, workdir: str, golden: Dict[str, Any]):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.golden = golden.get(self.golden_key, {})
        self._dirs = itertools.count()

    def _fresh_path(self) -> str:
        return os.path.join(self.workdir, f"db-{next(self._dirs)}")

    def _shuffled(self, values) -> list:
        values = list(values)
        self.rng.shuffle(values)
        return values

    # -------------------------------------------------------- lifecycle

    def prepare(self) -> List[str]:
        """One-time untimed work before any measured launch; returns the
        problems its own output checks found."""
        return []

    def provision(self) -> str:
        """Untimed per-launch step: the database path the set-up opens."""
        return self._fresh_path()

    def setup(self, path: str) -> Sweep:
        raise NotImplementedError

    def launch(self, sweep: Sweep) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def verify(self, sweep: Sweep, summaries) -> Verdict:
        docs = [sweep.db.get_run(run.run_id) for run in sweep.runs]
        statuses = collections.Counter(
            (doc.get("results") or {}).get("simulation_status", doc["status"])
            for doc in docs
        )
        failed = sum(
            1
            for doc, summary in zip(docs, summaries)
            if doc["status"] != "done" or not summary or "error" in summary
        )
        verdict = Verdict(
            attempted=len(sweep.runs),
            failed=failed,
            digest=results_digest(sweep.runs, docs),
            statuses=dict(statuses),
        )
        self._check(verdict, docs, summaries)
        return verdict

    def _check(self, verdict: Verdict, docs, summaries) -> None:
        expected_statuses = self.golden.get("statuses")
        if verdict.statuses != expected_statuses:
            verdict.problems.append(
                f"status counts {verdict.statuses} != {expected_statuses}"
            )
        if verdict.digest != self.golden.get("digest"):
            verdict.problems.append(
                f"results digest {verdict.digest} != golden "
                f"{self.golden.get('digest')}"
            )
        if verdict.failed:
            verdict.problems.append(f"{verdict.failed} runs failed")

    def teardown(self, sweep: Sweep) -> float:
        """Close the database; returns its size on disk in MB."""
        sweep.db.database.close()
        size = dir_mb(sweep.path)
        shutil.rmtree(sweep.path, ignore_errors=True)
        return size

    def floor(self) -> float:
        """Seconds of the bare simulator loop over the same specs."""
        raise NotImplementedError


class Fig8(Workload):
    """The 480-run Fig-8 boot grid through ``Experiment.launch`` inline."""

    golden_key = "fig8"
    use_cache = False
    use_telemetry = False

    def setup(self, path: str) -> Sweep:
        if self.use_telemetry:
            telemetry.enable()
        db = ArtifactDB(connect(f"file://{path}"))
        gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
        resources_repo = register_repo(
            db, "gem5-resources", url=RESOURCES_URL, version="c5f5c70"
        )
        gem5 = register_gem5_binary(
            db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
        )
        disk = register_disk_image(
            db, build_resource("boot-exit").image, inputs=[resources_repo]
        )
        experiment = Experiment(db, "boot-tests")
        for version in self._shuffled(BOOT_TEST_KERNEL_VERSIONS):
            experiment.add_stack(
                f"linux-{version}",
                gem5=gem5,
                gem5_git=gem5_repo,
                run_script_git=resources_repo,
                linux_binary=register_kernel_binary(db, get_kernel(version)),
                disk_image=disk,
            )
        experiment.sweep(
            **{
                axis: self._shuffled(values)
                for axis, values in self._shuffled(FIG8_AXES.items())
            }
        )
        runs = experiment.create_runs()
        return Sweep(db, path, runs, experiment)

    def launch(self, sweep: Sweep) -> List[Dict[str, Any]]:
        return sweep.experiment.launch(
            backend="inline", use_cache=self.use_cache
        )

    def teardown(self, sweep: Sweep) -> float:
        if self.use_telemetry:
            telemetry.disable()
        return super().teardown(sweep)

    def floor(self) -> float:
        image = build_resource("boot-exit").image
        build = Gem5Build(version="20.1.0.4")
        specs = list(
            itertools.product(
                BOOT_TEST_KERNEL_VERSIONS, *FIG8_AXES.values()
            )
        )
        started = time.perf_counter()
        for kernel, boot, cpu, memory, cores in specs:
            config = SystemConfig(
                cpu_type=cpu, num_cpus=cores, memory_system=memory
            )
            Gem5Simulator(build, config).run_fs(
                kernel, image, boot_type=boot
            )
        return time.perf_counter() - started


class Fig8Cold(Fig8):
    name = "fig8-cold"


class Fig8Telemetry(Fig8):
    name = "fig8-telemetry"
    use_telemetry = True


class Fig8Rerun(Fig8):
    """The grid relaunched in a new session against a filled cache."""

    name = "fig8-rerun"
    use_cache = True
    expected_layers = {"art.cache.hit_ratio": 1.0, "sim.run_fs.calls": 0}

    filled: Optional[str] = None

    def prepare(self) -> List[str]:
        # The untimed fill: a cold launch that populates the cache, then
        # closes its database so the rerun opens it in a new session.
        path = self._fresh_path()
        sweep = self.setup(path)
        verdict = self.verify(sweep, self.launch(sweep))
        sweep.db.database.close()
        self.filled = path
        return [f"fill: {problem}" for problem in verdict.problems]

    def provision(self) -> str:
        path = self._fresh_path()
        shutil.copytree(self.filled, path)
        return path

    def _check(self, verdict: Verdict, docs, summaries) -> None:
        super()._check(verdict, docs, summaries)
        if self.filled is None:
            return  # this is the fill itself
        adopted = sum(1 for doc in docs if doc.get("cache_hit") is True)
        # A run that simulates is first marked RUNNING with a start time;
        # a run adopted from the cache never is.
        simulated = sum(1 for doc in docs if "started_at_wall" in doc)
        if adopted != len(docs) or simulated:
            verdict.problems.append(
                f"rerun adopted {adopted}/{len(docs)} runs from the cache "
                f"and simulated {simulated}"
            )


class PaperProcs(Workload):
    """Fig 6/7 PARSEC plus Fig 9 GPU in one process-substrate launch."""

    name = "paper-procs"
    golden_key = "paper-procs"
    spawns = True
    warmup = False

    def _create(self, db: ArtifactDB) -> List[Gem5Run]:
        gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
        resources_repo = register_repo(
            db, "gem5-resources", url=RESOURCES_URL, version="31924b6"
        )
        gem5 = register_gem5_binary(
            db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
        )
        creators: List[Callable[[], Gem5Run]] = []
        for key in PARSEC_DISTROS:
            distro = get_distro(key)
            kernel = register_kernel_binary(db, distro.kernel)
            disk = register_disk_image(
                db,
                build_resource("parsec", distro=distro.key).image,
                inputs=[resources_repo],
            )
            for app, cores in itertools.product(
                PARSEC_WORKING_APPS, PARSEC_CORES
            ):
                creators.append(
                    functools.partial(
                        Gem5Run.create_fs_run,
                        db,
                        gem5_artifact=gem5,
                        gem5_git_artifact=gem5_repo,
                        run_script_git_artifact=resources_repo,
                        linux_binary_artifact=kernel,
                        disk_image_artifact=disk,
                        cpu_type="timing",
                        num_cpus=cores,
                        memory_system="MESI_Two_Level",
                        benchmark=app,
                        input_size="simmedium",
                    )
                )
        environment = build_resource("GCN-docker")
        gpu_repo = register_repo(db, "gem5", version="v21.0")
        gpu_gem5 = register_gem5_binary(
            db,
            Gem5Build(version="21.0", isa="GCN3_X86"),
            name="gem5-gcn3",
            inputs=[gpu_repo],
        )
        for workload, allocator in itertools.product(
            environment.buildable_workloads(), GPU_ALLOCATORS
        ):
            creators.append(
                functools.partial(
                    Gem5Run.create_gpu_run,
                    db,
                    gpu_gem5,
                    gpu_repo,
                    workload=workload,
                    register_allocator=allocator,
                    gpu_config=GPUConfig(),
                )
            )
        return [create() for create in self._shuffled(creators)]

    def prepare(self) -> List[str]:
        # The inline reference: the same specs executed in this process
        # with no scheduler, which every process launch must match.
        db = ArtifactDB(connect("memory://"))
        runs = self._create(db)
        for run in runs:
            run.run(use_cache=False)
        docs = [db.get_run(run.run_id) for run in runs]
        self.inline_digest = results_digest(runs, docs)
        if self.inline_digest != self.golden.get("digest"):
            return [
                f"inline results digest {self.inline_digest} != golden "
                f"{self.golden.get('digest')}"
            ]
        return []

    def setup(self, path: str) -> Sweep:
        db = ArtifactDB(connect(f"file://{path}"))
        return Sweep(db, path, self._create(db))

    def launch(self, sweep: Sweep) -> List[Dict[str, Any]]:
        return run_jobs_scheduler(
            sweep.runs,
            worker_count=effective_cores(),
            use_cache=False,
            substrate="processes",
        )

    def verify(self, sweep: Sweep, summaries) -> Verdict:
        verdict = super().verify(sweep, summaries)
        in_worker = [s for s in summaries if s and "worker" in s]
        verdict.worker_runs = len(in_worker)
        verdict.worker_seconds = sum(s["host_seconds"] for s in in_worker)
        return verdict

    def _check(self, verdict: Verdict, docs, summaries) -> None:
        super()._check(verdict, docs, summaries)
        if verdict.digest != self.inline_digest:
            verdict.problems.append(
                f"results digest {verdict.digest} != inline execution "
                f"{self.inline_digest}"
            )

    def floor(self) -> float:
        build = Gem5Build(version="20.1.0.4")
        parsec = []
        for key in PARSEC_DISTROS:
            distro = get_distro(key)
            image = build_resource("parsec", distro=distro.key).image
            for app, cores in itertools.product(
                PARSEC_WORKING_APPS, PARSEC_CORES
            ):
                parsec.append((distro.kernel.version, image, app, cores))
        gpu = [
            (get_gpu_workload(name).kernel, allocator)
            for name, allocator in itertools.product(
                build_resource("GCN-docker").buildable_workloads(),
                GPU_ALLOCATORS,
            )
        ]
        started = time.perf_counter()
        for kernel, image, app, cores in parsec:
            config = SystemConfig(
                cpu_type="timing",
                num_cpus=cores,
                memory_system="MESI_Two_Level",
            )
            Gem5Simulator(build, config).run_fs(
                kernel,
                image,
                benchmark=app,
                input_size="simmedium",
                boot_type="systemd",
            )
        for kernel, allocator in gpu:
            GPUDevice(GPUConfig()).execute(kernel, allocator)
        return time.perf_counter() - started


WORKLOADS = {
    workload.name: workload
    for workload in (Fig8Cold, Fig8Rerun, Fig8Telemetry, PaperProcs)
}
