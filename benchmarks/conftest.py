"""Shared fixtures for the benchmark harness.

Each ``test_fig*`` / ``test_table*`` module regenerates one table or
figure from the paper.  The expensive sweeps (60 PARSEC runs, 480 boot
tests, 58 GPU runs) are computed once per session here and shared; the
``benchmark`` fixture then times a representative unit of each experiment
so ``pytest benchmarks/ --benchmark-only`` doubles as a performance
regression suite for the simulator itself.
"""

from __future__ import annotations

import itertools

import pytest

from repro.art import (
    ArtifactDB,
    Gem5Run,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    run_job,
)
from repro.analysis import run_records
from repro.guest import BOOT_TEST_KERNEL_VERSIONS, get_distro, get_kernel
from repro.gpu import GPUConfig, GPUDevice, GPU_WORKLOADS
from repro.resources import build_resource
from repro.sim import Gem5Build
from repro.sim.workload import PARSEC_WORKING_APPS

PARSEC_CPU_COUNTS = (1, 2, 8)
BOOT_CPU_TYPES = ("kvm", "atomic", "timing", "o3")
BOOT_MEMORY_SYSTEMS = ("classic", "MI_example", "MESI_Two_Level")
BOOT_CORE_COUNTS = (1, 2, 4, 8)
BOOT_TYPES = ("init", "systemd")


@pytest.fixture(scope="session")
def parsec_sweep():
    """The use-case 1 cross product: {18.04, 20.04} x 10 apps x {1,2,8}.

    Returns ``{os_key: {app: {cpus: workload_seconds}}}``.
    """
    db = ArtifactDB()
    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(
        db, "gem5-resources", version="31924b6"
    )
    gem5_binary = register_gem5_binary(
        db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
    )
    runs = []
    os_of_disk = {}
    for os_key in ("ubuntu-18.04", "ubuntu-20.04"):
        distro = get_distro(os_key)
        kernel = register_kernel_binary(db, distro.kernel)
        disk = register_disk_image(
            db,
            build_resource("parsec", distro=os_key).image,
            inputs=[resources_repo],
        )
        os_of_disk[disk.id] = os_key
        for app in PARSEC_WORKING_APPS:
            for cpus in PARSEC_CPU_COUNTS:
                runs.append(
                    Gem5Run.create_fs_run(
                        db,
                        gem5_artifact=gem5_binary,
                        gem5_git_artifact=gem5_repo,
                        run_script_git_artifact=resources_repo,
                        linux_binary_artifact=kernel,
                        disk_image_artifact=disk,
                        cpu_type="timing",
                        num_cpus=cpus,
                        memory_system="MESI_Two_Level",
                        benchmark=app,
                        input_size="simmedium",
                    )
                )
    for run in runs:
        run_job(run)
    table = {
        "ubuntu-18.04": {app: {} for app in PARSEC_WORKING_APPS},
        "ubuntu-20.04": {app: {} for app in PARSEC_WORKING_APPS},
    }
    for run in runs:
        doc = run.db.get_run(run.run_id)
        os_key = os_of_disk[doc["artifacts"]["disk_image"]]
        results = doc["results"]
        table[os_key][doc["params"]["benchmark"]][
            doc["params"]["num_cpus"]
        ] = results["workload_seconds"]
    return table


@pytest.fixture(scope="session")
def boot_sweep():
    """The use-case 2 cross product: 480 boot-test runs.

    Returns a list of flat records (one per run).
    """
    db = ArtifactDB()
    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(
        db, "gem5-resources", version="c5f5c70"
    )
    gem5_binary = register_gem5_binary(
        db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
    )
    disk = register_disk_image(
        db, build_resource("boot-exit").image, inputs=[resources_repo]
    )
    kernels = {
        version: register_kernel_binary(db, get_kernel(version))
        for version in BOOT_TEST_KERNEL_VERSIONS
    }
    runs = []
    keys = []
    for boot, version, cpu, mem, cores in itertools.product(
        BOOT_TYPES,
        BOOT_TEST_KERNEL_VERSIONS,
        BOOT_CPU_TYPES,
        BOOT_MEMORY_SYSTEMS,
        BOOT_CORE_COUNTS,
    ):
        runs.append(
            Gem5Run.create_fs_run(
                db,
                gem5_artifact=gem5_binary,
                gem5_git_artifact=gem5_repo,
                run_script_git_artifact=resources_repo,
                linux_binary_artifact=kernels[version],
                disk_image_artifact=disk,
                cpu_type=cpu,
                num_cpus=cores,
                memory_system=mem,
                boot_type=boot,
            )
        )
        keys.append(
            dict(
                boot_type=boot,
                kernel=version,
                cpu_type=cpu,
                memory_system=mem,
                num_cpus=cores,
            )
        )
    for run in runs:
        run_job(run)
    records = []
    for run, key in zip(runs, keys):
        doc = db.get_run(run.run_id)
        record = dict(key)
        record["status"] = doc["results"]["simulation_status"]
        record["reason"] = doc["results"]["reason"]
        record["sim_seconds"] = doc["results"]["sim_seconds"]
        records.append(record)
    return records


@pytest.fixture(scope="session")
def gpu_sweep():
    """Use-case 3: every Table IV workload under both allocators.

    Returns ``{workload: {allocator: shader_ticks}}``.
    """
    device = GPUDevice(GPUConfig())
    results = {}
    for name, workload in GPU_WORKLOADS.items():
        results[name] = {
            allocator: device.execute(
                workload.kernel, allocator
            ).shader_ticks
            for allocator in ("simple", "dynamic")
        }
    return results
