#!/usr/bin/env python3
"""Use-case 1: PARSEC across Ubuntu LTS releases (the paper's Fig 5
launch script, regenerating Figs 6 and 7).

Runs the full 60-point cross product — {Ubuntu 18.04, 20.04} x 10 working
PARSEC applications x {1, 2, 8} CPUs on a TimingSimpleCPU — through the
gem5art pipeline with the Celery-style scheduler, then queries the
database and renders both figures as text charts.

Run with:  python examples/parsec_study.py
"""

from repro.analysis import (
    Series,
    bar_chart,
    difference_series,
    pivot,
    run_records,
    speedup_series,
)
from repro.art import (
    ArtifactDB,
    Gem5Run,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    run_jobs_scheduler,
)
from repro.guest import get_distro
from repro.resources import build_resource
from repro.sim import Gem5Build
from repro.sim.workload import PARSEC_WORKING_APPS

CPU_COUNTS = (1, 2, 8)


def register_os_stack(db, resources_repo, distro_key):
    """Register the kernel + disk image pair for one Ubuntu release."""
    distro = get_distro(distro_key)
    kernel = register_kernel_binary(db, distro.kernel)
    image = build_resource("parsec", distro=distro.key).image
    disk = register_disk_image(
        db,
        image,
        inputs=[resources_repo],
        documentation=f"PARSEC on {distro.describe()}",
    )
    return kernel, disk


def main() -> None:
    db = ArtifactDB()
    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(
        db,
        "gem5-resources",
        url="https://gem5.googlesource.com/public/gem5-resources",
        version="31924b6",
    )
    gem5_binary = register_gem5_binary(
        db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
    )
    stacks = {
        key: register_os_stack(db, resources_repo, key)
        for key in ("ubuntu-18.04", "ubuntu-20.04")
    }

    # The cross product of the paper's Table II, as one launch script.
    runs = []
    for os_key, (kernel, disk) in stacks.items():
        for app in PARSEC_WORKING_APPS:
            for cpus in CPU_COUNTS:
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
                        # multi-core timing runs need Ruby (the classic
                        # memory system rejects >1 timing requestor)
                        memory_system="MESI_Two_Level",
                        benchmark=app,
                        input_size="simmedium",
                    )
                )
    print(f"launching {len(runs)} gem5 runs ...")
    run_jobs_scheduler(runs, worker_count=8)

    records = run_records(db)
    # Attribute each run to its OS via the disk-image artifact it used.
    os_of_run = {}
    for run in runs:
        doc = db.get_run(run.run_id)
        disk_artifact = doc["artifacts"]["disk_image"]
        for os_key, (kernel, disk) in stacks.items():
            if disk_artifact == disk.id:
                os_of_run[run.run_id] = os_key
    for record in records:
        record["os"] = os_of_run[record["run_id"]]

    tables = {
        os_key: pivot(
            [r for r in records if r["os"] == os_key],
            "benchmark",
            "num_cpus",
            "workload_seconds",
        )
        for os_key in stacks
    }

    # ------------------------------------------------------------- Fig 6
    print("\nFig 6: execution-time difference, Ubuntu 18.04 - 20.04")
    for cpus in CPU_COUNTS:
        bionic = Series(
            "18.04", {a: tables["ubuntu-18.04"][a][cpus]
                      for a in sorted(tables["ubuntu-18.04"])}
        )
        focal = Series(
            "20.04", {a: tables["ubuntu-20.04"][a][cpus]
                      for a in sorted(tables["ubuntu-20.04"])}
        )
        diff = difference_series(f"{cpus} cores", bionic, focal)
        print(f"\n--- {cpus} core(s) ---")
        print(bar_chart([diff], unit="s"))

    # ------------------------------------------------------------- Fig 7
    print("\nFig 7: 1 -> 8 core speedup per OS")
    for os_key in stacks:
        one = Series("1", {a: tables[os_key][a][1]
                           for a in sorted(tables[os_key])})
        eight = Series("8", {a: tables[os_key][a][8]
                             for a in sorted(tables[os_key])})
        speedup = speedup_series(os_key, one, eight)
        print(f"\n--- {os_key} (mean speedup "
              f"{speedup.mean():.2f}x) ---")
        print(bar_chart([speedup], unit="x"))


if __name__ == "__main__":
    main()
