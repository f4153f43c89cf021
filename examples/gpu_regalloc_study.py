#!/usr/bin/env python3
"""Use-case 3: GPU register-allocator study (regenerating Fig 9).

Builds the GCN-docker environment from gem5-resources, registers a
GCN3_X86 gem5 build, runs every Table IV workload under both register
allocators through gem5art, and renders the normalized speedup chart.

Run with:  python examples/gpu_regalloc_study.py
"""

import collections

from repro.analysis import Series, bar_chart, normalize_to
from repro.art import (
    ArtifactDB,
    Gem5Run,
    register_gem5_binary,
    register_repo,
    run_jobs_scheduler,
)
from repro.gpu import GPU_WORKLOADS, GPUConfig
from repro.resources import build_resource
from repro.sim import Gem5Build


def main() -> None:
    # The environment resource pins the ROCm 1.6 stack the GCN3 model
    # needs and tells us which workloads it can build.
    environment = build_resource("GCN-docker")
    environment.validate_stack()
    workloads = environment.buildable_workloads()
    print(f"GCN docker environment ok; {len(workloads)} workloads "
          "buildable")

    db = ArtifactDB()
    gem5_repo = register_repo(db, "gem5", version="v21.0")
    gem5_binary = register_gem5_binary(
        db,
        Gem5Build(version="21.0", isa="GCN3_X86"),
        name="gem5-gcn3",
        inputs=[gem5_repo],
        documentation="gem5 21.0 with the GCN3_X86 static configuration",
    )

    config = GPUConfig()  # the paper's Table III
    print(f"GPU config: {config.describe()}\n")

    runs = []
    for name in workloads:
        for allocator in ("simple", "dynamic"):
            runs.append(
                Gem5Run.create_gpu_run(
                    db,
                    gem5_binary,
                    gem5_repo,
                    workload=name,
                    register_allocator=allocator,
                    gpu_config=config,
                )
            )
    print(f"launching {len(runs)} GPU runs ...")
    summaries = run_jobs_scheduler(runs, worker_count=8)

    ticks = collections.defaultdict(dict)
    for summary in summaries:
        ticks[summary["register_allocator"]][summary["workload"]] = (
            summary["shader_ticks"]
        )
    order = sorted(workloads, key=lambda n: GPU_WORKLOADS[n].suite)
    simple = Series("simple", {n: ticks["simple"][n] for n in order})
    dynamic = Series("dynamic", {n: ticks["dynamic"][n] for n in order})

    # Fig 9: speedup of each allocator normalized to simple.
    speedup = normalize_to(simple, dynamic)
    speedup.name = "dynamic-vs-simple"
    print(bar_chart(
        [speedup],
        title="Fig 9: dynamic allocator speedup (normalized to simple; "
        ">1 means dynamic wins)",
        unit="x",
    ))
    mean_relative_time = sum(
        dynamic[n] / simple[n] for n in order
    ) / len(order)
    print(f"\nmean relative execution time (dynamic/simple): "
          f"{mean_relative_time:.3f} "
          "(paper: simple better by ~8% on average)")
    worst = max(order, key=lambda n: dynamic[n] / simple[n])
    print(f"worst regression: {worst} "
          f"({dynamic[worst] / simple[worst]:.2f}x slower under dynamic; "
          "paper: FAMutex, 61% worse)")


if __name__ == "__main__":
    main()
