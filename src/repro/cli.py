"""Command-line interface.

``python -m repro <command>`` exposes the catalog and the paper's
experiments without writing a launch script:

- ``resources``                 — list Table I (with per-release status);
- ``selftest [--isa ISA]``      — run the gem5-tests resource;
- ``boot-tests [--quick]``      — regenerate the Fig 8 grid;
- ``parsec [--apps ...]``       — regenerate Figs 6/7 (optionally reduced);
- ``gpu``                       — regenerate Fig 9;
- ``resume <experiment> --db``  — finish an interrupted experiment (skips
  runs the database already marks done);
- ``cache stats|ls|invalidate`` — inspect or evict the fingerprint result
  cache (``invalidate`` accepts a run fingerprint or an artifact content
  hash; an artifact hash cascades to every dependent cached run);
- ``ckpt stats|ls|gc``          — inspect or garbage-collect the
  boot-checkpoint store (``gc`` evicts checkpoints whose boot prefix no
  run spec references anymore);
- ``db stats|compact|scrub|recover`` — storage-engine maintenance:
  per-collection segment/WAL shape, forced segment compaction, blob
  re-verification with quarantine, and a crash-recovery report;
- ``admit stats|limits`` — admission control: ``limits`` prints the
  effective per-tenant limits an app would run with; ``stats`` drives a
  seeded mixed-priority overload demo through a bounded app and prints
  the accept/reject/shed ledger, queue depths, and breaker states.

``boot-tests`` and ``resume`` accept ``--cache``/``--no-cache`` to control
whether runs may adopt memoized results instead of simulating,
``--checkpoints``/``--no-checkpoints`` to stage the sweep as one boot per
unique boot prefix plus restored variants, and ``--tenant``/``--priority``
to choose the admission coordinates the campaign submits under.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.common import TextTable


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Enabling Reproducible and Agile "
            "Full-System Simulation' (ISPASS 2021)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    resources = commands.add_parser(
        "resources", help="list the gem5-resources catalog (Table I)"
    )
    resources.add_argument("--gem5-version", default="20.1.0.4")

    selftest = commands.add_parser(
        "selftest", help="run the gem5-tests resource against a build"
    )
    selftest.add_argument("--isa", default="X86")
    selftest.add_argument("--version", default="20.1.0.4")

    boot = commands.add_parser(
        "boot-tests", help="run the Fig 8 boot-test cross product"
    )
    boot.add_argument(
        "--quick",
        action="store_true",
        help="one kernel and boot type only (48 runs instead of 480)",
    )
    boot.add_argument(
        "--telemetry",
        action="store_true",
        help="record spans/metrics/events and archive them in the "
        "database (implies the experiment-backed path)",
    )
    boot.add_argument(
        "--db",
        default=None,
        metavar="URI",
        help="database URI (memory:// or file:///dir); routes the grid "
        "through gem5art run objects so it can be traced later",
    )
    boot.add_argument(
        "--workers", type=int, default=8,
        help="scheduler worker threads for the experiment-backed path",
    )
    _add_substrate_flag(boot)
    _add_cache_flags(boot)
    _add_checkpoint_flags(boot)
    _add_admission_flags(boot)

    parsec = commands.add_parser(
        "parsec", help="run the Fig 6/7 PARSEC OS study"
    )
    parsec.add_argument(
        "--apps", nargs="+", default=None,
        help="subset of PARSEC applications (default: all 10 working)",
    )

    commands.add_parser("gpu", help="run the Fig 9 register-allocator study")

    rate = commands.add_parser(
        "rate", help="SPECrate-style throughput scaling study"
    )
    rate.add_argument("--suite", default="spec-2017",
                      choices=("spec-2006", "spec-2017"))
    rate.add_argument("--benchmarks", nargs="+", default=None)

    report = commands.add_parser(
        "report", help="render the reproducibility report of an archive"
    )
    report.add_argument("archive", help="path to an exported archive")

    resume = commands.add_parser(
        "resume",
        help="resume an interrupted experiment: skip finished runs, "
        "re-run the rest (idempotent by run id)",
    )
    resume.add_argument(
        "experiment", help="experiment name or id in the database"
    )
    resume.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI the experiment was recorded into "
        "(file:///dir for anything that survives a crash)",
    )
    resume.add_argument(
        "--backend", default="inline",
        choices=("scheduler", "inline"),
    )
    resume.add_argument("--workers", type=int, default=4)
    resume.add_argument(
        "--retry-failures", action="store_true",
        help="also re-queue runs that finished as failed/timed_out",
    )
    _add_substrate_flag(resume)
    _add_cache_flags(resume)
    _add_checkpoint_flags(resume)
    _add_admission_flags(resume)

    admit = commands.add_parser(
        "admit",
        help="admission control: effective limits, or a seeded "
        "overload demo with decision accounting",
    )
    admit.add_argument(
        "action", choices=("stats", "limits"),
        help="limits: print the effective admission configuration; "
        "stats: flood a bounded app with seeded mixed-priority "
        "submissions and print the accept/reject/shed ledger",
    )
    admit.add_argument(
        "--queue-limit", type=int, default=16,
        help="broker queue bound (resident messages, all levels)",
    )
    admit.add_argument(
        "--rate", type=float, default=None,
        help="per-tenant sustained submissions/second (token bucket)",
    )
    admit.add_argument(
        "--burst", type=float, default=None,
        help="token-bucket burst capacity (default: the rate)",
    )
    admit.add_argument(
        "--max-queued", type=int, default=None,
        help="per-tenant backlog quota",
    )
    admit.add_argument(
        "--max-inflight", type=int, default=None,
        help="per-tenant concurrent-execution quota",
    )
    admit.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive dead-letters before a task name's circuit "
        "breaker opens",
    )
    admit.add_argument(
        "--seed", type=int, default=0,
        help="seed for the demo's tenant/priority mix and all backoff "
        "jitter (identical seeds produce identical decision sequences)",
    )
    admit.add_argument(
        "--flood", type=int, default=200,
        help="submissions the stats demo drives through the app",
    )
    admit.add_argument("--workers", type=int, default=2)

    cache = commands.add_parser(
        "cache",
        help="inspect or evict the fingerprint result cache",
    )
    cache.add_argument(
        "action", choices=("stats", "ls", "invalidate"),
        help="stats: summary counts; ls: one line per entry; "
        "invalidate: evict by fingerprint or artifact content hash",
    )
    cache.add_argument(
        "token", nargs="?", default=None,
        help="fingerprint or artifact content hash (invalidate only); "
        "an artifact hash evicts every dependent cached run",
    )
    cache.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI holding the cache "
        "(file:///dir for anything persistent)",
    )

    ckpt = commands.add_parser(
        "ckpt",
        help="inspect or garbage-collect the boot-checkpoint store",
    )
    ckpt.add_argument(
        "action", choices=("stats", "ls", "gc"),
        help="stats: summary counts; ls: one line per checkpoint; "
        "gc: evict checkpoints whose boot prefix no run spec "
        "references anymore",
    )
    ckpt.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI holding the checkpoint store "
        "(file:///dir for anything persistent)",
    )

    dbcmd = commands.add_parser(
        "db",
        help="inspect or maintain the embedded storage engine",
    )
    dbcmd.add_argument(
        "action", choices=("stats", "compact", "scrub", "recover"),
        help="stats: collection/segment/blob shape; compact: merge "
        "sealed segments and drop tombstones; scrub: re-verify blob "
        "hashes and quarantine rot; recover: replay the WAL and "
        "report what crash recovery found",
    )
    dbcmd.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI (file:///dir[?durability=none|batch|strict])",
    )

    lint = commands.add_parser(
        "lint",
        help="run the determinism/concurrency/hygiene analyzer "
        "(exit 1 on unbaselined errors)",
    )
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    lint.add_argument(
        "--format", default="text", choices=("text", "json", "sarif"),
        help="report format (json or sarif for CI consumption)",
    )
    lint.add_argument(
        "--deep", action="store_true",
        help="also run the whole-program passes (lockset races, "
        "determinism taint, import layering)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file of accepted findings; only new findings "
        "are reported and only new errors fail the run",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept the current findings: rewrite --baseline from "
        "them and exit 0",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) on warnings too, not just errors",
    )

    reproduce = commands.add_parser(
        "reproduce",
        help="run a reproduction manifest end to end: content-addressed "
        "stages, validation gates, bounded backtracking",
    )
    reproduce.add_argument(
        "manifest", help="path to a pipeline manifest (YAML or JSON)"
    )
    reproduce.add_argument(
        "--db", default="memory://", metavar="URI",
        help="database URI the pipeline journals into (file:///dir to "
        "make the second run a cache hit)",
    )
    reproduce.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="STAGE.PARAM=VALUE",
        help="override one stage parameter (JSON value or plain "
        "string); re-executes exactly that stage and its dependents",
    )
    reproduce.add_argument(
        "--no-stage-cache", dest="stage_cache", action="store_false",
        default=True,
        help="ignore journaled stage results; every stage executes",
    )
    reproduce.add_argument(
        "--expect-cache-hits", type=float, default=None, metavar="PCT",
        help="fail (exit 1) unless at least PCT%% of stage decisions "
        "were cache hits (CI uses this to assert incrementality)",
    )
    reproduce.add_argument(
        "--quiet", action="store_true",
        help="print only the final summary line",
    )

    pipeline = commands.add_parser(
        "pipeline",
        help="inspect or re-run journaled reproduction pipelines",
    )
    pipeline.add_argument(
        "action", choices=("status", "explain", "rerun"),
        help="status: one line per pipeline run; explain: replay one "
        "run's decision trail with per-stage provenance; rerun: "
        "re-execute the latest run's manifest (cache hits where "
        "nothing changed)",
    )
    pipeline.add_argument(
        "target", nargs="?", default=None,
        help="pipeline run id or pipeline name (default: the latest "
        "run for explain/rerun)",
    )
    pipeline.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI holding the pipeline journal",
    )
    pipeline.add_argument(
        "--stage", default=None, metavar="NAME",
        help="rerun only: evict this stage's journaled results first, "
        "forcing it and its dependents to re-execute",
    )

    trace = commands.add_parser(
        "trace",
        help="render an archived experiment timeline (requires a run "
        "with --telemetry)",
    )
    trace.add_argument(
        "experiment", help="experiment name or id in the database"
    )
    trace.add_argument(
        "--db", required=True, metavar="URI",
        help="database URI the experiment was recorded into",
    )
    trace.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="write the timeline as Chrome chrome://tracing JSON",
    )
    trace.add_argument(
        "--prometheus", action="store_true",
        help="also print the archived metrics in Prometheus text format",
    )

    args = parser.parse_args(argv)
    handler = {
        "resources": _cmd_resources,
        "selftest": _cmd_selftest,
        "boot-tests": _cmd_boot_tests,
        "parsec": _cmd_parsec,
        "gpu": _cmd_gpu,
        "rate": _cmd_rate,
        "report": _cmd_report,
        "resume": _cmd_resume,
        "trace": _cmd_trace,
        "lint": _cmd_lint,
        "cache": _cmd_cache,
        "ckpt": _cmd_ckpt,
        "db": _cmd_db,
        "admit": _cmd_admit,
        "reproduce": _cmd_reproduce,
        "pipeline": _cmd_pipeline,
    }[args.command]
    return handler(args)


def _add_substrate_flag(subparser) -> None:
    """``--substrate threads|processes`` (scheduler backend only)."""
    subparser.add_argument(
        "--substrate", default="threads",
        choices=("threads", "processes"),
        help="where scheduler-backend simulations execute: in-process "
        "worker threads (default) or OS worker processes for real CPU "
        "parallelism",
    )


def _add_admission_flags(subparser) -> None:
    """``--tenant`` / ``--priority`` admission coordinates."""
    subparser.add_argument(
        "--tenant", default="default",
        help="admission tenant the campaign's submissions are "
        "charged to (quota ledger and rate bucket)",
    )
    subparser.add_argument(
        "--priority", default="default",
        choices=("interactive", "default", "bulk"),
        help="queue lane: interactive jumps ahead of default, bulk is "
        "shed first under overload",
    )


def _add_checkpoint_flags(subparser) -> None:
    """``--checkpoints`` / ``--no-checkpoints`` pair (default: off)."""
    subparser.add_argument(
        "--checkpoints", dest="use_checkpoints", action="store_true",
        default=False,
        help="stage the sweep: boot once per unique boot prefix, then "
        "restore every variant from its cohort's checkpoint",
    )
    subparser.add_argument(
        "--no-checkpoints", dest="use_checkpoints",
        action="store_false",
        help="boot every run in full (default)",
    )


def _add_cache_flags(subparser) -> None:
    """``--cache`` / ``--no-cache`` pair (default: cache on)."""
    subparser.add_argument(
        "--cache", dest="use_cache", action="store_true", default=True,
        help="adopt memoized results for runs whose fingerprint is "
        "already cached (default)",
    )
    subparser.add_argument(
        "--no-cache", dest="use_cache", action="store_false",
        help="ignore the result cache; every run simulates",
    )


def _cmd_resources(args) -> int:
    from repro.resources import list_resources, status_matrix

    matrix = status_matrix(args.gem5_version)
    table = TextTable(
        ["Name", "Type", f"Status (gem5 {args.gem5_version})"],
        title="GEM5 RESOURCES",
    )
    for resource in list_resources():
        table.add_row([resource.name, resource.rtype, matrix[resource.name]])
    print(table.render())
    return 0


def _cmd_selftest(args) -> int:
    from repro.sim import Gem5Build
    from repro.sim.testing import run_test_suite

    build = Gem5Build(version=args.version, isa=args.isa)
    outcomes = run_test_suite(build)
    table = TextTable(
        ["Test", "Status", "Detail"],
        title=f"gem5 tests on {build.binary_name}",
    )
    failed = 0
    for outcome in outcomes:
        table.add_row([outcome.test_name, outcome.status, outcome.detail])
        if outcome.status == "fail":
            failed += 1
    print(table.render())
    return 1 if failed else 0


def _cmd_boot_tests(args) -> int:
    if args.telemetry or args.db:
        return _cmd_boot_tests_experiment(args)
    return _cmd_boot_tests_direct(args)


def _cmd_boot_tests_experiment(args) -> int:
    """The experiment-backed boot grid: artifacts + run objects + an
    archived, traceable timeline — what the paper means by a run the
    database alone can explain."""
    import collections

    from repro import telemetry
    from repro.art import (
        ArtifactDB,
        Experiment,
        register_disk_image,
        register_gem5_binary,
        register_kernel_binary,
        register_repo,
    )
    from repro.db import connect
    from repro.guest import BOOT_TEST_KERNEL_VERSIONS, get_kernel
    from repro.resources import build_resource
    from repro.sim import Gem5Build

    kernels = (
        BOOT_TEST_KERNEL_VERSIONS[:1]
        if args.quick
        else BOOT_TEST_KERNEL_VERSIONS
    )
    boot_types = ["init"] if args.quick else ["init", "systemd"]
    db = ArtifactDB(connect(args.db or "memory://"))
    if args.telemetry:
        telemetry.enable()
    try:
        gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
        resources_repo = register_repo(
            db,
            "gem5-resources",
            url="https://gem5.googlesource.com/public/gem5-resources",
            version="c5f5c70",
        )
        gem5_binary = register_gem5_binary(
            db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
        )
        disk = register_disk_image(
            db, build_resource("boot-exit").image,
            inputs=[resources_repo],
        )
        experiment = Experiment(db, "boot-tests")
        for version in kernels:
            experiment.add_stack(
                f"linux-{version}",
                gem5=gem5_binary,
                gem5_git=gem5_repo,
                run_script_git=resources_repo,
                linux_binary=register_kernel_binary(
                    db, get_kernel(version)
                ),
                disk_image=disk,
            )
        experiment.sweep(
            boot_type=boot_types,
            cpu_type=["kvm", "atomic", "timing", "o3"],
            memory_system=["classic", "MI_example", "MESI_Two_Level"],
            num_cpus=[1, 2, 4, 8],
        )
        print(f"launching {experiment.size()} boot tests ...")
        summaries = experiment.launch(
            backend="scheduler",
            workers=args.workers,
            use_cache=args.use_cache,
            substrate=args.substrate,
            tenant=args.tenant,
            priority=args.priority,
            use_checkpoints=args.use_checkpoints,
        )
        counts = collections.Counter(
            (s or {}).get("simulation_status", "failed")
            for s in summaries
        )
        for status, count in sorted(counts.items()):
            print(f"{status:<14} {count}")
        db.save()
        print(f"\nexperiment {experiment.experiment_id} archived "
              f"as 'boot-tests'")
        if args.telemetry:
            print("telemetry recorded; inspect with:\n"
                  f"  repro trace boot-tests --db {args.db or 'memory://'}"
                  " --prometheus --chrome trace.json")
    finally:
        if args.telemetry:
            telemetry.disable()
    return 0


def _cmd_boot_tests_direct(args) -> int:
    import collections
    import itertools

    from repro.analysis import status_grid
    from repro.guest import BOOT_TEST_KERNEL_VERSIONS
    from repro.resources import build_resource
    from repro.sim import Gem5Build, Gem5Simulator, SystemConfig

    kernels = (
        BOOT_TEST_KERNEL_VERSIONS[:1]
        if args.quick
        else BOOT_TEST_KERNEL_VERSIONS
    )
    boot_types = ("init",) if args.quick else ("init", "systemd")
    image = build_resource("boot-exit").image
    counts = collections.Counter()
    cells = {}
    columns = []
    for boot, kernel, cpu, mem, cores in itertools.product(
        boot_types,
        kernels,
        ("kvm", "atomic", "timing", "o3"),
        ("classic", "MI_example", "MESI_Two_Level"),
        (1, 2, 4, 8),
    ):
        config = SystemConfig(
            cpu_type=cpu, num_cpus=cores, memory_system=mem
        )
        result = Gem5Simulator(Gem5Build(), config).run_fs(
            kernel, image, boot_type=boot
        )
        counts[result.status.value] += 1
        column = f"{cpu[:2]}.{mem[:2]}{cores}"
        if column not in columns:
            columns.append(column)
        cells[(f"{kernel}/{boot}", column)] = result.status.value
    rows = sorted({row for row, _ in cells})
    print(status_grid(cells, rows, columns, title="Fig 8 boot tests"))
    print()
    for status, count in sorted(counts.items()):
        print(f"{status:<14} {count}")
    return 0


def _cmd_parsec(args) -> int:
    from repro.analysis import Series, bar_chart, difference_series
    from repro.guest import get_distro
    from repro.resources import build_resource
    from repro.sim import Gem5Build, Gem5Simulator, SystemConfig
    from repro.sim.workload import PARSEC_WORKING_APPS

    apps = tuple(args.apps) if args.apps else PARSEC_WORKING_APPS
    unknown = set(apps) - set(PARSEC_WORKING_APPS)
    if unknown:
        print(f"unknown/broken PARSEC apps: {sorted(unknown)}")
        return 2
    times = {}
    for os_key in ("ubuntu-18.04", "ubuntu-20.04"):
        image = build_resource("parsec", distro=os_key).image
        kernel = get_distro(os_key).kernel_version
        for app in apps:
            for cpus in (1, 8):
                config = SystemConfig(
                    cpu_type="timing",
                    num_cpus=cpus,
                    memory_system="MESI_Two_Level",
                )
                result = Gem5Simulator(Gem5Build(), config).run_fs(
                    kernel, image, benchmark=app
                )
                times[(os_key, app, cpus)] = result.workload_seconds
    bionic = Series(
        "18.04", {a: times[("ubuntu-18.04", a, 1)] for a in apps}
    )
    focal = Series(
        "20.04", {a: times[("ubuntu-20.04", a, 1)] for a in apps}
    )
    print(bar_chart(
        [difference_series("18.04-20.04 (1 core)", bionic, focal)],
        title="Fig 6 (1 core)", unit="s",
    ))
    print()
    for os_key, series in (("18.04", bionic), ("20.04", focal)):
        speedups = Series(
            os_key,
            {
                a: times[(f"ubuntu-{os_key}", a, 1)]
                / times[(f"ubuntu-{os_key}", a, 8)]
                for a in apps
            },
        )
        print(f"Fig 7 mean speedup {os_key}: {speedups.mean():.2f}x")
    return 0


def _cmd_gpu(args) -> int:
    from repro.analysis import Series, bar_chart
    from repro.gpu import GPU_WORKLOADS, GPUDevice

    device = GPUDevice()
    speedups = {}
    for name, workload in GPU_WORKLOADS.items():
        simple = device.execute(workload.kernel, "simple").shader_ticks
        dynamic = device.execute(workload.kernel, "dynamic").shader_ticks
        speedups[name] = simple / dynamic
    series = Series("dynamic-vs-simple", dict(sorted(speedups.items())))
    print(bar_chart([series], title="Fig 9", unit="x"))
    mean_rel = sum(1.0 / v for v in speedups.values()) / len(speedups)
    print(f"\nmean relative time (dynamic/simple): {mean_rel:.3f}")
    return 0


def _cmd_rate(args) -> int:
    from repro.sim import Gem5Build, Gem5Simulator, SystemConfig
    from repro.sim.workload import get_workload, suite_apps

    benchmarks = args.benchmarks or list(suite_apps(args.suite))[:6]
    unknown = set(benchmarks) - set(suite_apps(args.suite))
    if unknown:
        print(f"unknown {args.suite} benchmarks: {sorted(unknown)}")
        return 2
    table = TextTable(
        ["Benchmark", "rate@1", "rate@8", "Scaling"],
        title=f"SPECrate scaling ({args.suite}, O3, DDR3 x1)",
    )
    for name in benchmarks:
        workload = get_workload(args.suite, name, "test")
        rates = {}
        for copies in (1, 8):
            simulator = Gem5Simulator(
                Gem5Build(),
                SystemConfig(
                    cpu_type="o3",
                    num_cpus=8,
                    memory_system="MESI_Two_Level",
                ),
            )
            result = simulator.run_se_rate(workload, copies=copies)
            rates[copies] = result.stats["rate"]
        table.add_row(
            [name, f"{rates[1]:.1f}", f"{rates[8]:.1f}",
             f"{rates[8] / rates[1]:.2f}x"]
        )
    print(table.render())
    return 0


def _cmd_resume(args) -> int:
    from repro.art import ArtifactDB, Experiment
    from repro.common.errors import ReproError
    from repro.db import connect

    try:
        db = ArtifactDB(connect(args.db))
        experiment = Experiment.load(db, args.experiment)
    except ReproError as error:
        print(f"error: {error}")
        return 1
    pending = experiment.pending_runs(
        retry_failures=args.retry_failures
    )
    report = experiment.report()
    total = report["runs"]
    if not pending:
        print(
            f"nothing to resume: all {total} runs of "
            f"{experiment.name!r} are finished"
        )
        return 0
    print(
        f"resuming {experiment.name!r}: {len(pending)} of {total} runs "
        f"pending ({args.backend} backend, {args.workers} workers)"
    )
    try:
        experiment.resume(
            backend=args.backend,
            workers=args.workers,
            retry_failures=args.retry_failures,
            use_cache=args.use_cache,
            substrate=args.substrate,
            tenant=args.tenant,
            priority=args.priority,
            use_checkpoints=args.use_checkpoints,
        )
    except ReproError as error:
        print(f"error: {error}")
        return 1
    db.save()
    report = experiment.report()
    for stack, counts in sorted(report["by_stack"].items()):
        line = ", ".join(
            f"{status}={count}"
            for status, count in sorted(counts.items())
        )
        print(f"{stack:<24} {line}")
    print(f"\nexperiment {experiment.experiment_id} is up to date")
    return 0


def _cmd_cache(args) -> int:
    from repro.art import ArtifactDB, RunCache
    from repro.common.errors import ReproError
    from repro.db import connect

    try:
        db = ArtifactDB(connect(args.db))
    except ReproError as error:
        print(f"error: {error}")
        return 1
    cache = RunCache(db)
    if args.action == "stats":
        stats = cache.stats()
        print(f"entries    {stats['entries']}")
        print(f"adoptions  {stats['adoptions']}")
        for kind, count in sorted(stats["by_kind"].items()):
            print(f"  {kind:<9}{count}")
        return 0
    if args.action == "ls":
        table = TextTable(
            ["Fingerprint", "Kind", "Run", "Hits", "Stored"],
            title="RESULT CACHE",
        )
        for entry in cache.entries():
            table.add_row(
                [
                    entry["fingerprint"][:12],
                    entry.get("kind", "?"),
                    str(entry.get("run_id", "?"))[:8],
                    str(entry.get("hits", 0)),
                    str(entry.get("stored_at_wall", "?"))[:19],
                ]
            )
        print(table.render())
        return 0
    # invalidate
    if not args.token:
        print("error: invalidate needs a fingerprint or artifact hash")
        return 2
    try:
        evicted = cache.invalidate(args.token)
    except ReproError as error:
        print(f"error: {error}")
        return 2
    db.save()
    if evicted == 0:
        print(f"no cache entries match {args.token!r}")
        return 1
    noun = "entry" if evicted == 1 else "entries"
    print(f"evicted {evicted} cache {noun}; "
          "dependent runs will re-execute on next launch")
    return 0


def _cmd_ckpt(args) -> int:
    from repro.art import ArtifactDB, CheckpointStore
    from repro.art.spec import RunSpec
    from repro.common.errors import ReproError
    from repro.db import connect

    try:
        db = ArtifactDB(connect(args.db))
    except ReproError as error:
        print(f"error: {error}")
        return 1
    store = CheckpointStore(db)
    if args.action == "stats":
        stats = store.stats()
        print(f"entries       {stats['entries']}")
        print(f"restores      {stats['restores']}")
        print(f"boot seconds  {stats['boot_seconds_archived']:.1f}")
        for boot_type, count in sorted(stats["by_boot_type"].items()):
            print(f"  {boot_type:<11}{count}")
        return 0
    if args.action == "ls":
        table = TextTable(
            ["Prefix", "Kernel", "Boot", "CPUs", "Restores", "Stored"],
            title="CHECKPOINT STORE",
        )
        for entry in store.entries():
            table.add_row(
                [
                    entry["prefix"][:12],
                    entry.get("kernel_version", "?"),
                    entry.get("boot_type", "?"),
                    str(entry.get("num_cpus", "?")),
                    str(entry.get("restores", 0)),
                    str(entry.get("stored_at_wall", "?"))[:19],
                ]
            )
        print(table.render())
        return 0
    # gc: a checkpoint is live while some run document's spec still
    # hashes to its prefix.
    live = set()
    for doc in db.runs.find({}):
        spec_doc = doc.get("spec")
        if not spec_doc:
            continue
        prefix = RunSpec.from_document(spec_doc).prefix_fingerprint()
        if prefix:
            live.add(prefix)
    evicted = store.gc(live)
    db.save()
    noun = "checkpoint" if evicted == 1 else "checkpoints"
    print(f"evicted {evicted} orphaned {noun} "
          f"({len(live)} live boot prefixes)")
    return 0


def _cmd_db(args) -> int:
    """Storage-engine maintenance: stats, compact, scrub, recover."""
    from repro.common.errors import ReproError
    from repro.db import connect

    try:
        db = connect(args.db)
    except ReproError as error:
        print(f"error: {error}")
        return 1
    try:
        if args.action == "stats":
            stats = db.storage_stats()
            table = TextTable(
                ["Collection", "Docs", "Segments", "Seg bytes",
                 "WAL bytes", "Indexes"],
                title=f"STORAGE ENGINE ({stats['durability']})",
            )
            for name, entry in sorted(stats["collections"].items()):
                indexes = ",".join(sorted(entry["indexes"])) or "-"
                table.add_row(
                    [
                        name,
                        str(entry["documents"]),
                        str(entry.get("segments", 0)),
                        str(entry.get("segment_bytes", 0)),
                        str(entry.get("wal_bytes", 0)),
                        indexes,
                    ]
                )
            print(table.render())
            files = stats.get("filestore")
            if files is not None:
                print(
                    f"filestore: {files['blobs']} blobs, "
                    f"{files['bytes']} bytes, {files['shards']} shards, "
                    f"{files.get('quarantined', 0)} quarantined"
                )
            return 0
        if args.action == "compact":
            if db.root is None:
                print("nothing to compact: in-memory database")
                return 0
            results = db.compact()
            merged = 0
            for name, result in sorted(results.items()):
                if result["merged"]:
                    merged += 1
                    print(
                        f"{name}: merged {result['merged']} segments "
                        f"into {result['segment']}, reclaimed "
                        f"{result['reclaimed_bytes']} bytes"
                    )
            if not merged:
                print("nothing to compact: no collection has 2+ segments")
            return 0
        if args.action == "scrub":
            report = db.files.scrub()
            print(f"scanned      {report['scanned']}")
            print(f"repaired     {len(report['repaired'])}")
            print(f"quarantined  {len(report['quarantined'])}")
            print(f"tmp swept    {report['tmp_swept']}")
            for digest in report["quarantined"]:
                print(f"  quarantined {digest}")
            return 1 if report["quarantined"] else 0
        # recover: the replay already happened at connect(); report it.
        report = db.recovery_report()
        if not report:
            print("no persisted collections to recover")
            return 0
        table = TextTable(
            ["Collection", "Records", "Segments", "WAL records",
             "Torn bytes"],
            title="CRASH RECOVERY",
        )
        for name, entry in sorted(report.items()):
            table.add_row(
                [
                    name,
                    str(entry["records_replayed"]),
                    str(entry["segments"]),
                    str(entry["wal_records"]),
                    str(entry["truncated_bytes"]),
                ]
            )
        print(table.render())
        torn = sum(e["truncated_bytes"] for e in report.values())
        if torn:
            print(f"truncated {torn} torn tail bytes; WAL is clean again")
        return 0
    finally:
        db.close()


def _cmd_admit(args) -> int:
    """Admission-control inspection: effective limits, or a seeded
    overload demo whose decision ledger is printed for triage."""
    from repro.common.rng import RngStream
    from repro.scheduler import (
        AdmissionController,
        AdmissionRejected,
        SchedulerApp,
        TenantLimits,
    )

    limits = TenantLimits(
        rate=args.rate,
        burst=args.burst,
        max_queued=args.max_queued,
        max_inflight=args.max_inflight,
    )
    if args.action == "limits":
        table = TextTable(["setting", "value"])
        table.add_row(["queue_limit", str(args.queue_limit)])
        table.add_row(["rate (submissions/s)", str(limits.rate or "unlimited")])
        table.add_row(
            ["burst", str(limits.burst or limits.rate or "unlimited")]
        )
        table.add_row(["max_queued", str(limits.max_queued or "unlimited")])
        table.add_row(
            ["max_inflight", str(limits.max_inflight or "unlimited")]
        )
        table.add_row(["breaker_threshold", str(args.breaker_threshold)])
        table.add_row(["seed", str(args.seed)])
        print(table.render())
        print(
            "\npriorities: interactive > default > bulk "
            "(bulk shed first under overload)"
        )
        return 0

    admission = AdmissionController(
        default_limits=limits,
        breaker_threshold=args.breaker_threshold,
        seed=args.seed,
    )
    app = SchedulerApp(
        name="admit-demo",
        worker_count=args.workers,
        queue_limit=args.queue_limit,
        admission=admission,
    )

    @app.task(name="admit.demo")
    def demo_task(index: int) -> int:
        return sum(range(200)) + index

    mix = RngStream(args.seed, "admit", "demo")
    tenants = ("alice", "bob", "carol")
    outcomes = {"accepted": 0, "rejected": 0}
    try:
        for index in range(args.flood):
            tenant = mix.choice(tenants)
            priority = mix.choice(("interactive", "default", "bulk"))
            try:
                demo_task.apply_async(
                    args=(index,), tenant=tenant, priority=priority
                )
                outcomes["accepted"] += 1
            except AdmissionRejected:
                outcomes["rejected"] += 1
        app.drain(timeout=60.0)
    finally:
        app.shutdown()
    stats = admission.stats()
    table = TextTable(["measure", "count"])
    table.add_row(["submissions", str(args.flood)])
    table.add_row(["accepted", str(outcomes["accepted"])])
    table.add_row(["rejected", str(outcomes["rejected"])])
    for reason, count in sorted(stats["rejected_by_reason"].items()):
        table.add_row([f"  rejected: {reason}", str(count)])
    table.add_row(["shed", str(stats["outcomes"].get("shed", 0))])
    table.add_row(["overflow parked", str(stats["overflow"])])
    print(table.render())
    depth = app.broker.queue_depth()
    print(
        "\nqueue depth after drain: "
        + ", ".join(f"{k}={v}" for k, v in sorted(depth.items()))
    )
    if stats["breakers"]:
        print(
            "breakers: "
            + ", ".join(
                f"{name}={state}"
                for name, state in sorted(stats["breakers"].items())
            )
        )
    print(f"decisions logged: {stats['decisions']} (seed {args.seed})")
    return 0


def _cmd_lint(args) -> int:
    """Run the analyzer; the exit code is the CI contract.

    0 — clean (or every finding is baselined / only warnings without
    ``--strict``); 1 — new findings at failing severity; 2 — usage
    error (bad paths, malformed baseline).
    """
    import os

    from repro.analysis import lint_paths
    from repro.analysis.baseline import (
        load_baseline,
        split_baselined,
        write_baseline,
    )
    from repro.analysis.reporters import (
        render_json,
        render_sarif,
        render_text,
    )
    from repro.common.errors import ReproError

    paths = args.paths or ["src/repro"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}")
        return 2
    if args.write_baseline and not args.baseline:
        print("error: --write-baseline requires --baseline PATH")
        return 2
    findings = lint_paths(paths)
    if getattr(args, "deep", False):
        from repro.analysis import deep_lint_paths

        findings = sorted(
            findings + deep_lint_paths(paths),
            key=lambda finding: finding.sort_key(),
        )
    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(
            f"baseline {args.baseline} written: "
            f"{len(findings)} finding(s) accepted"
        )
        return 0
    baselined = 0
    if args.baseline:
        try:
            accepted = load_baseline(args.baseline)
        except ReproError as error:
            print(f"error: {error}")
            return 2
        findings, known = split_baselined(findings, accepted)
        baselined = len(known)
    render = {
        "json": render_json,
        "sarif": render_sarif,
    }.get(args.format, render_text)
    output = render(findings, baselined=baselined)
    print(output, end="" if output.endswith("\n") else "\n")
    failing = ("error", "warning") if args.strict else ("error",)
    failed = any(f.severity in failing for f in findings)
    return 1 if failed else 0


def _cmd_trace(args) -> int:
    from repro.art import ArtifactDB
    from repro.art.launch import EXPERIMENTS
    from repro.common.errors import ReproError
    from repro.db import connect
    from repro.telemetry import (
        chrome_trace_json,
        metrics_to_prometheus,
        rehydrate_telemetry,
    )

    try:
        db = ArtifactDB(connect(args.db))
        experiments = db.database.collection(EXPERIMENTS)
        doc = experiments.find_one({"name": args.experiment})
        if doc is None:
            doc = experiments.find_one({"_id": args.experiment})
        if doc is None:
            print(f"error: no experiment {args.experiment!r} in {args.db}")
            return 1
        snapshot = rehydrate_telemetry(db, doc["_id"])
    except ReproError as error:
        print(f"error: {error}")
        return 1

    spans = snapshot["spans"]
    # Write the trace file before touching stdout: if stdout is a pipe
    # that closes early (e.g. | head), the artifact must still exist.
    if args.chrome:
        try:
            with open(args.chrome, "w", encoding="utf-8") as handle:
                handle.write(chrome_trace_json(spans))
        except OSError as error:
            print(f"error: cannot write {args.chrome}: {error}")
            return 1
    print(_trace_timing_table(doc, spans))
    if args.chrome:
        print(f"\nChrome trace written to {args.chrome} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    if args.prometheus:
        print()
        print(metrics_to_prometheus(snapshot["metrics"]), end="")
    return 0


def _trace_timing_table(doc, spans) -> str:
    """Per-run timing table reconstructed purely from archived spans."""
    children = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)

    def wall_ms(span) -> str:
        duration = span.get("duration")
        return f"{duration * 1000:.1f}" if duration is not None else "?"

    table = TextTable(
        ["Run", "Workload", "Status", "Wall ms", "Phases"],
        title=f"experiment {doc['name']} — per-run timing",
    )
    run_spans = [s for s in spans if s["name"] == "run"]
    run_spans.sort(key=lambda s: s["start_wall"])
    for span in run_spans:
        attributes = span.get("attributes", {})
        phases = ", ".join(
            f"{child['name'].split('.', 1)[-1]}={wall_ms(child)}ms"
            for child in sorted(
                children.get(span["span_id"], []),
                key=lambda s: s["start_wall"],
            )
            if child["name"].startswith("phase.")
        )
        table.add_row(
            [
                str(attributes.get("run_id", "?"))[:8],
                str(attributes.get("workload", "?")),
                str(attributes.get("status", "?")),
                wall_ms(span),
                phases or "-",
            ]
        )
    total = next((s for s in spans if s["name"] == "experiment"), None)
    lines = [table.render()]
    if total is not None and total.get("duration") is not None:
        lines.append(
            f"experiment wall time: {total['duration']:.3f}s "
            f"over {len(run_spans)} runs"
        )
    return "\n".join(lines)


def _cmd_report(args) -> int:
    from repro.analysis import experiment_report
    from repro.art import ArtifactDB, import_archive, verify_archive
    from repro.common.errors import ReproError

    try:
        verify_archive(args.archive)
        db = ArtifactDB()
        import_archive(args.archive, db)
        print(experiment_report(db))
    except ReproError as error:
        print(f"error: {error}")
        return 1
    return 0


def _cmd_reproduce(args) -> int:
    from repro.art import ArtifactDB
    from repro.common.errors import ReproError
    from repro.db import connect
    from repro.pipeline import load_manifest, run_pipeline

    try:
        manifest = load_manifest(args.manifest, overrides=args.overrides)
        db = ArtifactDB(connect(args.db))
    except ReproError as error:
        print(f"error: {error}")
        return 2
    if not args.quiet:
        print(
            f"reproduce {manifest.name!r}: "
            f"{len(manifest.stages)} stages, "
            f"order {' -> '.join(manifest.execution_order())}"
        )
    result = run_pipeline(
        db, manifest, use_cache=None if args.stage_cache else False
    )
    db.save()
    if not args.quiet:
        for event in result["trail"]:
            print(f"  {_trail_line(event)}")
    counts = result["counts"]
    decisions = counts["executed"] + counts["cache_hits"]
    hit_pct = 100.0 * counts["cache_hits"] / decisions if decisions else 0.0
    print(
        f"pipeline {result['pipeline_id'][:8]} {result['status']}: "
        f"{counts['executed']} executed, "
        f"{counts['cache_hits']} cache hits ({hit_pct:.0f}%), "
        f"{counts['gate_failures']} gate failures, "
        f"{counts['backtracks']} backtracks"
    )
    if result["status"] != "succeeded":
        print(f"error: {result['error']}")
        return 1
    if (
        args.expect_cache_hits is not None
        and hit_pct < args.expect_cache_hits
    ):
        print(
            f"error: expected >= {args.expect_cache_hits:.0f}% stage "
            f"cache hits, observed {hit_pct:.0f}%"
        )
        return 1
    return 0


def _trail_line(event) -> str:
    kind = event.get("event")
    if kind == "stage":
        return (
            f"[{event['action']:>9}] {event['stage']} "
            f"(kind={event['kind']} attempt={event['attempt']} "
            f"gates={'ok' if event['gates_ok'] else 'FAILED'} "
            f"fp={event['fingerprint'][:12]})"
        )
    if kind == "backtrack":
        return (
            f"[backtrack] {event['from_stage']} -> {event['to_stage']} "
            f"({event['backtracks_used']}/{event['max_backtracks']}: "
            f"{'; '.join(event['failed_gates'])})"
        )
    if kind == "gate_failed_final":
        return (
            f"[gate-fail] {event['stage']} out of backtracks: "
            f"{'; '.join(event['failed_gates'])}"
        )
    if kind == "stage_error":
        return f"[    error] {event['stage']}: {event['error']}"
    if kind == "finished":
        return f"[ finished] {event['status']}"
    return str({k: v for k, v in event.items() if k != "at_wall"})


def _cmd_pipeline(args) -> int:
    from repro.art import ArtifactDB
    from repro.common.errors import NotFoundError, ReproError
    from repro.db import connect
    from repro.pipeline import (
        PipelineJournal,
        load_manifest,
        run_pipeline,
    )

    try:
        db = ArtifactDB(connect(args.db))
    except ReproError as error:
        print(f"error: {error}")
        return 2
    journal = PipelineJournal(db)

    if args.action == "status":
        docs = journal.pipelines(name=None)
        if args.target:
            docs = [
                doc
                for doc in docs
                if args.target in (doc["pipeline"], doc["_id"])
            ]
        if not docs:
            print("no pipeline runs journaled")
            return 1
        table = TextTable(
            ["Run", "Pipeline", "Status", "Exec", "Hits", "Gates!",
             "Back", "Started"],
            title="PIPELINE RUNS",
        )
        for doc in docs:
            counts = doc.get("counts") or {}
            table.add_row(
                [
                    doc["_id"][:8],
                    doc["pipeline"],
                    doc["status"],
                    str(counts.get("executed", 0)),
                    str(counts.get("cache_hits", 0)),
                    str(counts.get("gate_failures", 0)),
                    str(counts.get("backtracks", 0)),
                    str(doc.get("started_at_wall", "?"))[:19],
                ]
            )
        print(table.render())
        return 0

    # explain / rerun address one pipeline run.
    doc = None
    if args.target:
        try:
            doc = journal.get_pipeline(args.target)
        except NotFoundError:
            doc = journal.latest_pipeline(name=args.target)
    else:
        doc = journal.latest_pipeline()
    if doc is None:
        print(f"error: no pipeline run matches {args.target!r}")
        return 1

    if args.action == "explain":
        print(
            f"pipeline {doc['pipeline']!r} run {doc['_id'][:8]} "
            f"[{doc['status']}] manifest "
            f"{doc['manifest_fingerprint'][:12]} "
            f"({doc.get('manifest_path') or 'inline'})"
        )
        print(f"  stage order: {' -> '.join(doc['stage_order'])}")
        print("  decision trail:")
        for event in doc.get("trail", []):
            print(f"    {_trail_line(event)}")
        print("  stage provenance:")
        for stage in journal.stages_of(doc["_id"]):
            verdicts = stage.get("verdicts") or []
            print(
                f"    {stage['stage']} attempt {stage['attempt']} "
                f"[{stage['action']}] fp={stage['fingerprint'][:12]} "
                f"outputs={str(stage.get('outputs_blob'))[:12]}"
            )
            for verdict in verdicts:
                mark = "pass" if verdict["ok"] else "FAIL"
                print(f"      gate {mark}: {verdict.get('detail')}")
            if stage.get("error"):
                print(f"      error: {stage['error']}")
        return 0

    # rerun
    path = doc.get("manifest_path")
    if not path:
        print(
            "error: the journaled run has no manifest path; "
            "use 'repro reproduce <manifest>' directly"
        )
        return 2
    try:
        manifest = load_manifest(path)
    except ReproError as error:
        print(f"error: {error}")
        return 2
    if args.stage:
        try:
            targets = [args.stage] + manifest.dependents_of(args.stage)
        except ReproError as error:
            print(f"error: {error}")
            return 2
        evicted = journal.evict_stage_records(targets)
        print(
            f"evicted {evicted} journaled results for "
            f"{', '.join(targets)}; they will re-execute"
        )
    result = run_pipeline(db, manifest, journal=journal)
    db.save()
    for event in result["trail"]:
        print(f"  {_trail_line(event)}")
    print(
        f"pipeline {result['pipeline_id'][:8]} {result['status']}: "
        f"{result['counts']}"
    )
    return 0 if result["status"] == "succeeded" else 1


if __name__ == "__main__":
    sys.exit(main())
