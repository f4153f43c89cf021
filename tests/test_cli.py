"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


def test_resources_command(capsys):
    assert main(["resources"]) == 0
    out = capsys.readouterr().out
    assert "GEM5 RESOURCES" in out
    assert "parsec" in out
    assert "supported" in out


def test_resources_gpu_status_depends_on_version(capsys):
    main(["resources", "--gem5-version", "20.1.0.4"])
    assert "requires gem5 21.0" in capsys.readouterr().out
    main(["resources", "--gem5-version", "21.0"])
    assert "requires gem5 21.0" not in capsys.readouterr().out


def test_selftest_command(capsys):
    assert main(["selftest", "--isa", "X86"]) == 0
    out = capsys.readouterr().out
    assert "simple" in out
    assert "pass" in out
    assert "skip" in out


def test_selftest_gcn3(capsys):
    assert main(["selftest", "--isa", "GCN3_X86", "--version", "21.0"]) == 0
    out = capsys.readouterr().out
    assert "square" in out


def test_boot_tests_quick(capsys):
    assert main(["boot-tests", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Fig 8" in out
    assert "legend:" in out
    assert "unsupported" in out


def test_parsec_subset(capsys):
    assert main(["parsec", "--apps", "swaptions"]) == 0
    out = capsys.readouterr().out
    assert "Fig 6" in out
    assert "swaptions" in out
    assert "Fig 7 mean speedup" in out


def test_parsec_rejects_unknown_app(capsys):
    assert main(["parsec", "--apps", "doom"]) == 2
    assert "doom" in capsys.readouterr().out


def test_gpu_command(capsys):
    assert main(["gpu"]) == 0
    out = capsys.readouterr().out
    assert "Fig 9" in out
    assert "FAMutex" in out
    assert "mean relative time" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_rate_command(capsys):
    assert main(["rate", "--benchmarks", "exchange2_r", "mcf_r"]) == 0
    out = capsys.readouterr().out
    assert "SPECrate scaling" in out
    assert "exchange2_r" in out
    assert "x" in out


def test_rate_rejects_unknown_benchmark(capsys):
    assert main(["rate", "--benchmarks", "doom_r"]) == 2


def test_report_command(tmp_path, capsys):
    from repro.art import (ArtifactDB, Experiment, export_archive,
                           register_disk_image, register_gem5_binary,
                           register_kernel_binary, register_repo)
    from repro.guest import get_kernel
    from repro.resources import build_resource
    from repro.sim import Gem5Build

    db = ArtifactDB()
    repo = register_repo(db, "gem5")
    experiment = Experiment(db, "cli-study")
    experiment.add_stack(
        "ubuntu-18.04",
        gem5=register_gem5_binary(db, Gem5Build(), inputs=[repo]),
        gem5_git=repo,
        run_script_git=repo,
        linux_binary=register_kernel_binary(db, get_kernel("4.15.18")),
        disk_image=register_disk_image(db, build_resource("parsec").image),
    )
    experiment.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    experiment.sweep(benchmark=["swaptions"], num_cpus=[1])
    experiment.launch(backend="inline")
    archive = str(tmp_path / "archive")
    export_archive(db, archive)
    capsys.readouterr()  # discard setup output

    assert main(["report", archive]) == 0
    out = capsys.readouterr().out
    assert "Reproducibility report: cli-study" in out
    assert "| ok | 1 |" in out


def test_report_command_bad_archive(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().out


def _interrupted_experiment(uri):
    """Create a 2-run experiment on a file DB with only 1 run finished."""
    from repro.art import ArtifactDB
    from repro.db import connect
    from tests.art.test_launch_share import make_experiment

    db = ArtifactDB(connect(uri))
    experiment = make_experiment(db)
    runs = experiment.create_runs()
    runs[0].run()
    db.database.save()
    return experiment, runs


def test_resume_command_finishes_interrupted_experiment(tmp_path, capsys):
    uri = f"file://{tmp_path}/expdb"
    _interrupted_experiment(uri)
    capsys.readouterr()  # discard setup output

    assert main(["resume", "parsec-mini", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "resuming 'parsec-mini': 1 of 2 runs pending" in out
    assert "up to date" in out

    # The resumed state was persisted: a second invocation has no work.
    assert main(["resume", "parsec-mini", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "nothing to resume: all 2 runs" in out


def test_resume_command_backend_and_workers_flags(tmp_path, capsys):
    uri = f"file://{tmp_path}/expdb"
    _interrupted_experiment(uri)
    capsys.readouterr()

    assert (
        main(
            [
                "resume",
                "parsec-mini",
                "--db",
                uri,
                "--backend",
                "scheduler",
                "--workers",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "scheduler backend, 2 workers" in out


def test_resume_command_rejects_pool_backend(tmp_path):
    uri = f"file://{tmp_path}/expdb"
    with pytest.raises(SystemExit):
        main(["resume", "parsec-mini", "--db", uri, "--backend", "pool"])


def test_resume_command_unknown_experiment(tmp_path, capsys):
    uri = f"file://{tmp_path}/emptydb"
    assert main(["resume", "ghost", "--db", uri]) == 1
    assert "error:" in capsys.readouterr().out


def test_boot_tests_telemetry_then_trace(tmp_path, capsys):
    import json

    uri = f"file://{tmp_path}/tracedb"
    assert main(["boot-tests", "--quick", "--telemetry", "--db", uri]) == 0
    capsys.readouterr()  # discard launch output

    chrome_path = tmp_path / "trace.json"
    assert (
        main(
            [
                "trace",
                "boot-tests",
                "--db",
                uri,
                "--chrome",
                str(chrome_path),
                "--prometheus",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    # (a) the per-run timing table
    assert "Run" in out and "Wall ms" in out
    assert "experiment wall time" in out
    # (c) Prometheus metrics including runs_total by outcome
    assert "# TYPE runs_total counter" in out
    assert 'runs_total{outcome="done"}' in out
    # (b) valid Chrome-trace JSON with the nested span hierarchy
    trace = json.loads(chrome_path.read_text())
    names = {
        e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"
    }
    assert {"experiment", "run", "phase.boot"} <= names


def test_trace_unknown_experiment(tmp_path, capsys):
    uri = f"file://{tmp_path}/emptydb"
    assert main(["trace", "nothing-here", "--db", uri]) == 1
    assert "error:" in capsys.readouterr().out


# ------------------------------------------------------------- db verbs


def _seed_db(tmp_path, docs=5):
    from repro.db import connect

    uri = f"file://{tmp_path}/store"
    db = connect(uri)
    for i in range(docs):
        db["runs"].insert_one({"_id": f"r{i}", "n": i})
    db.save()
    db.close()
    return uri


def test_db_stats(tmp_path, capsys):
    uri = _seed_db(tmp_path)
    assert main(["db", "stats", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "STORAGE ENGINE" in out
    assert "runs" in out
    assert "filestore:" in out


def test_db_compact(tmp_path, capsys):
    from repro.db import Database

    root = str(tmp_path / "store")
    db = Database(
        "test", root=root,
        engine_options={"auto_compact": False, "seal_bytes": 128},
    )
    for i in range(40):
        db["runs"].insert_one({"_id": f"r{i}", "pad": "x" * 24})
    db.close()
    assert main(["db", "compact", "--db", f"file://{root}"]) == 0
    out = capsys.readouterr().out
    assert "merged" in out
    # A second pass finds a single segment per collection: nothing to do.
    assert main(["db", "compact", "--db", f"file://{root}"]) == 0
    assert "nothing to compact" in capsys.readouterr().out


def test_db_scrub_clean_store(tmp_path, capsys):
    uri = _seed_db(tmp_path)
    from repro.db import connect

    db = connect(uri)
    db.files.put_bytes(b"artifact payload")
    db.close()
    assert main(["db", "scrub", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "scanned      1" in out
    assert "quarantined  0" in out


def test_db_scrub_flags_corruption(tmp_path, capsys):
    uri = _seed_db(tmp_path)
    from repro.db import connect

    db = connect(uri)
    digest = db.files.put_bytes(b"good bytes")
    db.close()
    blob = tmp_path / "store" / "files" / digest[:2] / digest
    blob.write_bytes(b"rotted")
    assert main(["db", "scrub", "--db", uri]) == 1
    out = capsys.readouterr().out
    assert f"quarantined {digest}" in out


def test_db_recover(tmp_path, capsys):
    uri = _seed_db(tmp_path)
    assert main(["db", "recover", "--db", uri]) == 0
    out = capsys.readouterr().out
    assert "CRASH RECOVERY" in out
    assert "runs" in out


def test_db_recover_empty(tmp_path, capsys):
    assert main(["db", "recover", "--db", f"file://{tmp_path}/fresh"]) == 0
    assert "no persisted collections" in capsys.readouterr().out


def test_db_bad_uri(capsys):
    assert main(["db", "stats", "--db", "bogus://nope"]) == 1
    assert "error:" in capsys.readouterr().out
