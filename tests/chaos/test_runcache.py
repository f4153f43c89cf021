"""Chaos tests for the result cache: corruption and read faults must
degrade to re-execution, never to wrong results or crashes."""

import pytest

from repro import chaos, telemetry
from repro.art import ArtifactDB, Gem5Run, RunCache
from repro.chaos import FaultRule

from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401


@pytest.fixture
def db():
    return ArtifactDB()


def count_simulations(monkeypatch):
    executed = []
    original = Gem5Run._simulate

    def recording(self, *args):
        executed.append(self.run_id)
        return original(self, *args)

    monkeypatch.setattr(Gem5Run, "_simulate", recording)
    return executed


def test_corrupt_cached_blob_falls_back_to_execution(db, fs_artifacts,
                                                     monkeypatch):
    first = make_run(db, fs_artifacts)
    first.run()
    stats_id = db.get_run(first.run_id)["results"]["stats_file_id"]
    # Bit-rot the archived stats blob behind the store's back.
    db.database.files._memory[stats_id] = b"tampered bytes"

    executed = count_simulations(monkeypatch)
    second = make_run(db, fs_artifacts)
    with telemetry.session() as session:
        summary = second.run()

    # The poisoned entry was NOT adopted: the run simulated again.
    assert executed == [second.run_id]
    assert summary["success"]
    corrupt_events = session.events.records(kind="runcache.corrupt")
    assert len(corrupt_events) == 1
    assert corrupt_events[0]["attributes"]["fingerprint"] == (
        second.fingerprint
    )
    corrupt = session.metrics.counter("runcache_corrupt_total")
    assert corrupt.value() == 1
    # Eviction plus re-execution leaves a *healthy* entry behind: the
    # re-run re-archived pristine bytes under the same content address.
    entry = RunCache(db).lookup(second.fingerprint)
    assert entry is not None
    assert entry["run_id"] == second.run_id
    third = make_run(db, fs_artifacts)
    assert third.run()["success"]
    assert executed == [second.run_id]  # third adopted from cache


def test_cache_read_fault_degrades_to_miss(db, fs_artifacts, monkeypatch):
    make_run(db, fs_artifacts).run()
    executed = count_simulations(monkeypatch)
    second = make_run(db, fs_artifacts)
    rules = [FaultRule("runcache.get", error="cache store unreachable")]
    with telemetry.session() as session:
        with chaos.injected(seed=29, rules=rules):
            summary = second.run()
    # The cache being unreachable costs a simulation, nothing more.
    assert executed == [second.run_id]
    assert summary["success"]
    misses = session.metrics.counter("runcache_misses_total")
    assert misses.value(reason="read-fault") == 1


def test_missing_blob_degrades_to_miss(db, fs_artifacts, monkeypatch):
    first = make_run(db, fs_artifacts)
    first.run()
    stats_id = db.get_run(first.run_id)["results"]["stats_file_id"]
    del db.database.files._memory[stats_id]

    executed = count_simulations(monkeypatch)
    second = make_run(db, fs_artifacts)
    with telemetry.session() as session:
        summary = second.run()
    assert executed == [second.run_id]
    assert summary["success"]
    misses = session.metrics.counter("runcache_misses_total")
    assert misses.value(reason="blob-missing") == 1
