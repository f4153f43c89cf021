"""Run objects — the paper's Fig 4.

A "gem5art run" is a special artifact that stores all the information about
one simulation (a single data point): references to the input artifacts
(gem5 binary, its repository, the run script, the kernel, the disk image),
the parameters handed to the run script, and — once executed — a pointer
to the results plus a summary (status, execution time).

This reproduction's run objects are *executable*: ``run()`` resolves the
referenced artifacts' payloads and metadata into a self-contained payload,
simulates it with :func:`repro.art.procjobs.execute_run_payload` — in this
process, or in a worker process through ``run_in_pool()`` — and archives
everything in the database.

Run identity is two-layered.  The UUID (``run_id``) is the *instance* id:
it names one attempt, one document, one row in an experiment.  The
:class:`~repro.art.spec.RunSpec` **fingerprint** is the *identity* key:
a SHA-256 over the content hashes of every input artifact plus the
canonicalized parameters and simulator build.  Every run is constructed
from a spec, and ``run()`` consults the result cache
(:mod:`repro.art.cache`) by fingerprint before simulating — a hit adopts
the archived, hash-verified result at near-zero cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.errors import NotFoundError, ValidationError
from repro.common.ids import new_uuid
from repro.common.timeutil import iso_now
from repro import chaos, telemetry
from repro.art.artifact import Artifact
from repro.art.cache import RunCache
from repro.art.db import ArtifactDB
from repro.art.procjobs import InlineTransport, PoolTransport
from repro.art.spec import RunSpec
from repro.gpu.config import GPUConfig


class RunStatus(str, enum.Enum):
    """Lifecycle of a run document in the database."""

    CREATED = "created"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


@dataclass
class Gem5Run:
    """One experiment data point, executable and archivable."""

    run_id: str
    kind: str  # "fs" or "gpu"
    artifacts: Dict[str, str]
    params: Dict[str, object]
    timeout: float
    db: ArtifactDB = field(repr=False)
    status: RunStatus = RunStatus.CREATED
    results: Optional[Dict[str, object]] = None
    spec: Optional[RunSpec] = field(default=None, repr=False)
    fingerprint: str = ""

    # -------------------------------------------------------- constructors

    @classmethod
    def create_fs_run(
        cls,
        db: ArtifactDB,
        gem5_artifact: Artifact,
        gem5_git_artifact: Artifact,
        run_script_git_artifact: Artifact,
        linux_binary_artifact: Artifact,
        disk_image_artifact: Artifact,
        cpu_type: str = "timing",
        num_cpus: int = 1,
        memory_system: str = "classic",
        memory_tech: str = "DDR3_1600_8x8",
        memory_channels: int = 1,
        benchmark: Optional[str] = None,
        input_size: Optional[str] = None,
        boot_type: str = "systemd",
        timeout: float = 60 * 15,
    ) -> "Gem5Run":
        """Create a full-system run object (the paper's ``createFSRun``).

        All five artifacts of Fig 4 are required; the remaining keyword
        parameters are what the run script would receive.
        """
        artifact_objects = {
            "gem5": gem5_artifact,
            "gem5_git": gem5_git_artifact,
            "run_script_git": run_script_git_artifact,
            "linux_binary": linux_binary_artifact,
            "disk_image": disk_image_artifact,
        }
        params = {
            "cpu_type": cpu_type,
            "num_cpus": num_cpus,
            "memory_system": memory_system,
            "memory_tech": memory_tech,
            "memory_channels": memory_channels,
            "benchmark": benchmark,
            "input_size": input_size,
            "boot_type": boot_type,
        }
        spec = RunSpec.from_artifacts("fs", artifact_objects, params)
        return cls._create(db, artifact_objects, params, timeout, spec)

    #: camelCase alias matching the paper's Fig 4.
    createFSRun = create_fs_run

    @classmethod
    def create_gpu_run(
        cls,
        db: ArtifactDB,
        gem5_artifact: Artifact,
        gem5_git_artifact: Artifact,
        workload: str,
        register_allocator: str = "simple",
        gpu_config: Optional[GPUConfig] = None,
        timeout: float = 60 * 15,
    ) -> "Gem5Run":
        """Create a GPU (GCN3_X86) run for use-case 3."""
        build_meta = gem5_artifact.metadata
        if build_meta.get("isa") != "GCN3_X86":
            raise ValidationError(
                "GPU runs need a gem5 binary built for GCN3_X86 "
                f"(got {build_meta.get('isa')!r})"
            )
        artifact_objects = {
            "gem5": gem5_artifact,
            "gem5_git": gem5_git_artifact,
        }
        config = gpu_config or GPUConfig()
        params = {
            "workload": workload,
            "register_allocator": register_allocator,
            "gpu_config": {
                "num_cus": config.num_cus,
                "simds_per_cu": config.simds_per_cu,
                "max_wavefronts_per_simd": config.max_wavefronts_per_simd,
                "vector_registers_per_cu": config.vector_registers_per_cu,
                "lds_bytes_per_cu": config.lds_bytes_per_cu,
                "dependence_tracking_penalty": (
                    config.dependence_tracking_penalty
                ),
            },
        }
        spec = RunSpec.from_artifacts("gpu", artifact_objects, params)
        return cls._create(db, artifact_objects, params, timeout, spec)

    createGPURun = create_gpu_run

    @classmethod
    def _create(
        cls, db, artifact_objects, params, timeout, spec: RunSpec
    ) -> "Gem5Run":
        """Materialize a run *from its spec* plus the artifact instances
        that realize it; the fingerprint is persisted in the document so
        loads and cache consultations never re-derive it."""
        artifacts = {
            role: artifact.id
            for role, artifact in artifact_objects.items()
        }
        fingerprint = spec.fingerprint()
        run = cls(
            run_id=new_uuid(),
            kind=spec.kind,
            artifacts=artifacts,
            params=params,
            timeout=timeout,
            db=db,
            spec=spec,
            fingerprint=fingerprint,
        )
        db.put_run(
            {
                "_id": run.run_id,
                "kind": spec.kind,
                "artifacts": artifacts,
                "params": params,
                "timeout": timeout,
                "status": RunStatus.CREATED.value,
                "results": None,
                "fingerprint": fingerprint,
                "spec": spec.to_document(),
            }
        )
        return run

    @classmethod
    def load(cls, db: ArtifactDB, run_id: str) -> "Gem5Run":
        doc = db.get_run(run_id)
        spec = cls._spec_for_doc(db, doc)
        return cls(
            run_id=doc["_id"],
            kind=doc["kind"],
            artifacts=dict(doc["artifacts"]),
            params=dict(doc["params"]),
            timeout=doc["timeout"],
            db=db,
            status=RunStatus(doc["status"]),
            results=doc.get("results"),
            spec=spec,
            fingerprint=(
                doc.get("fingerprint")
                or (spec.fingerprint() if spec is not None else "")
            ),
        )

    @staticmethod
    def _spec_for_doc(
        db: ArtifactDB, doc: Dict[str, object]
    ) -> Optional[RunSpec]:
        """Rehydrate (or, for pre-spec documents, rebuild) the run's spec.

        Older run documents carry only artifact UUIDs; the spec is
        reconstructed from the referenced artifacts' content hashes.  A
        document whose artifacts are gone (a partial archive import)
        yields None — the run still loads, it just cannot be memoized.
        """
        spec_doc = doc.get("spec")
        if spec_doc:
            return RunSpec.from_document(spec_doc)
        try:
            artifact_objects = {
                role: Artifact.load(db, artifact_id)
                for role, artifact_id in doc["artifacts"].items()
            }
        except NotFoundError:
            return None
        return RunSpec.from_artifacts(
            doc["kind"], artifact_objects, doc["params"]
        )

    # ------------------------------------------------------------ identity

    @property
    def prefix(self) -> Optional[str]:
        """The boot-prefix fingerprint of this run's spec, or None.

        All runs sharing a prefix may legally restore one boot
        checkpoint (see :meth:`repro.art.spec.RunSpec.prefix_fingerprint`).
        """
        if self.spec is None:
            return None
        return self.spec.prefix_fingerprint()

    # ----------------------------------------------------------- execution

    def run(
        self,
        use_cache: bool = True,
        checkpoint_store=None,
    ) -> Dict[str, object]:
        """Execute the simulation in this process — or adopt its
        memoized result — and archive the outcome.

        Returns the results summary also stored in the database.  The
        gem5art timeout is enforced on ``host_seconds``: host wall-clock
        time of the simulate call alone, excluding artifact resolution
        before it and the stats upload after it — the same span a worker
        process reports for :meth:`run_in_pool`.

        With ``use_cache`` (the default) the run first consults the
        result cache by spec fingerprint: on a verified hit the archived
        results are adopted and **no simulation happens**; on a miss the
        run executes and, if it reaches ``DONE``, its outcome is stored
        for every future identical run.  ``use_cache=False`` forces a
        fresh execution and leaves the cache untouched.

        With ``checkpoint_store`` (a
        :class:`~repro.art.checkpoints.CheckpointStore`), an fs run
        consults the store by its prefix fingerprint and restores the
        archived boot instead of re-simulating it; a missing, corrupt
        or incompatible checkpoint degrades to a full boot.

        With telemetry enabled, the run is wrapped in a ``run`` span
        (parenting the simulator's phase spans) and its span subtree is
        archived in the database next to the stats blob, so the timeline
        can be rehydrated from the database alone.
        """
        return self._lifecycle(
            InlineTransport(), use_cache, checkpoint_store
        )

    def run_in_pool(
        self,
        pool,
        use_cache: bool = True,
        repeats: int = 1,
        checkpoint_store=None,
    ) -> Dict[str, object]:
        """Execute this run on a process-pool substrate.

        The same lifecycle as :meth:`run` — only the simulate step
        crosses into a worker process (see :mod:`repro.art.procjobs`),
        which re-runs it ``repeats`` times asserting identical stats.
        The cache consult, status transitions, stats-blob upload and
        cache store all happen here in the parent.
        """
        return self._lifecycle(
            PoolTransport(pool, repeats=repeats), use_cache, checkpoint_store
        )

    def _lifecycle(
        self, transport, use_cache: bool, checkpoint_store
    ) -> Dict[str, object]:
        """Run the one lifecycle every run takes, whatever the transport:
        cache consult, checkpoint consult, RUNNING, simulate, stats
        upload, DONE/TIMED_OUT/FAILED, cache store."""
        span = telemetry.get_tracer().span(
            "run",
            attributes={
                "run_id": self.run_id,
                "kind": self.kind,
                "fingerprint": self.fingerprint,
            },
        )
        cache = RunCache(self.db) if use_cache and self.fingerprint else None
        try:
            with span:
                entry = None
                if cache is not None:
                    entry = cache.consult(self.fingerprint)
                    span.set_attribute(
                        "cache", "miss" if entry is None else "hit"
                    )
                if entry is not None:
                    summary = self.adopt_cached(entry)
                else:
                    summary = self._simulate(transport, checkpoint_store)
                    if summary.get("restored_boot"):
                        span.set_attribute("boot", "restored")
                    if cache is not None and self.status is RunStatus.DONE:
                        cache.store(
                            self.fingerprint, self.db.get_run(self.run_id)
                        )
                span.set_attribute("status", self.status.value)
                span.set_attribute(
                    "workload", summary.get("workload", "")
                )
                span.set_attribute(
                    "host_seconds", summary.get("host_seconds", 0.0)
                )
        finally:
            span.set_attribute("status", self.status.value)
            telemetry.get_metrics().counter(
                "runs_total", "gem5art runs by final status"
            ).inc(outcome=self.status.value)
            self._archive_telemetry(span)
        return summary

    def _simulate(self, transport, checkpoint_store) -> Dict[str, object]:
        """Simulate through ``transport`` and archive the outcome.

        The checkpoint is fetched here, in the parent; its compatibility
        re-check runs while the payload is built
        (:func:`repro.art.procjobs.payload_for_run`), so a mismatch
        degrades to a full boot on every transport.
        """
        restore = (
            None
            if checkpoint_store is None
            else checkpoint_store.get(self.prefix)
        )
        self._set_status(
            RunStatus.RUNNING, extra={"started_at_wall": iso_now()}
        )
        try:
            outcome, host_seconds, worker = transport.run(self, restore)
            stats_file_id = self.db.upload_file(
                outcome["stats_txt"].encode("utf-8"),
                filename=f"stats-{self.run_id}.txt",
            )
        except Exception as error:
            self.results = {"error": str(error)}
            self._set_status(
                RunStatus.FAILED,
                self.results,
                extra={"finished_at_wall": iso_now()},
            )
            raise
        summary = dict(outcome["summary"])
        summary["stats_file_id"] = stats_file_id
        summary["stats_fingerprint"] = outcome["stats_fingerprint"]
        summary["host_seconds"] = host_seconds
        summary["worker"] = worker
        status = RunStatus.DONE
        if host_seconds > self.timeout:
            summary["timed_out"] = True
            status = RunStatus.TIMED_OUT
        self.results = summary
        self._set_status(
            status, summary, extra={"finished_at_wall": iso_now()}
        )
        return summary

    def adopt_cached(self, entry: Dict[str, object]) -> Dict[str, object]:
        """Take over an archived result: the run finishes without a
        single simulated tick, its document pointing at the same
        (hash-verified) stats blob the original execution produced."""
        results = dict(entry["results"])
        self.results = results
        self._set_status(
            RunStatus(entry["status"]),
            results,
            extra={
                "cache_hit": True,
                "cached_from": entry.get("run_id"),
                "finished_at_wall": iso_now(),
            },
        )
        return results

    def _archive_telemetry(self, span) -> None:
        """Store this run's span subtree as a blob next to its stats."""
        if not telemetry.enabled() or not span.span_id:
            return
        spans = telemetry.get_tracer().subtree(span.span_id)
        if not spans:
            return
        telemetry.archive_telemetry(
            self.db,
            self.run_id,
            telemetry.snapshot(spans=spans),
            kind="run",
        )

    # ------------------------------------------------------------ storage

    def _set_status(
        self, status: RunStatus, results=None, extra=None
    ) -> None:
        chaos.fire(
            "run.status", run_id=self.run_id, status=status.value
        )
        self.status = status
        update = {"$set": {"status": status.value}}
        if results is not None:
            update["$set"]["results"] = results
        if extra:
            update["$set"].update(extra)
        self.db.update_run(self.run_id, update)
        telemetry.get_event_log().emit(
            "run.status", run_id=self.run_id, status=status.value
        )
