"""Run payloads, the one function that simulates them, and its transports.

A :class:`~repro.art.run.Gem5Run` holds a live database handle, so the
run object itself can never cross a process boundary.  What *can* cross
is everything the simulation actually consumes — and the content-addressed
:class:`~repro.art.spec.RunSpec` already enumerates exactly that:
the input artifacts and the canonicalized parameters.  This module builds
a self-contained **payload** from those inputs in the parent (where the
database lives) and simulates it with one function,
:func:`execute_run_payload` (:func:`execute_boot_payload` for boot-stage
jobs), which never sees a database and returns plain data.

Division of labor:

- parent (:func:`payload_for_run`): resolve artifact payloads/metadata
  and re-check a boot checkpoint's compatibility; the run lifecycle
  (:meth:`Gem5Run.run <repro.art.run.Gem5Run.run>`) keeps the cache,
  the status transitions and every database write;
- simulate (:func:`execute_run_payload`): build the simulator from the
  payload, simulate, and return ``{"summary", "stats_txt",
  "stats_fingerprint"}``.

A **transport** carries the payload from one to the other.
:class:`InlineTransport` calls the simulate function in this process on
the decoded inputs (the disk image and checkpoint objects themselves);
:class:`PoolTransport` serializes the payload into a
:class:`~repro.scheduler.procpool.JobEnvelope` (:func:`envelope_for_run`)
and a worker process calls the same function by dotted path.  Both
return the same summary keys; only ``host_seconds`` and ``worker``
depend on the transport.

Payloads carry an optional ``repeats`` count that re-runs the
(deterministic) simulation and asserts bit-identical statistics each
time — work amplification for benchmarking that doubles as a
determinism check.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

from repro import telemetry
from repro.common.errors import StateError, ValidationError
from repro.common.hashing import sha256_text
from repro.art.artifact import Artifact, load_disk_image
from repro.gpu.config import GPUConfig
from repro.gpu.device import GPUDevice
from repro.gpu.workloads import get_gpu_workload
from repro.scheduler.procpool import JobEnvelope, intern_ref
from repro.sim.buildinfo import Gem5Build
from repro.sim.checkpoint import Checkpoint
from repro.sim.config import SystemConfig
from repro.sim.simulator import Gem5Simulator, SimulationStatus
from repro.vfs.image import DiskImage

#: The dotted-path target every run envelope resolves to in the worker.
RUN_TARGET = "repro.art.procjobs:execute_run_payload"

#: The dotted-path target for a boot-stage checkpoint job.
BOOT_TARGET = "repro.art.procjobs:execute_boot_payload"

#: Payload schema version (payloads cross process boundaries, not
#: release boundaries, but a version makes mismatches loud).
PAYLOAD_VERSION = 1


# ------------------------------------------------------------- payloads


def _resolve_fs_inputs(run) -> Dict[str, Any]:
    """Resolve an fs run's simulator build, kernel version and image."""
    gem5 = Artifact.load(run.db, run.artifacts["gem5"])
    kernel = Artifact.load(run.db, run.artifacts["linux_binary"])
    disk = Artifact.load(run.db, run.artifacts["disk_image"])
    return {
        "build": {
            "version": gem5.metadata.get("version", "20.1.0.4"),
            "isa": gem5.metadata.get("isa", "X86"),
            "variant": gem5.metadata.get("variant", "opt"),
        },
        "kernel_version": kernel.metadata["kernel_version"],
        "disk_image": load_disk_image(disk),
    }


def _compatible(
    run, checkpoint: Optional[Checkpoint], inputs: Dict[str, Any]
) -> Optional[Checkpoint]:
    """The checkpoint if this run may restore it, else None.

    The store's ``get`` already degrades on missing/corrupt entries;
    this re-verifies restore compatibility against the run's own
    inputs and treats a mismatch as a miss (full boot) rather than a
    failure — a stale or hand-edited store must never wedge a sweep,
    on either transport.
    """
    if checkpoint is None:
        return None
    try:
        checkpoint.check_compatible(
            kernel_version=inputs["kernel_version"],
            disk_image_hash=inputs["disk_image"].content_hash(),
            num_cpus=run.params["num_cpus"],
            memory_system=run.params["memory_system"],
        )
    except ValidationError as error:
        telemetry.get_event_log().emit(
            "checkpoint.incompatible",
            run_id=run.run_id,
            prefix=run.prefix,
            error=str(error),
        )
        return None
    return checkpoint


def payload_for_run(
    run,
    repeats: int = 1,
    restore_from: Optional[Checkpoint] = None,
) -> Dict[str, Any]:
    """Build the self-contained payload for one run.

    Resolves every artifact reference *now*, in the parent — the
    simulate function never sees the database.  The disk image and
    checkpoint stay decoded objects; only :func:`envelope_for_run`
    serializes them.  ``repeats`` re-runs the simulation that many
    times, asserting identical stats each time.  ``restore_from`` makes
    the simulation restore a boot checkpoint instead of booting, once it
    passes the compatibility re-check here: an incompatible checkpoint
    is dropped with a ``checkpoint.incompatible`` event, so it never
    reaches a simulator and the run boots in full.
    """
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    payload: Dict[str, Any] = {
        "version": PAYLOAD_VERSION,
        "kind": run.kind,
        "run_id": run.run_id,
        "fingerprint": run.fingerprint,
        "params": dict(run.params),
        "repeats": repeats,
    }
    if run.kind == "fs":
        payload.update(_resolve_fs_inputs(run))
        restore = _compatible(run, restore_from, payload)
        if restore is not None:
            payload["restore_from"] = restore
    elif run.kind == "gpu":
        if restore_from is not None:
            raise ValidationError("only fs runs restore boot checkpoints")
        # params alone describe a GPU run (workload is a catalog key)
    else:
        raise ValidationError(f"unknown run kind {run.kind!r}")
    return payload


def boot_payload_for_run(
    run, boot_cpu: str = "kvm"
) -> Dict[str, Any]:
    """Build the boot-stage payload for one prefix's checkpoint job.

    ``run`` is any representative of the prefix cohort: the payload
    carries only the boot-determining subset (kernel, disk image,
    platform shape, boot type) plus ``boot_cpu`` — the cheap CPU model
    the boot executes under (kvm by default, which the fault model
    supports on every platform shape).
    """
    if run.kind != "fs":
        raise ValidationError("only fs runs have a boot stage")
    params = run.params
    return {
        "version": PAYLOAD_VERSION,
        "kind": "fs",
        "run_id": run.run_id,
        "prefix": run.prefix,
        **_resolve_fs_inputs(run),
        "params": {
            "cpu_type": boot_cpu,
            "num_cpus": params["num_cpus"],
            "memory_system": params["memory_system"],
            "memory_tech": params["memory_tech"],
            "memory_channels": params["memory_channels"],
            "boot_type": params.get("boot_type", "systemd"),
        },
    }


# ------------------------------------------------------------ envelopes


def _envelope(
    run,
    target: str,
    payload: Dict[str, Any],
    task_id: str,
    fingerprint: str,
    with_telemetry: Optional[bool],
    intern: bool,
) -> JobEnvelope:
    """Serialize a decoded payload into a process-pool envelope.

    With ``intern``, the bulk values ship through the pool's
    content-hash intern cache: the disk image tree dominates an fs
    payload's pickled size and is identical across a sweep, the
    checkpoint document repeats across every variant of a prefix, and
    both are content-hashed already, which is what makes the intern key
    free.
    """
    telemetry_on = (
        telemetry.enabled() if with_telemetry is None else with_telemetry
    )
    payload = dict(payload)
    shared: Dict[str, Any] = {}
    if "disk_image" in payload:
        payload["disk_image"] = payload["disk_image"].to_dict()
        if intern:
            disk = Artifact.load(run.db, run.artifacts["disk_image"])
            shared[disk.hash] = payload["disk_image"]
            payload["disk_image"] = intern_ref(disk.hash)
    restore = payload.get("restore_from")
    if restore is not None:
        payload["restore_from"] = restore.to_dict()
        if intern:
            shared[restore.checkpoint_id] = payload["restore_from"]
            payload["restore_from"] = intern_ref(restore.checkpoint_id)
    return JobEnvelope(
        target=target,
        args=(payload,),
        task_id=task_id,
        fingerprint=fingerprint,
        telemetry=telemetry_on,
        shared=shared,
    )


def envelope_for_run(
    run,
    repeats: int = 1,
    with_telemetry: Optional[bool] = None,
    restore_from: Optional[Checkpoint] = None,
    intern: bool = True,
) -> JobEnvelope:
    """Wrap a run's payload in a process-pool envelope.

    The envelope's ``task_id`` is the run's instance id and its
    ``fingerprint`` the run's content identity, so pool telemetry and
    lease events correlate with run documents without a join table.
    When ``with_telemetry`` is unset, the worker records telemetry
    exactly when the parent currently does.  ``intern`` (default on)
    ships the bulk payload values — disk image tree, checkpoint
    document — through the pool's content-hash intern cache, so each
    worker receives them at most once across the whole sweep.
    """
    payload = payload_for_run(
        run, repeats=repeats, restore_from=restore_from
    )
    return _envelope(
        run,
        RUN_TARGET,
        payload,
        run.run_id,
        run.fingerprint,
        with_telemetry,
        intern,
    )


def envelope_for_boot(
    run,
    boot_cpu: str = "kvm",
    with_telemetry: Optional[bool] = None,
    intern: bool = True,
) -> JobEnvelope:
    """Wrap a prefix cohort's boot job in a process-pool envelope."""
    return _envelope(
        run,
        BOOT_TARGET,
        boot_payload_for_run(run, boot_cpu=boot_cpu),
        f"boot-{run.prefix}",
        run.prefix or "",
        with_telemetry,
        intern,
    )


# ------------------------------------------------------------- simulate


def _decoded(value, cls):
    """A payload value as an object: the inline transport hands over
    the object itself, a worker receives its ``to_dict`` form."""
    if value is None or isinstance(value, cls):
        return value
    return cls.from_dict(value)


def _fs_simulator(payload: Dict[str, Any]) -> Gem5Simulator:
    """Build the simulator a payload describes (once per payload)."""
    params = payload["params"]
    config = SystemConfig(
        cpu_type=params["cpu_type"],
        num_cpus=params["num_cpus"],
        memory_system=params["memory_system"],
        memory_tech=params["memory_tech"],
        memory_channels=params["memory_channels"],
    )
    return Gem5Simulator(Gem5Build(**payload["build"]), config)


def _fs_simulation(payload: Dict[str, Any]):
    """Return the simulate step of an fs payload.

    The image decode (and its memoized content hash), the checkpoint
    rebuild and the simulator construction happen here, once, not per
    repeat: they are identical for every repeat of a deterministic
    simulation.
    """
    params = payload["params"]
    image = _decoded(payload["disk_image"], DiskImage)
    restore = _decoded(payload.get("restore_from"), Checkpoint)
    simulator = _fs_simulator(payload)

    def simulate():
        result = simulator.run_fs(
            kernel=payload["kernel_version"],
            disk_image=image,
            benchmark=params.get("benchmark"),
            input_size=params.get("input_size"),
            boot_type=params.get("boot_type", "systemd"),
            restore_from=restore,
        )
        summary = {
            "simulation_status": result.status.value,
            "reason": result.reason,
            "sim_seconds": result.sim_seconds,
            "boot_seconds": result.boot_seconds,
            "workload_seconds": result.workload_seconds,
            "instructions": result.instructions,
            "config": result.config_summary,
            "workload": result.workload_name,
            "restored_boot": restore is not None,
            "success": result.status is SimulationStatus.OK,
        }
        return summary, result

    return simulate


def _gpu_simulation(payload: Dict[str, Any]):
    """Return the simulate step of a gpu payload."""
    params = payload["params"]
    workload = get_gpu_workload(params["workload"])

    def simulate():
        device = GPUDevice(GPUConfig(**dict(params["gpu_config"])))
        result = device.execute(
            workload.kernel, params["register_allocator"]
        )
        summary = {
            "simulation_status": "ok",
            "workload": workload.name,
            "suite": workload.suite,
            "register_allocator": result.allocator,
            "shader_ticks": result.shader_ticks,
            "occupancy_per_simd": result.occupancy_per_simd,
            "success": True,
        }
        return summary, result

    return simulate


def execute_run_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate a payload and return plain data: the one simulate step.

    Every run executes here — called in-process by
    :class:`InlineTransport`, or imported by dotted path inside a
    worker process for :class:`PoolTransport`.  Runs the simulation
    ``payload["repeats"]`` times and fails loudly if any repeat produces
    different statistics — a deterministic simulator is part of the
    reproducibility contract.
    """
    kind = payload.get("kind")
    if kind == "fs":
        simulate = _fs_simulation(payload)
    elif kind == "gpu":
        simulate = _gpu_simulation(payload)
    else:
        raise ValidationError(f"unknown payload kind {kind!r}")
    repeats = int(payload.get("repeats", 1))
    summary, result = simulate()
    stats_txt = result.stats_txt()
    # Repeats compare raw stats dicts — equivalent to comparing the
    # rendered text (stats_txt derives from stats deterministically)
    # without paying serialization+hash per repeat.
    for _ in range(repeats - 1):
        _, again = simulate()
        if again.stats != result.stats:
            raise StateError(
                f"non-deterministic simulation: run {payload['run_id']} "
                "produced different stats on repeat"
            )
    return {
        "summary": summary,
        "stats_txt": stats_txt,
        "stats_fingerprint": sha256_text(stats_txt),
        "repeats": repeats,
    }


def execute_boot_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Boot once and return the checkpoint: the boot-stage simulate step.

    Returns ``{"checkpoint": Checkpoint-or-None, "summary": {...}}``; a
    boot that fails the fault model yields no checkpoint and the cohort
    degrades to full boots — degradation, never escalation.
    """
    params = payload["params"]
    checkpoint, result = _fs_simulator(payload).take_boot_checkpoint(
        kernel=payload["kernel_version"],
        disk_image=_decoded(payload["disk_image"], DiskImage),
        boot_type=params.get("boot_type", "systemd"),
    )
    return {
        "prefix": payload.get("prefix"),
        "checkpoint": checkpoint,
        "summary": {
            "simulation_status": result.status.value,
            "reason": result.reason,
            "boot_seconds": result.boot_seconds,
            "instructions": result.instructions,
        },
    }


# ----------------------------------------------------------- transports


class InlineTransport:
    """Simulate in this process, on the decoded payload.

    ``host_seconds`` covers the simulate call alone — like the worker's
    clock for :class:`PoolTransport`, it excludes resolving the payload
    before and archiving the stats after.
    """

    worker = "inline"

    def run(
        self, run, restore_from: Optional[Checkpoint] = None
    ) -> Tuple[Dict[str, Any], float, str]:
        """Simulate ``run``; return ``(outcome, host_seconds, worker)``."""
        payload = payload_for_run(run, restore_from=restore_from)
        started = time.monotonic()
        outcome = execute_run_payload(payload)
        return outcome, time.monotonic() - started, self.worker

    def boot(self, run, boot_cpu: str = "kvm") -> Optional[Checkpoint]:
        """Take the boot checkpoint of ``run``'s prefix."""
        payload = boot_payload_for_run(run, boot_cpu=boot_cpu)
        return execute_boot_payload(payload)["checkpoint"]


class PoolTransport:
    """Ship the payload to a :class:`~repro.scheduler.ProcessPool`
    worker in an envelope; ``repeats`` amplifies each run job."""

    def __init__(self, pool, repeats: int = 1):
        self.pool = pool
        self.repeats = repeats

    def run(
        self, run, restore_from: Optional[Checkpoint] = None
    ) -> Tuple[Dict[str, Any], float, str]:
        """Simulate ``run``; return ``(outcome, host_seconds, worker)``."""
        handle = self.pool.submit(
            envelope_for_run(
                run, repeats=self.repeats, restore_from=restore_from
            )
        )
        outcome = handle.result()
        return outcome, handle.host_seconds, handle.worker

    def boot(self, run, boot_cpu: str = "kvm") -> Optional[Checkpoint]:
        """Take the boot checkpoint of ``run``'s prefix."""
        handle = self.pool.submit(envelope_for_boot(run, boot_cpu=boot_cpu))
        return handle.result()["checkpoint"]
