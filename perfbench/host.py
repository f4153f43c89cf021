"""Host facts and process memory, read without starting any process."""

from __future__ import annotations

import glob
import os
import platform
import resource
import threading
from typing import Dict, List


def git_commit(root: str) -> str:
    """The checkout's commit from ``.git`` files, or ``unknown``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(
    root: str, cores: int, seed: int, durability: str
) -> Dict[str, object]:
    return {
        "effective_cores": cores,
        "python": platform.python_version(),
        "db_durability": durability,
        "seed": seed,
        "git_commit": git_commit(root),
    }


def self_peak_mb() -> float:
    """Peak RSS of this process so far (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _child_pids() -> List[int]:
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def _peak_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ChildPeakRss:
    """Samples the peak RSS of every child process while it runs.

    A child's ``VmHWM`` only grows, so the last sample before it exits is
    its peak to within one interval.  Used as a context manager around a
    launch that spawns worker processes.
    """

    INTERVAL = 0.05

    def __init__(self):
        self._peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-rss", daemon=True
        )

    def _sample(self) -> None:
        for pid in _child_pids():
            self._peaks[pid] = max(self._peaks.get(pid, 0), _peak_kib(pid))

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self._sample()

    def __enter__(self) -> "ChildPeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def total_mb(self) -> float:
        return sum(self._peaks.values()) / 1024
