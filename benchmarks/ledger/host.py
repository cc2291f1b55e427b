"""Host facts, the noise-guard calibration kernel and peak memory."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from spans import pct_more

REPO_ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"


def host_info() -> dict:
    """What a reader needs to place a number: cores, CPU, numpy, commit."""
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def llc_bytes() -> int:
    """Largest cache the kernel reports for cpu0 (0 if it reports none)."""
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
        best = max(best, int(text.rstrip("KMG")) * scale)
    return best


class HostClock:
    """The host's speed, sampled through a run with a fixed calibration kernel.

    Two jobs.  The guard the issue asks for: ``EDGE`` samples before the
    run and ``EDGE`` after it give ``host.calib_ms`` and
    ``host.calib_drift_pct``, and the all-workload form re-runs a run
    that drifted.  And the unit of the end-to-end times: this host's
    speed moves by 20-30% between stretches of several minutes, for every
    kind of code at once (numpy, BLAS and pure Python slow down together;
    CPU time tracks wall time; no steal is reported), so two sets of ten
    wall-clock runs differ by more than any bound.  The workloads
    therefore sample the kernel *between their timed units* and report
    times in calibrated seconds: wall seconds x ``speed_of(those
    samples)``.  On a host that runs the kernel in ``REFERENCE_MS`` a
    calibrated second is a wall second.  The factor applied and the
    wall-clock values are kept in every record.

    The kernel has the two ingredients of the MD hot path, a numpy gather /
    multiply / scatter-add over 400k pairs and a pure-Python loop, and
    calls nothing of ``repro``.  It does share the process, and so the
    caches, with the timed work: a sample is the fastest of ``BURST``
    back-to-back kernels, the first of which refills the cache, to keep
    the program's footprint out of the reading as far as one process can.
    """

    REFERENCE_MS = 3.0
    N_PAIRS = 400_000
    N_BINS = 16_000
    PY_ITERATIONS = 40_000
    BURST = 3
    EDGE = 5  # samples at each end of the run; drift compares the two ends

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._idx = rng.integers(0, self.N_BINS, self.N_PAIRS)
        self._w = rng.random(self.N_PAIRS)
        self._x = rng.random(self.N_BINS)
        self.before_ms = [self.sample() for _ in range(self.EDGE)]
        self.after_ms: list[float] = []

    def _kernel(self) -> None:
        np.bincount(
            self._idx, weights=self._w * self._x[self._idx], minlength=self.N_BINS
        )
        total = 0
        for i in range(self.PY_ITERATIONS):
            total += i

    def sample(self) -> float:
        """Milliseconds the kernel takes now: fastest of a short burst."""
        times = []
        for _ in range(self.BURST):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return min(times) * 1e3

    @classmethod
    def speed_of(cls, samples_ms: list[float]) -> float:
        """Host speed against the reference host (above 1 is faster)."""
        return cls.REFERENCE_MS / statistics.median(samples_ms)

    def finish(self) -> None:
        self.after_ms = [self.sample() for _ in range(self.EDGE)]

    @property
    def calib_ms(self) -> float:
        return statistics.median(self.before_ms + self.after_ms)

    @property
    def drift_pct(self) -> float:
        """How much slower (+) the host ended the run than it began it."""
        return pct_more(statistics.median(self.after_ms),
                        statistics.median(self.before_ms))


def peak_rss_mib() -> float:
    """High-water RSS of this process plus the largest waited-for child.

    Call after forked ranks / the server have been closed and waited
    for, or ``RUSAGE_CHILDREN`` does not include them yet.
    """
    own_kib = 0
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            own_kib = int(line.split()[1])
            break
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kib + child_kib) / 1024.0
