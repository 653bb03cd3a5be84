"""Op accounting, host-speed calibration, latency statistics and the
environment record."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def tail_percentile(samples: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it, if any."""
    for q in TAIL_PERCENTILES:
        if samples * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ------------------------------------------------------------- host speed
#
# The reference machine is two vCPUs of a shared host whose speed moves
# between states about 1.4x apart that last for seconds: a fixed kernel in a
# single process runs in 3.5 ms for a while, then in 5 ms, with no other load
# in the container. Raw op times follow these states, so medians of whole
# runs spread by up to a third from run to run. Every timed op is therefore
# bracketed by samples of a fixed calibration kernel, and its time is
# reported scaled to the reference host: raw seconds / (mean slowness of the
# samples just before and just after the op), where a sample's slowness is
# the kernel's time over its time on the reference host. The raw times are
# kept alongside.
#
# Interpreter-bound work slows down in the slow state by more than work
# bound by memory or by large BLAS calls, so there are two kernels and each
# workload uses the one its own op times follow: "compute" is an interpreter
# loop and small matmuls, "mixed" is half that plus a sum and a scaling of an
# 8 MB array.

# kernel -> (compute parts, memory parts, seconds on the reference host)
CAL_KERNELS = {
    "compute": (2, 0, 0.0018),
    "mixed": (1, 1, 0.0026),
}
CAL_REPS = 3
HOST_SPAN = "bench.host_speed"  # the traced run's span around a calibration sample
_cal_arrays = None


def host_speed_sample(kernel: str) -> float:
    """Slowness of the host now: the median time of CAL_REPS runs of a
    calibration kernel (2-3 ms each) over its time on the reference host."""
    global _cal_arrays
    import numpy as np

    compute_parts, memory_parts, reference_s = CAL_KERNELS[kernel]

    def run(small, big):
        for _ in range(compute_parts):
            total = 0
            for i in range(10_000):
                total += i
            for _ in range(50):
                small @ small
        for _ in range(memory_parts):
            big.sum()
            big * 2.0

    if _cal_arrays is None:
        rng = np.random.default_rng(0)
        _cal_arrays = (rng.random((48, 48)), rng.random(1_000_000))
        run(*_cal_arrays)  # untimed: the first 8 MB result costs page faults
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        run(*_cal_arrays)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / reference_s


def host_scale(before: float, after: float) -> float:
    """Factor from raw seconds to reference-host seconds, given the host's
    slowness just before and just after the work."""
    return 2.0 / (before + after)


class Stats:
    """Counts attempted and failed ops and keeps the latency of every timed op.

    `with stats.op() as op:` times one op. An exception inside the block
    marks the op failed and is swallowed, so one bad op does not end the run;
    `op.ok` tells the caller whether to check the output. Warm-up ops count
    as attempted (and can fail) but their latency is not kept.

    With `calibrate` (a function returning the host's slowness, see
    `host_speed_sample`), every timed op is preceded by a calibration
    sample, untimed, and `finish()` takes one after the last op; `scaled`
    and `rates` are then in reference-host seconds. Without it they equal
    the raw figures.
    """

    def __init__(self, tracer=None, clock=time.perf_counter, calibrate=None):
        self.tracer = tracer
        self.clock = clock
        self.calibrate = calibrate
        self.latencies: list[float] = []
        self.host: list[float] = []  # host slowness before each timed op, then after the last
        self.host_seconds = 0.0  # clock time spent in calibration samples
        self.work: list[tuple[int, float, int, int]] = []  # (voxels, raw seconds, first op, end op)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.warmup = True
        self._warmup_ops = 0

    def op(self) -> "_Op":
        return _Op(self)

    def fail(self, reason: str) -> None:
        """Count a failed output check against the op just run."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(reason)

    def fail_since(self, attempted_before: int, failed_before: int, reason: str) -> None:
        """Fail every op attempted since the two counts were read that has not
        failed yet: a unit of work made of several ops (a sliding-window
        pass) fails all of its ops. A unit that failed before its first op
        counts as one failed op, so the failure cannot go unseen."""
        if self.attempted == attempted_before:
            self.attempted += 1
        for _ in range((self.attempted - attempted_before) - (self.failed - failed_before)):
            self.fail(reason)

    def check(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(reason)
        return ok

    def add_work(self, voxels: int, seconds: float, ops: int = 1) -> None:
        """Record one unit of work whose output passed its check: `voxels`
        processed in `seconds` (calibration time excluded) by the last `ops`
        timed ops."""
        if voxels:
            self.work.append((voxels, seconds, len(self.latencies) - ops, len(self.latencies)))

    def sample_host(self) -> None:
        if self.calibrate is None:
            return
        t0 = self.clock()
        if self.tracer:
            idx = self.tracer.begin(HOST_SPAN)
        self.host.append(self.calibrate())
        if self.tracer:
            self.tracer.end(idx)
        self.host_seconds += self.clock() - t0

    def finish(self) -> None:
        """Take the calibration sample after the last timed op."""
        self.sample_host()

    def scales(self) -> list[float]:
        """Per timed op, the factor from raw to reference-host seconds."""
        h = self.host
        if not h:
            return [1.0] * len(self.latencies)
        return [host_scale(h[i], h[min(i + 1, len(h) - 1)]) for i in range(len(self.latencies))]

    @property
    def scaled(self) -> list[float]:
        """Op latencies in reference-host seconds."""
        return [t * k for t, k in zip(self.latencies, self.scales())]

    @property
    def rates(self) -> list[float]:
        """Voxels per reference-host second of each unit of work that passed."""
        k = self.scales()
        return [v / (t * statistics.fmean(k[a:b])) for v, t, a, b in self.work]

    def next_op_id(self) -> int:
        if self.warmup:
            self._warmup_ops += 1
            return -self._warmup_ops
        return len(self.latencies)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class _Op:
    def __init__(self, stats: Stats):
        self.stats = stats
        self.ok = False
        self.seconds = 0.0

    def __enter__(self):
        s = self.stats
        if not s.warmup:
            s.sample_host()
        s.attempted += 1
        self._span = s.tracer.begin_op(s.next_op_id()) if s.tracer else None
        self._t0 = s.clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        s = self.stats
        self.seconds = s.clock() - self._t0
        if self._span is not None:
            s.tracer.end_op(self._span)
        if exc is not None and not isinstance(exc, Exception):
            return False
        self.ok = exc is None
        if not s.warmup:
            s.latencies.append(self.seconds)
        if not self.ok:
            s.fail(f"{type(exc).__name__}: {exc}")
        return True


# ------------------------------------------------------------- environment


def openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_info() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": openblas_threads()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    return info


def git_commit(root: Path = ROOT) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path = ROOT) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def environment(seed: int, input_id: int) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
        "input_set": input_id,
        "src_lines": src_lines(),
    }
