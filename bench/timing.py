"""Calibrated job timing, the closed-loop job runner and machine facts.

The machines this benchmark targets change speed between and within
processes (a fixed loop can take 1.6x as long for seconds at a time), so raw
wall time swings far more than any change worth detecting.  Each job is
therefore timed against a short fixed probe kernel:

    calibrated seconds = raw seconds * C_NOMINAL / c_adjacent,

where C_NOMINAL is a constant and c_adjacent is the probe's time around and
during the job: a calibration sample just before and just after the job,
plus a probe every PROBE_INTERVAL_S while it runs (from a SIGALRM handler;
the handler's time is taken off the job's raw time).  Sampling only the ends
left 12% per-job noise after calibration on the reference machine, because
the speed changes within jobs of several seconds; sampling during the job cut
that to 4%.  The probe mixes interpreter work with tiny complex NumPy
operations, like the library's quadrature loop.  A probe of elementwise
operations on a 150 x 150 array, like the closed-form disk blocks, tracked
``disk_sweep`` no better over three batches of five seeds, so one probe
serves every workload.  The probe does not call the library, so a change to
the program cannot change it.
"""

from __future__ import annotations

import cmath
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass

# Probe seconds that define the calibrated second: a job's calibrated time
# equals its raw time when the probe takes C_NOMINAL.  Close to the probe's
# time on a 2-core x86-64 VM (CPython 3.11, NumPy 2.4) at its faster speed.
C_NOMINAL = 0.0007
# the same for python_probe, which times the set-up before NumPy is loaded
C_NOMINAL_PYTHON = 0.00027
PROBE_INTERVAL_S = 0.03  # probe period while a job runs
SAMPLE_PROBES = 9  # probes in one calibration sample between jobs
STALL_FACTOR = 2.0  # probes slower than this times the median are stalls


def python_probe() -> float:
    """Seconds taken by a short pure-Python kernel (complex arithmetic)."""
    t0 = time.perf_counter()
    s = 0j
    for k in range(1200):
        s = s * 0.5 + cmath.exp(0.1j * k) / (k + 1.5)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds taken by a short fixed kernel: interpreter work mixed with tiny
    complex NumPy operations, one basis-like evaluation per step."""
    import numpy as np

    t0 = time.perf_counter()
    poles = np.linspace(-0.5, 0.5, 24) + 0.1j
    iu, ju = np.triu_indices(24)
    acc = 0j
    for i in range(60):
        z = np.asarray(1.7 * cmath.exp(0.003j * i), complex).reshape(-1)
        v = (1.0 / (z[None, :] - poles[:, None]))[:, 0]
        pair = v[iu] * np.conj(v[ju])
        acc += np.concatenate((pair, v))[i % 24]
        s = 0j
        for k in range(12):
            s = s * 0.5 + cmath.exp(0.1j * k) / (k + 1.5)
        acc += s
    return time.perf_counter() - t0


def calibration_sample(kernel=probe) -> float:
    """One calibration timing in seconds: the median of SAMPLE_PROBES probes."""
    return statistics.median(kernel() for _ in range(SAMPLE_PROBES))


class Sampler:
    """Runs a probe every PROBE_INTERVAL_S from a SIGALRM handler while a job runs.

    The handler runs between bytecodes of the job, so the probes see the
    machine's speed during the job, not only at its ends.  ``spent`` is the
    time the handler took, which the job's raw time must not include.
    """

    def __init__(self, kernel=probe):
        self.kernel = kernel

    def __enter__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - t0


def adjacent_speed(values) -> float:
    """Probe seconds for a job's window: the mean of the probes taken around
    and during the job, leaving out one-off stalls."""
    cap = STALL_FACTOR * statistics.median(values)
    return statistics.fmean(v for v in values if v <= cap)


@dataclass
class JobRecord:
    index: int
    raw_s: float
    c_adjacent: float
    brackets: tuple
    gap: float
    error: str | None

    @property
    def factor(self) -> float:
        """Multiplier from raw to calibrated seconds for this job's window."""
        return C_NOMINAL / self.c_adjacent

    @property
    def cal_s(self) -> float:
        return self.raw_s * self.factor


def run_jobs(jobs, bounds, deadline: float, tracer=None, after_job=None) -> list[JobRecord]:
    """Closed loop, one client: each job starts when the previous one returns.

    Only ``job.run`` is timed; input generation and the correctness check
    sit outside the timed region.  No job after the first starts past
    ``deadline`` (a ``time.perf_counter`` value).  ``after_job(k)`` runs
    untimed after job k, once its closing calibration sample is taken.
    """
    records = []
    before = calibration_sample()
    for k, job in enumerate(jobs):
        if k and time.perf_counter() > deadline:
            break
        if tracer is not None:
            tracer.job = k
        error = None
        with Sampler() as sampler:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    results = job.run(bounds)
                else:
                    with tracer.span("job"):
                        results = job.run(bounds)
            except Exception as exc:  # a failed job is counted, not fatal
                results, error = None, f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - t0 - sampler.spent
        after = calibration_sample()
        brackets, gap = (), float("nan")
        if results is not None:
            brackets, gap, error = job.check(results)
        if after_job is not None:
            after_job(k)
        records.append(JobRecord(k, raw, adjacent_speed([*sampler.samples, before, after]),
                                 brackets, gap, error))
        before = after
    return records


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _proc_threads() -> int | None:
    # threads of this process, BLAS workers included (Linux only)
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def machine_facts(calibration) -> dict:
    """Facts that explain the numbers next to them in a result file."""
    import numpy as np
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if k in os.environ}
    q1, med, q3 = quartiles(calibration) if calibration else (None,) * 3
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(next(iter(env.values()))) if env else nproc,
        "blas_threads_source": next(iter(env)) if env else "nproc",
        "process_threads": _proc_threads(),
        "calibration_s": {"c_nominal": C_NOMINAL, "q1": q1, "median": med, "q3": q3,
                          "samples": len(calibration)},
    }
