"""The benchmark's three seeded workloads: job inputs, runs and checks.

A job is one fresh seeded input and the capacity brackets it asks for.  The
seed sets every input; the library only ever receives the generated scenes.

``corners`` and ``ellipses`` apply a similarity map z -> a*z + b to fixed
scenes.  Quadrature cost grows steeply as |a| shrinks (the absolute
tolerance is fixed while the integrands grow), so the |a| values of a run
form an even grid over log|a| in [log 0.5, log 2]; the seed sets their order,
the rotations and the shifts.  Every run of ``n_jobs`` jobs therefore carries
the same mix of cheap and expensive jobs, and run-to-run differences come from
the machine, not from the draw.  ``disk_sweep`` spreads its radii the same
way over [0.02, 0.95 * max_sweep_radius], each on a fresh random
configuration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

import anacap as ac
from anacap import discrete, exact, sublab

WORKLOADS = ("corners", "ellipses", "disk_sweep")

# Typical calibrated seconds of one job at the commit that defined the
# benchmark; a run of ``--seconds S`` is round(S / NOMINAL_JOB_S) jobs.
NOMINAL_JOB_S = {"corners": 3.2, "ellipses": 2.0, "disk_sweep": 0.15}

SCALE_RANGE = (0.5, 2.0)
SHIFT_BOX = 5.0


def _half_disk(center: complex, r: float = 0.5) -> ac.ArcChain:
    return ac.ArcChain((ac.Segment(center - r, center + r),
                        ac.CircularArc(center, r, 0.0, math.pi)))


SQUARE = ac.scene([ac.Polygon((1 + 0j, 1j, -1 + 0j, -1j))])
# the disk plus two half-disks scene of demos/mixed_shapes.py
MIXED = ac.scene([ac.Disk(0j, 1.0), _half_disk(3 + 0j), _half_disk(3j)])
FOUR_ELLIPSES = ac.scene([ac.Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)])

SQUARE_SCHEDULE = ac.Powers(6, with_corners=True)
MIXED_SCHEDULE = ac.Powers(3, with_corners=True)
ELLIPSE_SCHEDULE = ac.Rings(4)
SWEEP_SCHEDULE = ac.Rings(4)
SWEEP_DISKS, SWEEP_SPLIT = 18, 9
SWEEP_R_MIN, SWEEP_CAP_SHARE = 0.02, 0.95

# Capacity of MIXED: midpoint of its Powers(4, with_corners) bracket
# [1.630860, 1.630921]; similarity maps scale it by |a| to 9 digits.
MIXED_GAMMA = 1.6308903
# criterion-6 band of tests/test_acceptance.py (Rings(8) bracket)
ELLIPSE_BAND = (5.371995432221965, 5.371995878776166)


@dataclass(frozen=True)
class Problem:
    """One bracket a job asks for and the interval the bracket must contain."""

    scene: ac.Scene
    schedule: object
    reference: tuple[float, float]


@dataclass(frozen=True)
class BracketJob:
    """corners / ellipses: brackets of mapped scenes with known capacities."""

    problems: tuple[Problem, ...]

    def scenes(self):
        return [(p.scene, p.schedule) for p in self.problems]

    def run(self, bounds):
        """Brackets of every problem; ``bounds`` is ``gamma_bounds`` or a stand-in."""
        return [bounds(p.scene, p.schedule) for p in self.problems]

    def check(self, results) -> tuple[tuple, float, str | None]:
        """(brackets, widest relative width, first failed check or None)."""
        brackets = tuple((r.lower, r.upper) for r in results)
        gap = max((r.upper - r.lower) / r.upper for r in results)
        for p, r in zip(self.problems, results):
            lo, hi = p.reference
            if not r.lower <= lo <= hi <= r.upper:
                return brackets, gap, (f"bracket [{r.lower!r}, {r.upper!r}] misses "
                                       f"reference [{lo!r}, {hi!r}]")
        return brackets, gap, None


@dataclass(frozen=True)
class SweepJob:
    """disk_sweep: one certified ratio record of an 18-disk configuration."""

    centers: tuple[complex, ...]
    r: float

    def _scene(self, centers) -> ac.Scene:
        return ac.scene([ac.Disk(c, self.r) for c in centers])

    def scenes(self):
        c, m = self.centers, SWEEP_SPLIT
        return [(self._scene(part), SWEEP_SCHEDULE) for part in (c, c[:m], c[m:])]

    def run(self, bounds):
        # sublab calls its own gamma_bounds; a traced run swaps that name
        return sublab.sweep(self.centers, SWEEP_SPLIT, [self.r], SWEEP_SCHEDULE)

    def check(self, results) -> tuple[tuple, float, str | None]:
        (rec,) = results
        brackets = ((rec.ratio_low, rec.ratio_high),)
        if rec.error is not None:
            return brackets, math.nan, f"error record: {rec.error}"
        if not rec.ratio_low <= rec.ratio_high < 1.0:
            return brackets, rec.gap, (f"ratio bracket [{rec.ratio_low!r}, "
                                       f"{rec.ratio_high!r}] not below 1")
        spacing = ac.DiskConfiguration(self.centers, self.r).min_center_distance()
        if 4.0 * self.r < spacing and not discrete.sandwich_check(
                self.centers, self.r, rec.ef.lower, rec.ef.upper):
            return brackets, rec.gap, "discrete sandwich check failed"
        return brackets, rec.gap, None


def n_jobs(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_JOB_S[workload]))


def _grid_cell(seed: int, count: int, k: int) -> float:
    """Midpoint of the k-th of ``count`` even cells of [0, 1], in a seeded order."""
    order = np.random.default_rng([seed, count]).permutation(count)
    return (order[k] + 0.5) / count


def make_job(workload: str, seed: int, k: int, count: int):
    """Input of job ``k`` of a ``count``-job run; one seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    frac = _grid_cell(seed, count, k)
    rng = np.random.default_rng([seed, k])
    if workload == "disk_sweep":
        centers = sublab.random_configuration(SWEEP_DISKS, int(rng.integers(1 << 31)))
        r_max = SWEEP_CAP_SHARE * sublab.max_sweep_radius(centers)
        return SweepJob(centers, SWEEP_R_MIN + frac * (r_max - SWEEP_R_MIN))
    lo, hi = SCALE_RANGE
    scale = lo * (hi / lo) ** frac
    a = scale * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    b = complex(*rng.uniform(-SHIFT_BOX, SHIFT_BOX, 2))
    if workload == "corners":
        return BracketJob((
            Problem(ac.transform(SQUARE, a, b), SQUARE_SCHEDULE,
                    (scale * exact.square_capacity(1.0),) * 2),
            Problem(ac.transform(MIXED, a, b), MIXED_SCHEDULE, (scale * MIXED_GAMMA,) * 2),
        ))
    return BracketJob((Problem(ac.transform(FOUR_ELLIPSES, a, b), ELLIPSE_SCHEDULE,
                               tuple(scale * g for g in ELLIPSE_BAND)),))


def make_jobs(workload: str, seed: int, count: int) -> list:
    """The ``count`` job inputs of a run."""
    return [make_job(workload, seed, k, count) for k in range(count)]
