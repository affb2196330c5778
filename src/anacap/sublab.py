"""Subadditivity experiments: certified ratio brackets, radius sweeps, and
machine-checkable verdicts.

For a disk configuration split into E (first m centers) and F (the rest), the
quantity of interest is R = gamma(E u F)/(gamma(E) + gamma(F)).  Each sweep
point produces a certified interval

    [ef.lower/(e.upper + f.upper),  ef.upper/(e.lower + f.lower)]

containing R, each end rounded outward.  One record is one validation, one
basis and one call of the solver's assemble-then-bracket loop, which
brackets E u F, E and F in turn.
Verdicts between adjacent radii compare intervals, never midpoints: a
decrease (or increase) is only certified when the brackets are disjoint in
the corresponding order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import discrete
from .basis import BasisSet, Rings, Schedule, _shape_counted_basis
from .discrete import DiskConfiguration
from .errors import AnacapError, SplitError
from .geometry import Disk, Scene, validate_scene
from .quadrature import QuadratureSettings
# gamma_bounds is not called here; bench/tracing.py swaps sublab.gamma_bounds
from .solver import BoundsResult, _brackets, gamma_bounds  # noqa: F401

CSV_COLUMNS = ("r", "ratio_low", "ratio_high", "gamma_ef_low", "gamma_ef_high",
               "gamma_e_low", "gamma_e_high", "gamma_f_low", "gamma_f_high",
               "n_basis", "wall_time_s")

CERTIFIED_DECREASE = "CERTIFIED_DECREASE"
CERTIFIED_INCREASE = "CERTIFIED_INCREASE"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class SweepRecord:
    r: float
    ratio_low: float
    ratio_high: float
    ef: BoundsResult
    e: BoundsResult
    f: BoundsResult
    error: str | None = None

    @property
    def gap(self) -> float:
        return self.ratio_high - self.ratio_low

    @property
    def subadditive_certified(self) -> bool:
        return self.error is None and self.ratio_high < 1.0


@dataclass(frozen=True)
class Verdict:
    pair_verdicts: tuple[str, ...]
    n_decrease: int
    n_increase: int
    n_undecided: int
    subadditive_flags: tuple[bool, ...]

    def to_json_dict(self) -> dict:
        return {
            "certified_decrease": self.n_decrease,
            "certified_increase": self.n_increase,
            "undecided": self.n_undecided,
            "subadditive_certified": sum(self.subadditive_flags),
            "records": len(self.subadditive_flags),
        }


def _scene_for(centers, r: float) -> Scene:
    shapes = tuple(Disk(c, r) for c in centers)
    return Scene(shapes, ("E",) * len(shapes))


def ratio_bounds(cfg: DiskConfiguration, schedule: Schedule,
                 settings: QuadratureSettings | None = None) -> SweepRecord:
    """Certified bracket for gamma(E u F)/(gamma(E) + gamma(F)).

    One validation and one basis serve all three brackets, which one call
    of the solver's assemble-then-bracket loop makes in turn, E's and F's
    bitwise what E and F give bracketed alone.  ``ef.wall_time`` includes
    the shared stages, and ``e.wall_time`` and ``f.wall_time`` their own
    disk kernels; their sum is the whole record.
    """
    if cfg.m is None:
        raise SplitError("configuration needs a split index m")
    t0 = time.perf_counter()
    # the union's validation and basis cover E's and F's
    sc = validate_scene(_scene_for(cfg.centers, cfg.radius))
    funcs, counts = _shape_counted_basis(sc, schedule)
    ef, e, f = _brackets(sc, BasisSet(funcs), settings, t0, split=(cfg.m, sum(counts[:cfg.m])))
    # each sum and quotient rounds outward, so the ends hold the exact
    # quotients of the brackets' own ends
    return SweepRecord(
        r=cfg.radius,
        ratio_low=math.nextafter(ef.lower / math.nextafter(e.upper + f.upper, math.inf),
                                 -math.inf),
        ratio_high=math.nextafter(ef.upper / math.nextafter(e.lower + f.lower, -math.inf),
                                  math.inf),
        ef=ef, e=e, f=f,
    )


def max_sweep_radius(centers) -> float:
    """Largest usable radius: just under half the minimal center spacing."""
    cfg = DiskConfiguration(tuple(centers), 1.0)
    return 0.999 * cfg.min_center_distance() / 2.0


def sweep(centers, m: int, r_grid, schedule: Schedule,
          settings: QuadratureSettings | None = None) -> list[SweepRecord]:
    """One certified ratio record per radius, in grid order.

    A radius that fails with an AnacapError (overlap, numerical error)
    yields an error record, not a dropped row; other exceptions propagate.
    """
    centers = tuple(complex(c) for c in centers)
    discrete._check_split(m, len(centers))
    r_grid = [float(r) for r in r_grid]
    cap = max_sweep_radius(centers)

    def one(r: float) -> SweepRecord:
        if r > cap:
            return _error_record(r, f"radius {r} exceeds sweep cap {cap}")
        try:
            return ratio_bounds(DiskConfiguration(centers, r, m), schedule, settings)
        except AnacapError as exc:  # recorded per spec, not dropped
            return _error_record(r, f"{type(exc).__name__}: {exc}")

    return [one(r) for r in r_grid]


def _error_record(r: float, msg: str) -> SweepRecord:
    nanres = BoundsResult(math.nan, math.nan, 0, math.nan, 0.0, math.nan)
    return SweepRecord(r, math.nan, math.nan, nanres, nanres, nanres, error=msg)


def monotonicity_verdict(records: list[SweepRecord]) -> Verdict:
    """Interval comparison of adjacent records, in order of nondecreasing r:
    a pair whose r decreases, read as the opposite trend, is a ValueError."""
    pairs = []
    for i, (a, b) in enumerate(zip(records, records[1:])):
        if b.r < a.r:
            raise ValueError(f"records {i} and {i + 1} are not sorted by r: {a.r!r} > {b.r!r}")
        if a.error or b.error:
            pairs.append(UNDECIDED)
        elif b.ratio_high < a.ratio_low:
            pairs.append(CERTIFIED_DECREASE)
        elif b.ratio_low > a.ratio_high:
            pairs.append(CERTIFIED_INCREASE)
        else:
            pairs.append(UNDECIDED)
    return Verdict(
        pair_verdicts=tuple(pairs),
        n_decrease=pairs.count(CERTIFIED_DECREASE),
        n_increase=pairs.count(CERTIFIED_INCREASE),
        n_undecided=pairs.count(UNDECIDED),
        subadditive_flags=tuple(rec.subadditive_certified for rec in records),
    )


def gap_report(records: list[SweepRecord]) -> float:
    """Largest certified-bracket width over the records that succeeded."""
    if not records:
        raise ValueError("no records")
    gaps = [rec.gap for rec in records if rec.error is None]
    if not gaps:
        raise ValueError(f"no record succeeded: all {len(records)} are error records")
    return max(gaps)


@dataclass(frozen=True)
class AsymptoticReport:
    radii: tuple[float, ...]
    ratio_mid: tuple[float, ...]
    fitted_slope: float
    predicted: float
    rel_deviation: float


def asymptotic_check(centers, m: int, schedule: Schedule,
                     settings: QuadratureSettings | None = None,
                     r0: float | None = None, levels: int = 6) -> AsymptoticReport:
    """Fit the quadratic coefficient of 1 - R over r_k = r0 2^{-k}, k < levels,
    and compare with the predicted small-radius slope delta/n; the fit has two
    parameters, so fewer than two levels is a ValueError."""
    if isinstance(levels, bool) or not isinstance(levels, int) or levels < 2:
        raise ValueError(f"levels must be an integer >= 2, got {levels!r}")
    centers = tuple(complex(c) for c in centers)
    if r0 is None:
        r0 = 0.25 * max_sweep_radius(centers)
    radii = [r0 * 2.0 ** (-k) for k in range(levels)]
    mids = []
    for r in radii:
        rec = ratio_bounds(DiskConfiguration(centers, r, m), schedule, settings)
        mids.append(0.5 * (rec.ratio_low + rec.ratio_high))
    slope = fit_quadratic_slope(radii, mids)
    pred = discrete.predicted_slope(centers, m)
    return AsymptoticReport(tuple(radii), tuple(mids), slope, pred,
                            abs(slope - pred) / pred)


def fit_quadratic_slope(radii, ratio_values) -> float:
    """Least squares fit of (1 - R)/r^2 = C + D r^2; returns C.  The fit has
    two parameters, so it needs two finite positive radii or more and one
    value per radius; anything else is a ValueError."""
    r = np.asarray(radii, float)
    R = np.asarray(ratio_values, float)
    if r.ndim != 1 or r.size < 2 or R.shape != r.shape or not np.all(np.isfinite(r) & (r > 0)):
        raise ValueError(f"need two or more finite positive radii and one value per radius, "
                         f"got radii {radii!r} and values {ratio_values!r}")
    y = (1.0 - R) / r ** 2
    A = np.stack([np.ones_like(r), r ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])


# ---------------------------------------------------------------------------
# output formatting


def format_float(x: float) -> str:
    return format(x, ".17g")


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        row = (rec.r, rec.ratio_low, rec.ratio_high,
               rec.ef.lower, rec.ef.upper, rec.e.lower, rec.e.upper,
               rec.f.lower, rec.f.upper)
        cells = [format_float(x) for x in row]
        cells.append(str(rec.ef.n_basis))
        cells.append(format_float(rec.ef.wall_time + rec.e.wall_time + rec.f.wall_time))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def random_configuration(n: int, seed: int, spread: float = 10.0) -> tuple[complex, ...]:
    """Seeded random centers with pairwise spacing at least ~spread/n."""
    rng = np.random.default_rng(seed)
    min_sep = spread / n
    pts: list[complex] = []
    while len(pts) < n:
        cand = complex(rng.uniform(0, spread), rng.uniform(0, spread))
        if all(abs(cand - p) > min_sep for p in pts):
            pts.append(cand)
    return tuple(pts)


def default_schedule() -> Rings:
    return Rings(4)
