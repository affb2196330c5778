import json
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from anacap import basis, integrals, solver, sublab
from anacap.basis import Powers, Rings, build_basis
from anacap.discrete import DiskConfiguration, predicted_slope
from anacap.errors import OverlapError, SolveError, SplitError
from anacap.exact import nome_from_geometry, ratio_f, two_disk_capacity
from anacap.geometry import Disk, Scene
from anacap.integrals import assemble_gram
from anacap.solver import BoundsResult, _factor, gamma_bounds
from anacap.sublab import (
    CERTIFIED_DECREASE,
    CERTIFIED_INCREASE,
    CSV_COLUMNS,
    UNDECIDED,
    asymptotic_check,
    fit_quadratic_slope,
    gap_report,
    max_sweep_radius,
    monotonicity_verdict,
    random_configuration,
    ratio_bounds,
    records_to_csv,
    sweep,
)
from conftest import random_points, run_fresh

PAIR = (2 + 0j, -2 + 0j)


def exact_ratio(r):
    return ratio_f(nome_from_geometry(2, r))


def synthetic_record(r, low, high):
    nan = float("nan")
    b = BoundsResult(nan, nan, 0, nan, 0.0, nan)
    from anacap.sublab import SweepRecord

    return SweepRecord(r, low, high, b, b, b)


# --- ratio_bounds -----------------------------------------------------------

def test_ratio_bracket_contains_exact_value():
    rec = ratio_bounds(DiskConfiguration(PAIR, 1.0, 1), Rings(4))
    assert rec.ratio_low <= exact_ratio(1.0) <= rec.ratio_high
    assert rec.gap < 1e-9
    assert rec.subadditive_certified


def test_ratio_tends_to_one_for_small_radius():
    rec = ratio_bounds(DiskConfiguration(PAIR, 0.01, 1), Rings(2))
    assert rec.ratio_high < 1.0
    assert rec.ratio_high > 0.9999
    # bracket is machine-tight here; containment holds to rounding
    assert rec.ratio_low - 1e-12 <= exact_ratio(0.01) <= rec.ratio_high + 1e-12


@pytest.mark.parametrize("centers, schedule, share, rtol, zherk_calls", [
    (random_configuration(18, 1), Rings(4), None, 0.0, 3),  # r = 0.02
    (random_configuration(18, 1), Rings(4), 0.5, 0.0, 4),
    (random_configuration(18, 1), Rings(4), 0.95, 0.0, 8),
    # power poles take the quadrature path, whose refinement sees the union basis
    (PAIR, Powers(4), 0.5, 1e-12, 4),
], ids=["18-disks-r0.02", "18-disks-50%", "18-disks-95%", "pair-powers"])
def test_ratio_bounds_equal_three_gamma_bounds(monkeypatch, centers, schedule, share, rtol,
                                               zherk_calls):
    r = 0.02 if share is None else share * max_sweep_radius(centers)
    m = len(centers) // 2
    calls, zherk = [], integrals.zherk

    def counted(alpha, a, **kw):
        calls.append(a.shape)
        return zherk(alpha, a, **kw)

    monkeypatch.setattr(integrals, "zherk", counted)
    rec = ratio_bounds(DiskConfiguration(centers, r, m), schedule)
    # one zherk per moment-row block of each group (disks), or per part of
    # each quadrature call (powers)
    assert len(calls) == zherk_calls
    parts = (centers, centers[:m], centers[m:])
    for got, part in zip((rec.ef, rec.e, rec.f), parts):
        sc = Scene(tuple(Disk(c, r) for c in part), ("E",) * len(part))
        want = gamma_bounds(sc, schedule)
        assert got.lower == pytest.approx(want.lower, rel=rtol, abs=0)
        assert got.upper == pytest.approx(want.upper, rel=rtol, abs=0)
        assert (got.n_basis, got.slack) == (want.n_basis, want.slack)
    assert rec.ratio_low == math.nextafter(
        rec.ef.lower / math.nextafter(rec.e.upper + rec.f.upper, math.inf), -math.inf)
    assert rec.ratio_high == math.nextafter(
        rec.ef.upper / math.nextafter(rec.e.lower + rec.f.lower, -math.inf), math.inf)


@pytest.mark.parametrize("r", [3e-8, 0.02, 0.5 * max_sweep_radius(random_configuration(18, 1))],
                         ids=["r3e-8", "r0.02", "50%"])
def test_ratio_ends_hold_the_exact_quotients_of_their_brackets(r):
    # round-to-nearest ends fall on the wrong side of these quotients here:
    # ratio_high at all three radii and ratio_low at 50% of the cap
    rec = ratio_bounds(DiskConfiguration(random_configuration(18, 1), r, 9), Rings(4))
    ef, e, f = rec.ef, rec.e, rec.f
    low = Fraction(ef.lower) / (Fraction(e.upper) + Fraction(f.upper))
    high = Fraction(ef.upper) / (Fraction(e.lower) + Fraction(f.lower))
    assert Fraction(rec.ratio_low) <= low <= high <= Fraction(rec.ratio_high)
    # and stay within 4 ulps of them
    assert low - Fraction(rec.ratio_low) <= 4 * Fraction(math.ulp(rec.ratio_low))
    assert Fraction(rec.ratio_high) - high <= 4 * Fraction(math.ulp(rec.ratio_high))


def test_pole_of_e_on_a_circle_of_f_is_an_error_record(monkeypatch):
    # an extra E pole at -1 lies on the circle of the F disk about -2; only
    # the union's pole check sees it
    layout = basis._ring_layout
    monkeypatch.setattr(basis, "_ring_layout", lambda d, layers: layout(d, layers)
                        + ([-1 + 0j] if d[0].p0 == PAIR[0] else []))
    (rec,) = sweep(PAIR, 1, [1.0], Rings(1))
    assert rec.error.startswith("PoleOnContourError")
    assert math.isnan(rec.ratio_low) and not rec.subadditive_certified


def test_touching_pair_is_overlap_error():
    # validation of the union rejects disks whose closures meet
    with pytest.raises(OverlapError):
        ratio_bounds(DiskConfiguration(PAIR, 2.0, 1), Rings(0))


def test_ratio_requires_split():
    with pytest.raises(SplitError):
        ratio_bounds(DiskConfiguration(PAIR, 1.0), Rings(2))


def test_sweep_rejects_a_split_index_that_is_not_an_integer():
    # 2.0 passes the range check 1 <= m <= n - 1 and would fail later as a
    # slice index
    centers = random_configuration(4, 1)
    with pytest.raises(SplitError, match="split m=2.0"):
        sweep(centers, 2.0, [0.1], Rings(1))


def test_numpy_integer_split_and_levels_are_integers():
    assert type(DiskConfiguration(PAIR, 0.5, np.int64(1)).m) is int
    want, got = (sweep(PAIR, m, [0.5, 0.9], Rings(2)) for m in (1, np.int64(1)))
    assert [(r.r, r.ratio_low, r.ratio_high, r.error) for r in got] == [
        (r.r, r.ratio_low, r.ratio_high, r.error) for r in want]
    assert (asymptotic_check(PAIR, 1, Rings(1), r0=0.4, levels=np.int64(3))
            == asymptotic_check(PAIR, 1, Rings(1), r0=0.4, levels=3))


def test_certified_flag_definition():
    rec = synthetic_record(0.5, 0.95, 0.999)
    assert rec.subadditive_certified
    rec = synthetic_record(0.5, 0.95, 1.0)
    assert not rec.subadditive_certified


# --- sweep ------------------------------------------------------------------

def test_sweep_matches_exact_curve():
    grid = np.linspace(0.1, 1.9, 10)
    records = sweep(PAIR, 1, grid, Rings(4))
    for rec in records:
        assert rec.error is None
        exact = exact_ratio(rec.r)
        assert rec.ratio_low - 1e-6 <= exact <= rec.ratio_high + 1e-6
        assert rec.gap < 1e-6


@pytest.mark.parametrize("c, grid, schedule", [
    # two unit disks 2e-9 apart at r = 1, split E | F: the union's Gram takes
    # the split path of the disk kernel with both disks capped
    (1.000000001, [0.99 + i * ((0.999 - 0.99) / 2) for i in range(3)], Rings(4)),
    # not a basis of first-order poles: each group's Gram is summed from the
    # quadrature blocks of its shapes; at r = 0.5 the bracket holds the closed
    # form by only 2.8e-15 (ROADMAP, Known defects)
    (2.0, [0.5, 1.0, 1.5], Powers(6)),
], ids=["2e-9-apart-Rings4", "Powers6"])
def test_two_disk_sweep_holds_the_closed_form(c, grid, schedule):
    for rec in sweep((-c + 0j, c + 0j), 1, grid, schedule):
        v = two_disk_capacity(c, rec.r) / (2 * rec.r)
        assert rec.ratio_low <= v <= rec.ratio_high


def test_sweep_single_radius():
    records = sweep(PAIR, 1, [0.7], Rings(3))
    assert len(records) == 1
    assert gap_report(records) == records[0].gap


def test_sweep_error_rows_recorded():
    records = sweep(PAIR, 1, [0.5, 1.9999, 1.0], Rings(2))
    assert [rec.error is None for rec in records] == [True, False, True]
    assert math.isnan(records[1].ratio_low)


def test_sweep_records_only_library_errors(monkeypatch):
    # a library failure is an error row; a bug's TypeError is not swallowed
    def fail(exc):
        def ratio_bounds(*args):
            raise exc
        return ratio_bounds

    monkeypatch.setattr(sublab, "ratio_bounds", fail(SolveError("bounds cross")))
    (rec,) = sweep(PAIR, 1, [0.5], Rings(2))
    assert rec.error == "SolveError: bounds cross"
    monkeypatch.setattr(sublab, "ratio_bounds", fail(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        sweep(PAIR, 1, [0.5], Rings(2))


def test_nine_small_disks_factor_without_jitter():
    # the F half of an 18-disk sweep job whose bounds crossed by 1.6e-6 when
    # inside/outside pole pairs, exactly zero, were summed from two
    # cancelling terms; the rounding forced a 1e-11 Cholesky jitter
    r = 0.02993839705453403
    disks = tuple(Disk(c, r) for c in random_configuration(18, 386449719)[9:])
    sc = Scene(disks, ("E",) * len(disks))
    res = gamma_bounds(sc, Rings(4))
    assert res.lower <= res.upper
    gram = assemble_gram(sc, build_basis(sc, Rings(4)))
    # the first zpotrf keeps every member
    assert _factor(gram.H)[1] == slice(None)


def eighteen_disk_record(seed):
    centers = random_configuration(18, seed)
    return DiskConfiguration(centers, 0.4 * max_sweep_radius(centers), 9)


def record_bits(rec):
    # everything of a record but its wall times
    return (rec.r, rec.ratio_low, rec.ratio_high, rec.error,
            *((b.lower, b.upper, b.n_basis, b.solve_residual, b.slack)
              for b in (rec.ef, rec.e, rec.f)))


def test_concurrent_ratio_records_match_sequential_ones():
    # each record makes its own Gram and moment rows, and each Gram is
    # factored in place: two threads making different records at once get
    # the records of sequential calls, bit for bit
    cfgs = [eighteen_disk_record(seed) for seed in (3, 4)]
    want = [record_bits(ratio_bounds(cfg, Rings(4))) for cfg in cfgs]
    got = [[], []]
    start = threading.Barrier(2)

    def work(i):
        start.wait()
        for _ in range(20):
            got[i].append(record_bits(ratio_bounds(cfgs[i], Rings(4))))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the buffers' use
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for w, g in zip(want, got):
        assert g == [w] * 20


def test_ratio_record_makes_no_gram_sized_temporaries():
    # after a warm-up call, a record's traced peak stays within the size of
    # its three Grams: they stay upper triangles (no mirror temporaries) in
    # the one Gram that the record makes, each is factored in place, and the
    # moment rows come in blocks of at most 128 rows
    cfg = eighteen_disk_record(3)
    rec = ratio_bounds(cfg, Rings(4))
    grams = 16 * sum(b.n_basis ** 2 for b in (rec.ef, rec.e, rec.f))
    tracemalloc.start()
    try:
        ratio_bounds(cfg, Rings(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * grams


def test_warm_ratio_record_allocates_one_gram_sized_array():
    # E u F, E and F take the union's Gram in turn, each factored in place,
    # and the moment rows come in blocks of at most 128 rows, so a warm
    # record's traced peak is one union Gram and nothing else Gram-sized
    cfg = eighteen_disk_record(3)
    n = ratio_bounds(cfg, Rings(4)).ef.n_basis
    tracemalloc.start()
    try:
        ratio_bounds(cfg, Rings(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * n * n


def test_ratio_record_holds_one_gram_buffer(monkeypatch):
    # E u F, E and F are assembled in turn into the one Gram of the record,
    # sized by the union, each bracketed before the next is requested: E's
    # and F's Grams are views of its leading entries
    cfg = eighteen_disk_record(3)
    bracket, grams = solver._bracket, []

    def recording(gram, d, settings, t0):
        grams.append(gram.H)
        return bracket(gram, d, settings, t0)

    monkeypatch.setattr(solver, "_bracket", recording)
    rec = ratio_bounds(cfg, Rings(4))
    n, k = rec.ef.n_basis, rec.e.n_basis
    assert [H.shape for H in grams] == [(n, n), (k, k), (n - k, n - k)]
    assert all(np.shares_memory(H, grams[0]) for H in grams[1:])


RECORD_OF_128_DISKS = """
import json
from anacap import DiskConfiguration, Rings, ratio_bounds
from anacap.sublab import max_sweep_radius, random_configuration
centers = random_configuration(128, 5)
rec = ratio_bounds(DiskConfiguration(centers, 0.5 * max_sweep_radius(centers), 64), Rings(4))
with open("/proc/self/status") as fh:
    peak_mib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
print(json.dumps([rec.ef.n_basis, rec.ratio_low, rec.ratio_high, peak_mib]))
"""


def test_large_ratio_record_peaks_near_one_gram():
    # 64 disks at half the sweep cap under Rings(4), n = 1,088, split 32 | 32:
    # the record's traced peak is the union's Gram, which E's and F's Grams
    # reuse, and the kernel's disks x poles arrays; it was 1.69 n^2 values
    # with a Gram per group
    centers = random_configuration(64, 5)
    cfg = DiskConfiguration(centers, 0.5 * max_sweep_radius(centers), 32)
    tracemalloc.start()
    try:
        n = ratio_bounds(cfg, Rings(4)).ef.n_basis
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 1088 and peak <= 1.45 * 16 * n * n
    # 128 disks split 64 | 64 (n = 2,176) in a fresh process: E u F, E and F
    # are assembled in turn into one Gram, each bracketed before the next, so
    # the process peaks below 150 MiB (about 137 MiB; 161 MiB with E and F in
    # fresh arrays, 162 MiB with all three Grams assembled before the first
    # bracket, 184 MiB with a Gram per group)
    n, low, high, peak_mib = json.loads(run_fresh("-c", RECORD_OF_128_DISKS))
    assert n == 2176 and low <= high < 1.0
    assert peak_mib < 150


def test_powers_ratio_record_takes_one_quadrature_ladder(monkeypatch):
    # the quadrature blocks of all three groups come from one ladder, run
    # before the first Gram is handed out
    calls = []
    integrate = integrals.integrate_arc

    def counted(*args, **kw):
        calls.append(len(args[1]))
        return integrate(*args, **kw)

    monkeypatch.setattr(integrals, "integrate_arc", counted)
    rec = ratio_bounds(DiskConfiguration(PAIR, 0.5, 1), Powers(6))
    assert rec.ratio_low <= exact_ratio(0.5) <= rec.ratio_high
    assert calls == [2]


@pytest.mark.xfail(strict=True, reason="unbudgeted rounding: the bracket is [1, 1] "
                   "exactly (ROADMAP items 2 and 19, Known defects)")
def test_small_radius_ratio_bracket_holds_the_predicted_ratio():
    # R = 1 - (delta/n) r^2 + O(r^3) is 1 - 4.0e-16 at r = 1e-8, which a
    # bracket with a rounding budget holds; rounded outward, the record is
    # [0.9999999999999998, 1.0000000000000004], still above it
    centers, m, r = random_configuration(18, 1), 9, 1e-8
    rec = ratio_bounds(DiskConfiguration(centers, r, m), Rings(4))
    assert rec.ratio_low <= 1.0 - predicted_slope(centers, m) * r * r <= rec.ratio_high


def test_max_sweep_radius():
    assert max_sweep_radius(PAIR) == pytest.approx(0.999 * 2.0)


# --- verdicts ---------------------------------------------------------------

def test_two_disk_sweep_all_certified_decrease():
    grid = np.linspace(0.05, 1.9, 12)
    records = sweep(PAIR, 1, grid, Rings(4))
    v = monotonicity_verdict(records)
    assert v.pair_verdicts == (CERTIFIED_DECREASE,) * 11
    assert all(v.subadditive_flags)


def test_widened_brackets_are_undecided():
    records = [synthetic_record(0.1, 0.90, 0.99), synthetic_record(0.2, 0.89, 0.98)]
    v = monotonicity_verdict(records)
    assert v.pair_verdicts == (UNDECIDED,)


def test_certified_increase_detected():
    records = [synthetic_record(0.1, 0.90, 0.91), synthetic_record(0.2, 0.93, 0.94)]
    v = monotonicity_verdict(records)
    assert v.pair_verdicts == (CERTIFIED_INCREASE,)
    assert v.n_increase == 1


def test_error_rows_make_pairs_undecided():
    records = [synthetic_record(0.1, 0.9, 0.91),
               synthetic_record(0.2, float("nan"), float("nan"))]
    object.__setattr__(records[1], "error", "boom")
    v = monotonicity_verdict(records)
    assert v.pair_verdicts == (UNDECIDED,)


def test_verdict_of_radii_out_of_order_is_an_error():
    # R falls as r grows (about 0.9994, 0.9844, 0.9495 at r = 0.1, 0.5, 0.9);
    # compared in the order given, the descending grid would read as increases
    with pytest.raises(ValueError, match=r"^records 0 and 1 are not sorted by r: 0\.9 > 0\.5$"):
        monotonicity_verdict(sweep(PAIR, 1, [0.9, 0.5, 0.1], Rings(3)))
    v = monotonicity_verdict(sweep(PAIR, 1, [0.1, 0.5, 0.9], Rings(3)))
    assert v.pair_verdicts == (CERTIFIED_DECREASE,) * 2


def test_verdict_monotone_in_bracket_tightness():
    # refining the schedule can only turn UNDECIDED into a certified verdict
    grid = [0.4, 0.5]
    coarse = monotonicity_verdict(sweep(PAIR, 1, grid, Rings(0)))
    fine = monotonicity_verdict(sweep(PAIR, 1, grid, Rings(4)))
    for a, b in zip(coarse.pair_verdicts, fine.pair_verdicts):
        if a == CERTIFIED_DECREASE:
            assert b == CERTIFIED_DECREASE


# --- gap report -------------------------------------------------------------

def test_gap_report_tightens_with_schedule():
    grid = [0.5, 1.0]
    coarse = gap_report(sweep(PAIR, 1, grid, Rings(0)))
    fine = gap_report(sweep(PAIR, 1, grid, Rings(4)))
    assert fine < coarse


def test_gap_report_empty():
    with pytest.raises(ValueError):
        gap_report([])


def test_gap_report_of_error_records_only_says_none_succeeded():
    # two radii past the sweep cap: both are error records
    records = sweep(PAIR, 1, [1.9999, 2.5], Rings(2))
    assert all(rec.error for rec in records)
    with pytest.raises(ValueError, match="no record succeeded"):
        gap_report(records)


# --- asymptotics ------------------------------------------------------------

def test_asymptotic_slope_two_disks():
    report = asymptotic_check(PAIR, 1, Rings(3), r0=0.4)
    assert report.predicted == pytest.approx(1 / 16)
    assert report.rel_deviation < 0.05


@pytest.mark.parametrize("levels", [0, 1, 2.0, True, np.float64(3.0)])
def test_asymptotic_check_needs_two_radii(levels):
    # the fit has two parameters: no radius, or one, determines it
    with pytest.raises(ValueError, match="levels must be an integer >= 2"):
        asymptotic_check(PAIR, 1, Rings(3), r0=0.4, levels=levels)


@pytest.mark.parametrize("radii, values", [
    ([0.4], [0.99]),
    ([], []),
    ([0.1, 0.2], [0.99]),
    ([0.0, 0.2], [1.0, 0.98]),
], ids=["one-radius", "no-radius", "mismatched", "zero-radius"])
def test_slope_fit_needs_two_positive_radii_and_a_value_each(radii, values):
    # two parameters from one point, from none, from values that broadcast
    # or over r = 0 (a nan) are not a fit
    with pytest.raises(ValueError, match="two or more finite positive radii"):
        fit_quadratic_slope(radii, values)


def test_asymptotic_slope_on_exact_curve():
    radii = [0.4 * 2 ** (-k) for k in range(6)]
    mids = [exact_ratio(r) for r in radii]
    slope = fit_quadratic_slope(radii, mids)
    assert slope == pytest.approx(1 / 16, rel=0.05, abs=0)


def test_asymptotic_slope_random_configuration(rng):
    from anacap.discrete import predicted_slope

    Z = random_points(rng, 4, box=3.0, min_sep=2.0)
    report = asymptotic_check(Z, 2, Rings(3))
    assert report.rel_deviation < 0.10
    assert report.predicted == pytest.approx(predicted_slope(Z, 2))


def test_asymptotic_scale_invariance():
    rep1 = asymptotic_check(PAIR, 1, Rings(3), r0=0.4)
    rep2 = asymptotic_check([2 * z for z in PAIR], 1, Rings(3), r0=0.8)
    assert rep2.fitted_slope * 4 == pytest.approx(rep1.fitted_slope, rel=0.02, abs=0)


# --- CSV --------------------------------------------------------------------

def test_csv_round_trip():
    records = sweep(PAIR, 1, [0.5, 1.0], Rings(2))
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    for line, rec in zip(lines[1:], records):
        cells = line.split(",")
        assert float(cells[0]) == rec.r
        assert float(cells[1]) == rec.ratio_low
        assert float(cells[2]) == rec.ratio_high
        assert int(cells[9]) == rec.ef.n_basis


def test_random_configuration_seeded():
    a = random_configuration(10, seed=7)
    b = random_configuration(10, seed=7)
    c = random_configuration(10, seed=8)
    assert a == b
    assert a != c
    d = np.abs(np.subtract.outer(a, a))
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1.0  # spread/n separation


def test_subadditivity_certified_across_corpus(rng):
    # every configuration in the regression corpus certifies ratio_high < 1
    # once the schedule has at least two ring layers
    corpora = [
        tuple(random_points(rng, 4, box=3.0, min_sep=1.5)),
        tuple(complex(k, 0) for k in range(5)),
        (0j, 2 + 0j, 1 + 2j),
    ]
    for centers in corpora:
        m = max(1, len(centers) // 2)
        r = 0.35 * min(abs(a - b) for i, a in enumerate(centers)
                       for b in centers[i + 1:])
        rec = ratio_bounds(DiskConfiguration(centers, r, m), Rings(2))
        assert rec.subadditive_certified, (centers, r)


def test_mixed_radius_ratio_via_scene_path():
    # fixed-radius disks on one side, varying-radius disks on the other; the
    # ratio comes from three independent capacity brackets
    from anacap.geometry import Disk, scene
    from anacap.solver import gamma_bounds

    fixed = [Disk(0j, 0.49), Disk(1 + 0j, 0.49)]
    for r in (0.1, 0.3, 0.45):
        growing = [Disk(10 + 0j, r), Disk(11 + 0j, r)]
        ef = gamma_bounds(scene(fixed + growing), Rings(3))
        e = gamma_bounds(scene(fixed), Rings(3))
        f = gamma_bounds(scene(growing), Rings(3))
        hi = ef.upper / (e.lower + f.lower)
        lo = ef.lower / (e.upper + f.upper)
        assert lo <= hi
        assert hi < 1.0  # subadditive here
