import cmath
import json
import math
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import zhemm
from scipy.linalg.lapack import zpotrf, zpotrs

import anacap.exact as exact
from anacap import geometry, integrals, solver, sublab
from anacap.basis import BasisSet, CornerAdapted, PowerPole, Powers, Rings, build_basis
from anacap.discrete import DiskConfiguration
from anacap.errors import SceneConfigError, SingularGramError, SolveError
from anacap.geometry import (Disk, Ellipse, Polygon, _signed_area, arcs, scene,
                             transform, validate_scene)
from anacap.integrals import GramData, _assemble_grams, assemble_gram
from anacap.quadrature import QuadratureSettings
from anacap.solver import (
    BoundsResult,
    GramSystem,
    bounds_for_basis,
    gamma_bounds,
    lower_bound,
    upper_bound,
)
from anacap.sublab import max_sweep_radius, random_configuration, ratio_bounds
from conftest import (MIXED_SHAPES, cantor_disks, eighteen_disks, half_disk, random_points,
                      run_fresh)

TWO_DISK_GAMMA = 1.8755950190971197289


def system_for(sc, basis, tol=1e-9):
    sc = validate_scene(sc)
    bs = BasisSet(basis)
    gram = assemble_gram(sc, bs, QuadratureSettings(tol))
    return GramSystem(gram, bs.d_vector())


# --- closed-form anchors ----------------------------------------------------

def test_unit_disk_is_exact():
    sys = system_for(scene([Disk(0, 1.0)]), [PowerPole(0j, 1)])
    assert upper_bound(sys) == pytest.approx(1.0, abs=1e-14)
    assert lower_bound(sys) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.xfail(strict=True, reason="unbudgeted rounding: both quadrature bounds are "
                   "1.1e-15 relative below gamma = 0.5 (ROADMAP items 3 and 14, Known defects)")
def test_one_disk_quadrature_bracket_holds_its_radius():
    # Powers(2) is no basis of first-order poles, so the disk goes through
    # quadrature; both bounds are 0.49999999999999944, which excludes gamma =
    # 0.5 by less than slack, and a bracket with a rounding budget holds it
    res = gamma_bounds(scene([Disk(0j, 0.5)]), Powers(2))
    assert res.lower <= 0.5 <= res.upper


@pytest.mark.xfail(strict=True, raises=SolveError,
                   reason="the default-tolerance Gram of a mapped corner scene is off by more "
                   "than the fixed slack: the bounds cross (ROADMAP item 3, Known defects)")
def test_mapped_corner_scene_bracket_meets_the_unmapped_one():
    # the unit disk and half-disks over [2, 4] and [-4, -2]; under Powers(8,
    # corners) the mapped scene's bounds cross, lower 2.3349076 > upper
    # 2.3348975, both outside |a| times the Powers(10, corners) bracket
    # [2.3349028, 2.3349050] of the unmapped scene
    a, b = 0.6140479288728861 + 0.834620224977348j, 4.649677439797358 - 0.9836377611148253j
    sc = scene([Disk(0j, 1.0), half_disk(3 + 0j, 1.0), half_disk(-3 + 0j, 1.0)])
    ref = gamma_bounds(sc, Powers(10, with_corners=True))
    res = gamma_bounds(transform(sc, a, b), Powers(8, with_corners=True))
    assert res.lower <= abs(a) * ref.upper and res.upper >= abs(a) * ref.lower


def test_two_disk_single_pole_row(two_disks):
    sc = validate_scene(two_disks)
    basis = build_basis(sc, Rings(0))
    sys = system_for(sc, basis)
    assert lower_bound(sys) == pytest.approx(1.875, abs=1e-12)
    assert upper_bound(sys) == pytest.approx(1.8828125, abs=1e-12)


def test_square_monomial_n2(unit_square):
    res = gamma_bounds(unit_square, Powers(2), QuadratureSettings(1e-10))
    assert res.lower == pytest.approx(0.707106781186547, abs=1e-9)
    assert res.upper == pytest.approx(0.900316316157106, abs=1e-9)
    # closed forms: the lower bound is 1/sqrt(2), the upper is the scaled
    # perimeter 4 sqrt(2)/(2 pi) because the mean vector vanishes by symmetry
    assert res.lower == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert res.upper == pytest.approx(4 * math.sqrt(2) / (2 * math.pi), abs=1e-9)


def test_two_disk_converged_bracket(two_disks):
    res = gamma_bounds(two_disks, Rings(4))
    assert res.n_basis == 34
    assert res.lower <= TWO_DISK_GAMMA <= res.upper
    assert res.upper - res.lower <= 1e-10
    assert res.solve_residual < 1e-10
    # two unit disks 2e-9 apart: the pole 0.8 from the far centre has |kappa|
    # = 0.83 on the other disk, so that disk takes the capped multipole
    # moments plus the exact tail; the bracket holds the closed form
    # (mpmath, 50 digits)
    res = gamma_bounds(scene([Disk(-1.000000001 + 0j, 1.0), Disk(1.000000001 + 0j, 1.0)]),
                       Rings(4))
    assert res.lower <= 1.57079632731849539 <= res.upper


def test_four_ellipse_modest_schedule():
    from anacap.geometry import Ellipse

    sc = scene([Ellipse(-3, 2.0, 1.0), Ellipse(3, 2.0, 1.0),
                Ellipse(10j, 2.0, 1.0), Ellipse(-10j, 2.0, 1.0)])
    res = gamma_bounds(sc, Rings(2), QuadratureSettings(1e-8))
    assert res.lower <= 5.3719956 <= res.upper


# --- schedule ladders -------------------------------------------------------

def test_two_disk_ladder(two_disks):
    ladder = [Rings(k) for k in range(5)]  # 1, 5, 9, 13, 17 poles per disk
    results = [gamma_bounds(two_disks, sched) for sched in ladder]
    lowers = [r.lower for r in results]
    uppers = [r.upper for r in results]
    assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))
    assert results[-1].lower <= TWO_DISK_GAMMA <= results[-1].upper
    assert results[-1].upper - results[-1].lower < 1e-9


def test_square_ladder(unit_square):
    results = [gamma_bounds(unit_square, Powers(n), QuadratureSettings(1e-9))
               for n in (2, 4, 8)]
    uppers = [r.upper for r in results]
    lowers = [r.lower for r in results]
    assert all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert results[0].upper == pytest.approx(0.900316316157106, abs=1e-8)


def test_trivial_ladder(two_disks):
    # the one Rings(1) bracket, [1.8755930640, 1.8756197644], holds the
    # closed form with no slack added
    res = gamma_bounds(two_disks, Rings(1))
    assert res.n_basis == 10
    assert res.lower <= exact.two_disk_capacity(2, 1) <= res.upper


# --- properties -------------------------------------------------------------

def test_bracket_contains_known_values(two_disks, unit_square):
    res = gamma_bounds(two_disks, Rings(3))
    eps = 10 * res.slack
    assert res.lower - eps <= exact.two_disk_capacity(2, 1) <= res.upper + eps
    res = gamma_bounds(unit_square, Powers(4, with_corners=True))
    assert res.lower - 1e-7 <= exact.square_capacity() <= res.upper + 1e-7
    # with corner functions to Powers(6) at a 1e-13 quadrature tolerance, the
    # bracket holds the square's capacity with no slack
    res = gamma_bounds(unit_square, Powers(6, with_corners=True), QuadratureSettings(1e-13))
    assert res.lower <= 0.8346268416740731 <= res.upper


def test_nesting_monotonicity_random_poles(two_disks, rng):
    # growing the span can only tighten both bounds
    sc = validate_scene(two_disks)
    basis = build_basis(sc, Rings(0))
    prev = bounds_for_basis(sc, basis)
    for _ in range(10):
        disk = sc.shapes[int(rng.integers(0, 2))]
        pole = disk.center + rng.uniform(0, 0.9) * disk.radius * cmath.exp(
            1j * rng.uniform(0, 2 * math.pi))
        if PowerPole(pole, 1) in basis:
            continue
        basis = basis + [PowerPole(pole, 1)]
        cur = bounds_for_basis(sc, basis)
        assert cur.lower >= prev.lower - 1e-12
        assert cur.upper <= prev.upper + 1e-12
        prev = cur


def test_equivariance_under_affine_maps(rng):
    # map the scene and the poles by z -> a z + b: bounds scale by |a|
    for _ in range(6):
        pts = random_points(rng, 3, box=3.0, min_sep=2.5)
        sc = validate_scene(scene([Disk(p, 0.7) for p in pts]))
        basis = build_basis(sc, Rings(1))
        res = bounds_for_basis(sc, basis)
        a = complex(rng.normal(), rng.normal())
        if abs(a) < 0.3:
            a = 1.5j - 0.4
        b = complex(rng.normal(), rng.normal())
        mapped_scene = transform(sc, a, b)
        mapped_basis = [PowerPole(a * f.c + b, 1) for f in basis]
        mres = bounds_for_basis(mapped_scene, mapped_basis)
        assert mres.lower == pytest.approx(abs(a) * res.lower, abs=1e-9 * abs(a))
        assert mres.upper == pytest.approx(abs(a) * res.upper, abs=1e-9 * abs(a))


def test_lower_never_exceeds_upper(rng):
    for _ in range(8):
        pts = random_points(rng, int(rng.integers(1, 4)), box=3.0, min_sep=2.2)
        sc = scene([Disk(p, 1.0) for p in pts])
        res = gamma_bounds(sc, Rings(int(rng.integers(0, 3))))
        assert res.lower <= res.upper


def test_real_block_system_cross_check(two_disks):
    # solving the equivalent real symmetric 2n x 2n system reproduces both
    # optima of the complex Hermitian formulation
    sc = validate_scene(two_disks)
    basis = build_basis(sc, Rings(1))
    bs = BasisSet(basis)
    gram = assemble_gram(sc, bs, QuadratureSettings(1e-12))
    H, u, c0 = gram.H, gram.u, gram.c0
    d = bs.d_vector()
    P, Q = H.real, H.imag
    A = 2.0 * np.block([[P, -Q], [Q, P]])

    def real_opt(vec, constant, sign):
        # minimize constant + b^T x + (1/2) x^T A x  over x in R^{2n}
        b = 2.0 * np.concatenate((vec.real, vec.imag))
        x = np.linalg.solve(A, -b)
        return constant + b @ x + 0.5 * x @ A @ x

    up_real = real_opt(u, c0, +1)
    lo_real = -real_opt(-d, 0.0, -1)
    sys = GramSystem(gram, d)
    assert up_real == pytest.approx(upper_bound(sys), abs=1e-12)
    assert lo_real == pytest.approx(lower_bound(sys), abs=1e-12)


def test_gram_system_rejects_a_d_vector_of_the_wrong_length():
    gram = GramData(np.eye(2, dtype=complex), np.zeros(2, complex), 1.0)
    with pytest.raises(SolveError, match="dimensions disagree"):
        GramSystem(gram, np.ones(3, complex))


def test_singular_gram_rejected():
    H = np.array([[1.0, 2.0], [2.0, 1.0]], complex)  # indefinite
    gram = GramData(H, np.zeros(2, complex), 1.0)
    with pytest.raises(SingularGramError, match="2-th leading minor"):
        upper_bound(GramSystem(gram, np.ones(2, complex)))
    gram2 = GramData(np.array([[0.0]], complex), np.zeros(1, complex), 1.0)
    with pytest.raises(SingularGramError):
        lower_bound(GramSystem(gram2, np.ones(1, complex)))


@pytest.mark.parametrize("c0", [0.5, 1 - 5e-11])
def test_bracket_clamps_only_a_crossing_within_rounding(c0):
    # H = [1], u = 0, d = 1: the upper objective is c0, the lower one 1; at
    # abs_tol 1e-14 the slack is below the 1e-10 floor, which governs
    gram = GramData(np.array([[1.0]], complex), np.zeros(1, complex), c0)
    args = (gram, np.array([1.0]), QuadratureSettings(1e-14), 0.0)
    if c0 == 0.5:
        with pytest.raises(SolveError, match="bounds crossed"):
            solver._bracket(*args)
    else:
        res = solver._bracket(*args)
        assert res.lower == res.upper == c0


@pytest.mark.parametrize("shape, schedule", [
    ("two_disks", Rings(3)), ("unit_square", Powers(6, with_corners=True))])
def test_bound_entry_points_equal_the_bracket_bitwise(shape, schedule, request):
    sc = validate_scene(request.getfixturevalue(shape))
    bs = BasisSet(build_basis(sc, schedule))
    gram = assemble_gram(sc, bs, QuadratureSettings())
    system = GramSystem(gram, bs.d_vector())
    # the entry points factor copies; the bracket factors the Gram in place
    bounds = (lower_bound(system), upper_bound(system))
    res = solver._bracket(gram, bs.d_vector(), QuadratureSettings(), 0.0)
    assert bounds == (res.lower, res.upper)


@pytest.mark.parametrize("shapes, schedule", [
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, with_corners=True)),
    (MIXED_SHAPES, Powers(3, with_corners=True)),
    ([Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)], Rings(4)),
    (eighteen_disks(), Rings(4)),
], ids=["square-Powers6", "mixed-Powers3", "four-ellipses-Rings4", "18-disks-Rings4"])
def test_public_stages_give_gamma_bounds_bracket_bitwise(shapes, schedule):
    # assemble_gram -> GramSystem -> upper_bound / lower_bound, the stages a
    # traced bench run replays, give gamma_bounds' bracket bit for bit; on
    # disks gamma_bounds reads the kernel's Gram, the stages a mirrored
    # copy.  A bracket factors its Gram in place, and the two entry
    # points factor copies, so the system keeps every bit
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    system = GramSystem(assemble_gram(sc, bs), bs.d_vector())
    before = system.gram.H.copy()
    res = gamma_bounds(sc, schedule)
    assert (upper_bound(system), lower_bound(system)) == (res.upper, res.lower)
    assert system.gram.H.tobytes() == before.tobytes()


def copy_factored_objectives(gram, d):
    """(upper, lower, jitter) with every attempt of the jitter ladder made on
    a fresh copy of the Gram, and H X from its upper triangle."""
    H, n = gram.H, len(d)
    diag = H.diagonal().real
    for jit in solver._JITTERS:
        buf = H.copy()
        if jit:
            buf.ravel()[:: n + 1] += jit * diag
        c, info = zpotrf(buf.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            break
    rhs = np.array([-gram.u, d], complex)
    xc = zpotrs(c, np.conj(rhs).T, lower=1, overwrite_b=1)[0]
    (xu, xd), (hu, hd) = np.conj(xc.T), np.conj(zhemm(1.0, H.T, xc, lower=1).T)
    up = gram.c0 + 2.0 * np.vdot(xu, gram.u).real + np.vdot(xu, hu).real
    lo = 2.0 * np.vdot(xd, d).real - np.vdot(xd, hd).real
    return float(up), float(lo), jit


@pytest.mark.parametrize("shapes, basis", [
    ([Disk(0j, 1.0)], [PowerPole(0.1, 1), PowerPole(0.1 + 1e-8, 1), PowerPole(0.3j, 1)]),
    ([Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)], Rings(8)),
], ids=["one-disk-kernel", "four-ellipses-Rings8"])
def test_jitter_ladder_restores_the_gram_between_attempts(shapes, basis):
    # both Grams fail to factor without jitter: a failed attempt in place
    # overwrites H's upper triangle and diagonal, and the next one starts
    # from the mirror and a copy of the diagonal, so the bracket and the
    # jitter are those of factoring a fresh copy at each step
    sc = validate_scene(scene(shapes))
    bs = BasisSet(basis if isinstance(basis, list) else build_basis(sc, basis))
    up, lo, jit = copy_factored_objectives(assemble_gram(sc, bs), bs.d_vector())
    assert jit == 4e-15
    assert solver._factor(assemble_gram(sc, bs).H)[1] == jit
    res = bounds_for_basis(sc, bs)
    assert (res.upper, res.lower) == (up, lo)


def test_disk_bracket_makes_moment_rows_in_blocks_of_at_most_128(monkeypatch):
    # the moment rows come in blocks of at most max(128, disks) rows, each
    # added into the Gram by one zherk, so on the 64 Cantor disks (n = 1,088)
    # they take 128 n values at a time, not n^2
    rows, zherk = [], integrals.zherk

    def recording(alpha, a, **kw):
        rows.append(a.shape[1])
        return zherk(alpha, a, **kw)

    monkeypatch.setattr(integrals, "zherk", recording)
    n = gamma_bounds(scene(cantor_disks(3)), Rings(4)).n_basis
    assert n == 1088 and len(rows) > 1 and max(rows) <= max(128, 64)
    # under Rings(1), n = 320 and 704 moment rows in blocks; the bracket holds
    # the Rings(4) value, whose bracket is below 1e-15 wide
    rows.clear()
    res = gamma_bounds(scene(cantor_disks(3)), Rings(1))
    assert res.n_basis == 320 and sum(rows) == 704 and max(rows) <= 128
    assert res.lower <= 0.373747272332747 <= res.upper


def test_warm_disk_bracket_allocates_its_gram_and_under_half_another():
    # 64 Cantor disks under Rings(4), n = 1088: the bracket makes one Gram
    # and factors it in place, and the moment rows come in blocks of 128
    # rows, so the traced peak is the Gram and the disks x poles arrays of
    # the kernel (0.35 n^2 values)
    sc = scene(cantor_disks(3))
    n = gamma_bounds(sc, Rings(4)).n_basis
    tracemalloc.start()
    try:
        gamma_bounds(sc, Rings(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n * n + 0.5 * 16 * n * n


def test_disk_bracket_keeps_no_memory():
    # every array of a bracket belongs to its call: once gamma_bounds on the
    # 64 Cantor disks (n = 1,088) returns, the memory it still holds is
    # below n complex values, in a fresh thread, so that memory kept per
    # thread would show
    held = []

    def bracket():
        tracemalloc.start()
        try:
            n = gamma_bounds(scene(cantor_disks(3)), Rings(4)).n_basis
            held.append((tracemalloc.get_traced_memory()[0], n))
        finally:
            tracemalloc.stop()

    worker = threading.Thread(target=bracket)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    (size, n), = held
    assert n == 1088 and size < 16 * n


RESIDENT_AFTER_BRACKETS = """
import json, os
import anacap as ac
corners, side = [0j], 1.0
for _ in range(4):
    side /= 4
    corners = [c + dx + 1j * dy for c in corners for dx in (0, 3 * side) for dy in (0, 3 * side)]
cantor = ac.scene([ac.Disk(c + (0.5 + 0.5j) * side, side / 2) for c in corners])
r = ac.gamma_bounds(cantor, ac.Rings(4))
with open("/proc/self/status") as fh:
    peak_mib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
pair = ac.gamma_bounds(ac.scene([ac.Disk(-2 + 0j, 1.0), ac.Disk(2 + 0j, 1.0)]), ac.Rings(4))
with open("/proc/self/statm") as fh:
    rss_mib = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
print(json.dumps([r.n_basis, r.lower, r.upper, peak_mib, pair.lower, pair.upper, rss_mib]))
"""


def test_large_disk_bracket_leaves_a_small_resident_set():
    # the generation-4 Cantor bracket (n = 4,352), below 1e-15 wide, agrees
    # with 0.349224214984 to 12 digits; the Gram (289 MiB) is factored where
    # it lies and the moment rows take one level of 256 disks at a time, so
    # the process peaks below 520 MiB (about 407 MiB; 625 MiB with a copy of
    # the Cholesky factor beside the Gram).  Every array of a bracket belongs
    # to its call: after it and a two-disk bracket in one fresh process, the
    # resident set is below 60 MiB (about 47 MiB; 85 MiB with a Gram buffer
    # and a work buffer kept per thread)
    n, lower, upper, peak_mib, pair_lower, pair_upper, rss_mib = json.loads(
        run_fresh(RESIDENT_AFTER_BRACKETS))
    assert n == 4352 and upper - lower < 1e-15
    assert abs(lower - 0.349224214984) < 5e-13
    assert peak_mib < 520
    assert pair_lower <= pair_upper
    assert rss_mib < 60


def test_objectives_make_one_factorization_one_solve_and_one_product(monkeypatch):
    # both right-hand sides go through one zpotrs and one zhemm
    sc = validate_scene(scene(eighteen_disks()))
    bs = BasisSet(build_basis(sc, Rings(4)))
    gram = next(_assemble_grams(sc, bs, None))
    calls = []

    def counted(name):
        f = getattr(solver, name)

        def wrapper(*args, **kw):
            calls.append(name)
            return f(*args, **kw)
        return wrapper

    for name in ("zpotrf", "zpotrs", "zhemm"):
        monkeypatch.setattr(solver, name, counted(name))
    solver._objectives(gram, bs.d_vector())
    assert sorted(calls) == ["zhemm", "zpotrf", "zpotrs"]


@pytest.mark.parametrize("shapes, schedule", [
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, with_corners=True)),
    ([Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)], Rings(4)),
    (eighteen_disks(), Rings(4)),
], ids=["square-Powers6", "four-ellipses-Rings4", "18-disks-Rings4"])
def test_power_of_two_scaling_leaves_the_bounds_bitwise_unchanged(shapes, schedule, rng):
    # with P a diagonal of powers of two, (P H P, P u, P d) has the solutions
    # P^-1 x and every product of the objectives exactly: Cholesky is
    # invariant to the diagonal scaling it is factored with, so the bounds
    # keep every bit
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    gram, d = next(_assemble_grams(sc, bs, None)), bs.d_vector()
    p = 2.0 ** rng.integers(-20, 21, bs.n)
    scaled = GramData(p[:, None] * gram.H * p[None, :], p * gram.u, gram.c0)
    want = solver._objectives(gram, d)[:2]
    assert solver._objectives(scaled, p * d)[:2] == want


def test_bounds_result_json_fields(two_disks):
    res = gamma_bounds(two_disks, Rings(0))
    obj = res.to_json_dict()
    assert set(obj) == {"lower", "upper", "n_basis", "slack", "wall_time_s"}
    assert obj["n_basis"] == 2
    assert obj["slack"] == pytest.approx(10 * 1e-9 * 2)


def test_wall_time_recorded(two_disks):
    res = gamma_bounds(two_disks, Rings(0))
    assert isinstance(res, BoundsResult)
    assert res.wall_time > 0


def test_wall_time_covers_validation(two_disks, monkeypatch):
    # wall_time runs from entry, so validation and the basis build count
    validate = solver.validate_scene

    def slow_validate(sc):
        time.sleep(0.02)
        return validate(sc)

    monkeypatch.setattr(solver, "validate_scene", slow_validate)
    assert gamma_bounds(two_disks, Rings(0)).wall_time >= 0.02


# --- bounds every bracket must respect --------------------------------------

PROPERTY_SCENES = {
    "two-disks": (scene([Disk(2 + 0j, 1.0), Disk(-2 + 0j, 1.0)]), Rings(2)),
    "square": (scene([Polygon((1 + 0j, 1j, -1 + 0j, -1j))]), Powers(6, with_corners=True)),
    "four-ellipses": (scene([Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)]),
                      Rings(2)),
    "disk-and-half-disks": (scene(list(MIXED_SHAPES)), Powers(3, with_corners=True)),
    "l-shape": (scene([Polygon((0j, 4 + 0j, 4 + 1j, 1 + 1j, 1 + 3j, 3j))]), Powers(4)),
}


@pytest.mark.parametrize("name", sorted(PROPERTY_SCENES))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(0.0, 2.0 * math.pi), st.floats(-5.0, 5.0),
       st.floats(-5.0, 5.0))
def test_bracket_respects_area_and_enclosing_disk(name, scale, angle, bx, by):
    # Ahlfors-Beurling: gamma >= sqrt(Area/pi); monotonicity: gamma is at most
    # the radius of a disk that contains K, here one about 0 bounding every piece
    base, schedule = PROPERTY_SCENES[name]
    sc = transform(base, scale * cmath.exp(1j * angle), complex(bx, by))
    res = gamma_bounds(sc, schedule)
    area = sum(_signed_area(arcs(s)) for s in sc.shapes)
    radius = max(arc.size() for s in sc.shapes for arc in arcs(s))
    assert res.upper >= math.sqrt(area / math.pi)
    assert res.lower <= radius


# --- explicit bases that cannot give a bracket ------------------------------

def test_basis_growing_at_infinity_rejected(unit_square):
    # PowerPole(0.3, -1) = z - 0.3 does not vanish at infinity; the bracket it
    # gave, [0.70711, 0.79323], misses gamma = 0.83463
    with pytest.raises(SceneConfigError, match="vanish at infinity"):
        bounds_for_basis(unit_square, [PowerPole(0j, 1), PowerPole(0.3 + 0j, -1)])


@pytest.mark.parametrize("member", [
    PowerPole(2 + 0j, 1),  # outside
    PowerPole(1 + 0j, 2),  # a vertex: on the boundary, not strictly inside
    CornerAdapted(1.5j, 1 + 0j, -1 / 6, 1),
], ids=["simple-outside", "power-on-vertex", "corner-anchor-outside"])
def test_explicit_pole_outside_the_scene_rejected(unit_square, member):
    with pytest.raises(SceneConfigError, match=re.escape(repr(member))):
        bounds_for_basis(unit_square, [PowerPole(0j, 1), member])


SQUARE_POWERS = [PowerPole(0j, k) for k in range(1, 5)]


@pytest.mark.parametrize("a", [1.05 + 0j, 0.9 + 0j, 0.5 + 0.5j],
                         ids=["outside", "inside", "on-edge"])
def test_corner_member_off_a_corner_rejected(unit_square, a):
    # with a = 1.05 the branch cut (a, 0) leaves the square, and the bracket
    # it gave, [0.79431, 0.81880], misses gamma = 0.83463
    members = [CornerAdapted(0j, a, -1 / 6, k) for k in (1, 2)]
    with pytest.raises(SceneConfigError, match=re.escape(repr(members[0]))):
        bounds_for_basis(unit_square, SQUARE_POWERS + members)


def test_corner_member_on_a_corner_brackets_gamma(unit_square):
    res = bounds_for_basis(unit_square, SQUARE_POWERS + [CornerAdapted(0j, 1 + 0j, -1 / 6, 1)])
    assert res.lower <= exact.square_capacity(1.0) <= res.upper


def test_corner_member_whose_cut_leaves_a_non_star_shape_rejected():
    # the segment from the pole 3.5 + 0.5i in the L's foot to its corner 3i
    # crosses the notch x > 1, y > 1
    sc = scene([Polygon((0j, 4 + 0j, 4 + 1j, 1 + 1j, 1 + 3j, 3j))])
    member = CornerAdapted(3.5 + 0.5j, 3j, -1 / 6, 1)
    with pytest.raises(SceneConfigError, match="not star-shaped"):
        bounds_for_basis(sc, [PowerPole(3.5 + 0.5j, 1), member])


def test_pole_between_two_disks_rejected(two_disks):
    with pytest.raises(SceneConfigError, match="not strictly inside"):
        bounds_for_basis(two_disks, [PowerPole(2 + 0j, 1), PowerPole(0j, 1)])


def test_scheduled_bases_skip_the_pole_check(two_disks, unit_square, monkeypatch):
    def refuse(sc, funcs):
        raise AssertionError("pole check on a scheduled basis")

    monkeypatch.setattr(solver, "_require_poles_inside", refuse)
    gamma_bounds(two_disks, Rings(1))
    gamma_bounds(unit_square, Powers(2, with_corners=True))


# --- one boundary form per shape ---------------------------------------------

@pytest.fixture
def arcs_calls(monkeypatch) -> list:
    """The argument of each ``geometry.arcs`` call, kept, so no two of them
    share an id."""
    args, arcs_of = [], geometry.arcs
    monkeypatch.setattr(geometry, "arcs", lambda s: args.append(s) or arcs_of(s))
    return args


def calls_per_shape(args: list, sc) -> list[int]:
    # by identity, so a disk's own call on its ellipse is not counted
    return [sum(a is s for a in args) for s in sc.shapes]


@pytest.mark.parametrize("shapes, schedule", [
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, with_corners=True)),
    (MIXED_SHAPES, Powers(3, with_corners=True)),
], ids=["square-Powers6", "mixed-Powers3"])
def test_gamma_bounds_forms_each_boundary_once(shapes, schedule, arcs_calls):
    sc = scene(shapes)
    gamma_bounds(sc, schedule)
    assert calls_per_shape(arcs_calls, sc) == [1] * len(shapes)


def test_bounds_for_basis_forms_each_boundary_once(unit_square, arcs_calls):
    corner_members = [CornerAdapted(0j, 1 + 0j, -1 / 6, k) for k in (1, 2)]
    bounds_for_basis(unit_square, SQUARE_POWERS + corner_members)
    assert calls_per_shape(arcs_calls, unit_square) == [1]


def test_ratio_record_forms_each_boundary_once(arcs_calls, monkeypatch):
    made, scene_for = [], sublab._scene_for
    monkeypatch.setattr(sublab, "_scene_for", lambda *a: made.append(scene_for(*a)) or made[-1])
    centers = random_configuration(18, 1)
    ratio_bounds(DiskConfiguration(centers, 0.4 * max_sweep_radius(centers), 9), Rings(4))
    (sc,) = made
    assert calls_per_shape(arcs_calls, sc) == [1] * 18


def test_boundaries_are_kept_with_the_scene_and_outside_equality(two_disks):
    sc = validate_scene(two_disks)
    assert sc is two_disks
    assert sc.boundaries is sc.boundaries
    assert sc.boundaries == tuple(arcs(s) for s in sc.shapes)
    fresh = scene(two_disks.shapes)
    assert fresh == sc and hash(fresh) == hash(sc) and repr(fresh) == repr(sc)
