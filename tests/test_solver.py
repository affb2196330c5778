import cmath
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anacap.exact as exact
from anacap import solver
from anacap.basis import BasisSet, CornerAdapted, PowerPole, Powers, Rings, SimplePole, build_basis
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
    refine,
    upper_bound,
)
from conftest import MIXED_SHAPES, eighteen_disks, random_points

TWO_DISK_GAMMA = 1.8755950190971197289


def system_for(sc, basis, tol=1e-9):
    sc = validate_scene(sc)
    bs = BasisSet(basis)
    gram = assemble_gram(sc, bs, QuadratureSettings(tol))
    return GramSystem(gram, bs.d_vector())


# --- closed-form anchors ----------------------------------------------------

def test_unit_disk_is_exact():
    sys = system_for(scene([Disk(0, 1.0)]), [SimplePole(0j)])
    assert upper_bound(sys) == pytest.approx(1.0, abs=1e-14)
    assert lower_bound(sys) == pytest.approx(1.0, abs=1e-14)


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


def test_four_ellipse_modest_schedule():
    from anacap.geometry import Ellipse

    sc = scene([Ellipse(-3, 2.0, 1.0), Ellipse(3, 2.0, 1.0),
                Ellipse(10j, 2.0, 1.0), Ellipse(-10j, 2.0, 1.0)])
    res = gamma_bounds(sc, Rings(2), QuadratureSettings(1e-8))
    assert res.lower <= 5.3719956 <= res.upper


# --- refine ladders ---------------------------------------------------------

def test_refine_two_disk_ladder(two_disks):
    ladder = [Rings(k) for k in range(5)]  # 1, 5, 9, 13, 17 poles per disk
    results = refine(two_disks, ladder)
    lowers = [r.lower for r in results]
    uppers = [r.upper for r in results]
    assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))
    assert results[-1].lower <= TWO_DISK_GAMMA <= results[-1].upper
    assert results[-1].upper - results[-1].lower < 1e-9


def test_refine_square_ladder(unit_square):
    results = refine(unit_square, [Powers(n) for n in (2, 4, 8)],
                     QuadratureSettings(1e-9))
    uppers = [r.upper for r in results]
    lowers = [r.lower for r in results]
    assert all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert results[0].upper == pytest.approx(0.900316316157106, abs=1e-8)


def test_trivial_ladder(two_disks):
    results = refine(two_disks, [Rings(1)])
    assert len(results) == 1


# --- properties -------------------------------------------------------------

def test_bracket_contains_known_values(two_disks, unit_square):
    res = gamma_bounds(two_disks, Rings(3))
    eps = 10 * res.slack
    assert res.lower - eps <= exact.two_disk_capacity(2, 1) <= res.upper + eps
    res = gamma_bounds(unit_square, Powers(4, with_corners=True))
    assert res.lower - 1e-7 <= exact.square_capacity() <= res.upper + 1e-7


def test_nesting_monotonicity_random_poles(two_disks, rng):
    # growing the span can only tighten both bounds
    sc = validate_scene(two_disks)
    basis = build_basis(sc, Rings(0))
    prev = bounds_for_basis(sc, basis)
    for _ in range(10):
        disk = sc.shapes[int(rng.integers(0, 2))]
        pole = disk.center + rng.uniform(0, 0.9) * disk.radius * cmath.exp(
            1j * rng.uniform(0, 2 * math.pi))
        if any(isinstance(b, SimplePole) and b.a == pole for b in basis):
            continue
        basis = basis + [SimplePole(pole)]
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
        mapped_basis = [SimplePole(a * f.a + b) for f in basis]
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
    res = solver._bracket(gram, bs.d_vector(), QuadratureSettings(), 0.0)
    system = GramSystem(gram, bs.d_vector())
    assert (lower_bound(system), upper_bound(system)) == (res.lower, res.upper)


@pytest.mark.parametrize("shapes, schedule", [
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, with_corners=True)),
    (MIXED_SHAPES, Powers(3, with_corners=True)),
    ([Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)], Rings(4)),
], ids=["square-Powers6", "mixed-Powers3", "four-ellipses-Rings4"])
def test_public_stages_give_gamma_bounds_bracket_bitwise(shapes, schedule):
    # assemble_gram -> GramSystem -> upper_bound / lower_bound, the stages a
    # traced bench run replays, give gamma_bounds' bracket bit for bit
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    system = GramSystem(assemble_gram(sc, bs), bs.d_vector())
    res = gamma_bounds(sc, schedule)
    assert (upper_bound(system), lower_bound(system)) == (res.upper, res.lower)


def test_objectives_make_one_factorization_one_solve_and_one_product(monkeypatch):
    # both right-hand sides go through one zpotrs and one zhemm
    sc = validate_scene(scene(eighteen_disks()))
    bs = BasisSet(build_basis(sc, Rings(4)))
    gram = _assemble_grams(sc, bs, None)[0]
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
    gram, d = _assemble_grams(sc, bs, None)[0], bs.d_vector()
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
    SimplePole(2 + 0j),  # outside
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
        bounds_for_basis(two_disks, [SimplePole(2 + 0j), SimplePole(0j)])


def test_scheduled_bases_skip_the_pole_check(two_disks, unit_square, monkeypatch):
    def refuse(sc, funcs):
        raise AssertionError("pole check on a scheduled basis")

    monkeypatch.setattr(solver, "_require_poles_inside", refuse)
    gamma_bounds(two_disks, Rings(1))
    gamma_bounds(unit_square, Powers(2, with_corners=True))
