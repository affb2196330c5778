import cmath
import math
import tracemalloc

import numpy as np
import pytest

from anacap.basis import (
    BasisSet,
    CornerAdapted,
    Powers,
    PowerPole,
    Rings,
    _principal_power,
    build_basis,
    corner_exponent,
    schedule_from_config,
    schedule_to_config,
)
from anacap.errors import BranchCutError, PoleEvaluationError, SceneConfigError
from anacap.geometry import (
    ArcChain,
    CircularArc,
    Disk,
    Ellipse,
    Polygon,
    Segment,
    arcs,
    scene,
    transform,
    validate_scene,
)
from anacap.quadrature import QuadratureSettings, integrate_arc
from anacap.solver import gamma_bounds

from conftest import MIXED_SHAPES, row_per_member_eval, same_bits

SQUARE = Polygon((1 + 0j, 1j, -1 + 0j, -1j))
EPS = float(np.finfo(float).eps)


# --- evaluation -------------------------------------------------------------

def test_simple_pole_value():
    assert PowerPole(2 + 0j, 1).eval(3 + 0j) == 1.0


def test_power_pole_value():
    assert PowerPole(0j, 2).eval(1 + 1j) == pytest.approx(-0.5j, abs=1e-15)


def test_corner_function_tends_to_one_at_infinity():
    f = CornerAdapted(0j, 1 + 0j, -1 / 6, 0)
    assert f.eval(1e9 + 0j) == pytest.approx(1.0, abs=1e-8)


def test_pole_evaluation_errors():
    with pytest.raises(PoleEvaluationError):
        PowerPole(2 + 0j, 1).eval(2 + 0j)
    with pytest.raises(PoleEvaluationError):
        PowerPole(1j, 3).eval(1j)
    with pytest.raises(PoleEvaluationError):
        CornerAdapted(0j, 1 + 0j, -1 / 6, 1).eval(1 + 0j)


def test_branch_cut_error_between_corner_and_anchor():
    f = CornerAdapted(0j, 1 + 0j, -1 / 6, 1)
    with pytest.raises(BranchCutError):
        f.eval(0.5 + 0j)  # midpoint of the cut segment (a, c)


def test_corner_function_safe_on_convex_boundary():
    # with the anchor at the interior anchor point, boundary evaluation of a
    # convex shape never touches the branch cut
    fs = [CornerAdapted(0j, a, -1 / 6, 1) for a in (1, 1j, -1, -1j)]
    t = np.linspace(1e-6, 1 - 1e-6, 400)
    for seg_start, seg_end in [(1, 1j), (1j, -1), (-1, -1j), (-1j, 1)]:
        for z in seg_start + t * (seg_end - seg_start):
            for f in fs:
                f.eval(complex(z))  # must not raise


# --- d_infinity -------------------------------------------------------------

def numeric_d_infinity(b):
    # oracle: z*eval(b, z) sampled at growing |z| and Richardson-extrapolated
    vals = []
    for R in (1e4, 1e5, 1e6):
        z = R * cmath.exp(0.37j)
        vals.append(z * b.eval(z))
    # successive differences decay by 10x; extrapolate linearly in 1/R
    v1, v2, v3 = vals
    return v3 + (v3 - v2) / 9.0


@pytest.mark.parametrize("b,expect", [
    (PowerPole(1.5 - 2j, 1), 1.0),
    (PowerPole(0.5j, 1), 1.0),
    (PowerPole(0.5j, 3), 0.0),
    (CornerAdapted(0j, 1 + 0j, -1 / 6, 1), 1.0),
    (CornerAdapted(0.2j, 1 + 0j, 0.25, 2), 0.0),
])
def test_d_infinity_against_numeric_limit(b, expect):
    assert b.d_infinity() == expect
    assert numeric_d_infinity(b) == pytest.approx(expect, abs=1e-6)


# --- layouts ----------------------------------------------------------------

def ring_poles(shape, layers):
    return [b.c for b in build_basis(scene([shape]), Rings(layers))]


def test_layout_single_pole_is_center():
    assert ring_poles(Disk(2, 1.0), 0) == [2]


def test_layout_one_layer():
    pts = ring_poles(Disk(0, 1.0), 1)
    assert set(pts) == {0, 0.5, -0.5, 0.5j, -0.5j}


def test_layout_counts_and_interiority():
    for layers in range(6):
        d = Disk(1 + 1j, 2.0)
        pts = ring_poles(d, layers)
        assert len(pts) == 4 * layers + 1
        assert len(set(pts)) == len(pts)
        rmax = max(abs(p - d.center) for p in pts)
        if layers:
            assert rmax == pytest.approx(d.radius * layers / (layers + 1))
        assert rmax < d.radius


@pytest.mark.parametrize("make, match", [
    (lambda: Rings(-1), "layers must be >= 0"),
    (lambda: Powers(0), "n must be >= 1"),
    # no coercion: int(2.5) is 2, int(True) is 1 and bool("no") is True
    (lambda: Rings(2.5), "layers must be an integer"),
    (lambda: Rings(True), "layers must be an integer"),
    (lambda: Powers(2.0), "n must be an integer"),
    (lambda: Powers(True), "n must be an integer"),
    (lambda: Powers(3, with_corners="no"), "with_corners must be True or False"),
], ids=["rings", "powers", "rings_float", "rings_bool", "powers_float", "powers_bool",
        "powers_corners_str"])
def test_negative_layers_and_empty_powers_rejected(make, match):
    with pytest.raises(SceneConfigError, match=match):
        make()


# --- build_basis ------------------------------------------------------------

def test_two_disk_single_pole_basis(two_disks):
    basis = build_basis(validate_scene(two_disks), Rings(0))
    assert basis == [PowerPole(2 + 0j, 1), PowerPole(-2 + 0j, 1)]


def test_square_monomials():
    basis = build_basis(validate_scene(scene([SQUARE])), Powers(2))
    assert basis == [PowerPole(0j, 1), PowerPole(0j, 2)]


def test_square_with_corner_functions():
    basis = build_basis(validate_scene(scene([SQUARE])), Powers(1, with_corners=True))
    assert basis[0] == PowerPole(0j, 1)
    cs = [b for b in basis if isinstance(b, CornerAdapted)]
    assert len(cs) == 4
    for b in cs:
        assert b.beta == pytest.approx(-1 / 6, abs=1e-15)
        assert b.k == 1
        assert b.c == 0j


def test_corner_exponent_range():
    assert corner_exponent(1.5 * math.pi) == pytest.approx(-1 / 6)
    assert corner_exponent(0.5 * math.pi) == pytest.approx(0.5)
    # omega in (0, 2pi) keeps beta above -1/4
    for omega in np.linspace(0.05, 2 * math.pi - 0.05, 50):
        assert corner_exponent(omega) > -0.25


def test_rings_on_polygon_rejected():
    with pytest.raises(SceneConfigError):
        build_basis(validate_scene(scene([SQUARE])), Rings(1))


def test_rings_on_a_one_piece_circle_are_the_disks():
    # a whole-turn circular arc is the disk's boundary from another start
    for theta in (0.0, 1.0, -2.5):
        circle = ArcChain((CircularArc(1 - 2j, 0.75, theta, theta + 2 * math.pi),))
        assert same_bits(ring_poles(circle, 2), ring_poles(Disk(1 - 2j, 0.75), 2))
    # its Gram comes from quadrature, and its bracket is the disk's capacity
    res = gamma_bounds(scene([circle]), Rings(2))
    assert res.lower == pytest.approx(0.75, rel=1e-12, abs=0)
    assert res.upper == pytest.approx(0.75, rel=1e-12, abs=0)


def test_rings_on_a_half_disk_rejected():
    half_disk = ArcChain((Segment(-1 + 0j, 1 + 0j), CircularArc(0j, 1.0, 0.0, math.pi)))
    with pytest.raises(SceneConfigError, match="^Rings schedule applies to disks and "
                                               "ellipses only$"):
        build_basis(validate_scene(scene([half_disk])), Rings(1))


def test_duplicate_members_rejected():
    # two copies of one disk give the same scheduled pole twice
    with pytest.raises(SceneConfigError, match="duplicate"):
        build_basis(scene([Disk(0, 1), Disk(0, 1)]), Rings(0))


def test_rings_on_ellipse():
    e = Ellipse(0, 2.0, 1.0)
    basis = build_basis(validate_scene(scene([e])), Rings(1))
    assert len(basis) == 5
    from anacap.geometry import point_in_shape

    for b in basis:
        assert point_in_shape(e, b.c)


def test_non_star_shape_with_corners_rejected():
    # a thin U-shaped polygon is not star-shaped about its anchor
    u_shape = Polygon((0j, 5 + 0j, 5 + 3j, 4 + 3j, 4 + 1j, 1 + 1j, 1 + 3j, 0 + 3j))
    sc = validate_scene(scene([u_shape]))
    with pytest.raises(SceneConfigError):
        build_basis(sc, Powers(1, with_corners=True))


def test_notched_square_with_corners_rejected():
    # the notch's far edge turns arg(z - anchor) backwards; sampled rays miss it
    notched = Polygon((-1 - 1j, 1 - 1j, 1 + 0.499j, 0.5 + 0.8j, 1 + 0.501j, 1 + 1j, -1 + 1j))
    sc = validate_scene(scene([notched]))
    with pytest.raises(SceneConfigError):
        build_basis(sc, Powers(4, with_corners=True))


def test_star_shape_arc_checked_between_its_ends():
    # about c = -0.5 + 1.2i the half-disk's arc passes both end checks and
    # the segment check, but arg(z - c) turns back near theta = arg(-c) + pi
    from anacap.basis import _require_star_shaped

    hd = ArcChain((Segment(-1 + 0j, 1 + 0j), CircularArc(0j, 1.0, 0.0, math.pi)))
    _require_star_shaped(hd, 0.5j)
    with pytest.raises(SceneConfigError):
        _require_star_shaped(hd, -0.5 + 1.2j)


def test_vanishing_at_infinity(two_disks):
    sq = validate_scene(scene([SQUARE]))
    basis = build_basis(sq, Powers(2, with_corners=True))
    basis += build_basis(validate_scene(two_disks), Rings(1))
    R = 1e8
    for b in basis:
        for theta in (0.1, 2.0, 4.0):
            assert abs(b.eval(R * cmath.exp(1j * theta))) < 1e-6


def test_per_shape_schedules(two_disks):
    sc = validate_scene(two_disks)
    basis = build_basis(sc, [Rings(0), Rings(1)])
    assert len(basis) == 1 + 5

    with pytest.raises(SceneConfigError, match="one schedule per shape"):
        build_basis(sc, [Rings(0)])


@pytest.mark.parametrize("schedule, name", [
    (None, "NoneType"), (4, "int"), ({"mode": "rings", "layers": 1}, "dict"),
], ids=["none", "int", "config_dict"])
def test_schedule_of_the_wrong_type_is_a_config_error(two_disks, schedule, name):
    # not iterated as if it were one schedule per shape: a dict has two keys
    # for two disks, so it would pass the count
    with pytest.raises(SceneConfigError, match=f"list or tuple of them, got {name}$"):
        build_basis(validate_scene(two_disks), schedule)
    with pytest.raises(SceneConfigError, match=f"got {name}$"):
        gamma_bounds(two_disks, schedule)


@pytest.mark.parametrize("schedule, name", [
    ([Rings(1), None], "NoneType"), ((Powers(2), "rings"), "str"),
    ([Rings(1), {"mode": "rings", "layers": 1}], "dict"),
], ids=["none", "str", "config_dict"])
def test_schedule_list_of_the_wrong_type_is_a_config_error(two_disks, schedule, name):
    # each entry of a per-shape list is checked as a single schedule is
    with pytest.raises(SceneConfigError, match=f"list or tuple of them, got {name}$"):
        build_basis(validate_scene(two_disks), schedule)


# --- BasisSet ---------------------------------------------------------------

def test_basis_set_matches_scalar_eval(rng):
    basis = [PowerPole(0.3 + 0.1j, 1), PowerPole(-2 + 0j, 3),
             CornerAdapted(0j, 1 + 0j, -1 / 6, 2), PowerPole(-1j, 1)]
    bs = BasisSet(basis)
    assert bs.n == 4
    for _ in range(20):
        z = complex(rng.uniform(2, 4), rng.uniform(0.5, 3))
        vals = bs.eval_all(z)
        for i, b in enumerate(basis):
            assert vals[i] == pytest.approx(b.eval(z), rel=1e-13, abs=0)


def test_basis_set_array_eval():
    basis = [PowerPole(1j, 1), PowerPole(0j, 2)]
    bs = BasisSet(basis)
    z = np.array([3 + 0j, 4j, -5 + 1j])
    vals = bs.eval_all(z)
    assert vals.shape == (2, 3)
    assert vals[0, 0] == pytest.approx(1 / (3 - 1j))


def test_corner_subs_array_matches_scalar_calls():
    # half-disk with corners at +-0.5; its arcs carry the exact displacements
    # from both corners, which eval_all applies over whole node arrays
    chain = ArcChain((Segment(-0.5 + 0j, 0.5 + 0j), CircularArc(0j, 0.5, 0.0, math.pi)))
    c = 0.25j
    s = np.concatenate(([1e-200], np.logspace(-12, -0.3, 40)))
    for arc in arcs(chain):
        bs = BasisSet([CornerAdapted(c, arc.start, -1 / 6, 1), CornerAdapted(c, arc.start, -1 / 6, 3),
                       CornerAdapted(c, arc.end, -1 / 6, 2), PowerPole(c, 2)])

        def subs(x):
            return [(arc.start, slice(None), arc.disp_start(x)),
                    (arc.end, slice(None), arc.disp_end(1.0 - x))]

        vals = bs.eval_all(arc.point(s), corner_subs=subs(s))
        for k, x in enumerate(s):
            assert arc.disp_start(s)[k] == pytest.approx(arc.disp_start(float(x)), rel=1e-14, abs=0)
            one = bs.eval_all(arc.point(float(x)), corner_subs=subs(float(x)))
            assert np.all(np.abs(vals[:, k] - one) <= 1e-14 * np.abs(one))
        assert np.all(np.isfinite(vals[:, 0])) and np.all(vals[:, 0] != 0)


def _arc_nodes(arc, m, first=None):
    """m midpoint nodes of an arc (the first one moved to parameter ``first``
    if given), with the exact displacements from both ends as ``corner_subs``."""
    s = (np.arange(m) + 0.5) / m
    if first is not None:
        s[0] = first
    return arc.point(s), [(arc.start, slice(None), arc.disp_start(s)),
                          (arc.end, slice(None), arc.disp_end(1.0 - s))]


@pytest.mark.parametrize("shapes,schedule", [
    ([SQUARE], Powers(6, True)),
    (MIXED_SHAPES, Powers(3, True)),
], ids=["square-Powers6", "mixed-Powers3"])
def test_eval_all_bitwise_equal_to_row_per_member_eval(shapes, schedule):
    # 1024 nodes make the member arrays of the square 384 KiB, past the size
    # at which NumPy reuses a temporary operand's buffer
    sc = validate_scene(scene(shapes))
    funcs = build_basis(sc, schedule)
    bs = BasisSet(funcs)
    for shape in sc.shapes:
        for arc in arcs(shape):
            for m in (1, 16, 128, 1024):
                z, _ = _arc_nodes(arc, m)
                assert same_bits(bs.eval_all(z), row_per_member_eval(funcs, z))
                # a node 1e-200 from the start: only the substitution keeps
                # z - a from rounding to zero there
                z, subs = _arc_nodes(arc, m, first=1e-200)
                assert same_bits(bs.eval_all(z, corner_subs=subs),
                                 row_per_member_eval(funcs, z, subs))
            z0, subs0 = complex(z[0]), [(p, c, d[0]) for p, c, d in subs]
            assert same_bits(bs.eval_all(z0, corner_subs=subs0),
                             row_per_member_eval(funcs, z0, subs0))


@pytest.mark.parametrize("shapes,schedule", [
    ([Disk(0j, 1.0), Ellipse(5 + 0j, 2.0, 1.0, 0.3)], Rings(2)),
    ([SQUARE], Powers(6)),
    ([SQUARE], Powers(6, True)),
    (MIXED_SHAPES, Powers(3, True)),
], ids=["disk-ellipse-Rings2", "square-Powers6", "square-Powers6-corners", "mixed-Powers3"])
def test_eval_all_into_buffer_rows(shapes, schedule):
    # quadrature passes the first n rows of its (n+1) x nodes buffer as out
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    n = bs.n
    for shape in sc.shapes:
        for arc in arcs(shape):
            for first in (None, 1e-200):
                z, subs = _arc_nodes(arc, 128, first)
                cs = subs if first else None
                A = np.full((n + 1, z.size), complex(np.nan, np.nan))
                view = A[:n]
                assert bs.eval_all(z, cs, out=view) is view
                assert same_bits(view, bs.eval_all(z, cs))
                assert np.isnan(A[n]).all()
    with pytest.raises(ValueError, match="C-contiguous"):
        bs.eval_all(z, out=np.empty((n, 2 * z.size), complex)[:, ::2])


def test_simple_pole_values_go_straight_into_the_buffer():
    # a basis of first-order poles is written into out with no temporary of its
    # size, and keeps the bits of the per-member expression; at 4096 nodes,
    # the most one part of a quadrature call holds, the values take 4.4 MB,
    # and NumPy's own buffers for a broadcast operand (8192 elements each)
    # stay far below a quarter of that
    sc = validate_scene(scene([Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)]))
    funcs = build_basis(sc, Rings(4))
    bs = BasisSet(funcs)
    z = arcs(sc.shapes[0])[0].point((np.arange(4096) + 0.5) / 4096)
    A = np.empty((bs.n, z.size), complex)
    bs.eval_all(z, out=A)
    tracemalloc.start()
    try:
        bs.eval_all(z, out=A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < A.nbytes / 4
    assert same_bits(A, row_per_member_eval(funcs, z))


def test_first_order_rows_have_the_same_bits_in_every_basis():
    # the fast path of a first-order basis writes 1/(z - a); in a basis that
    # also holds a k = 2 member and a corner member, the same member is the
    # pole power (z - a)^-1.  Both keep the reference's bits at displacements
    # z - a near 1e+-300 and at the ends of the float range, subnormal ones
    # (whose reciprocals overflow) and ones with signed-zero parts
    d = np.concatenate((
        1e300 * np.exp(1j * np.linspace(-3.0, 3.0, 7)), [1.7e308 + 0j, complex(-1e308, 1e308)],
        1e-300 * np.exp(1j * np.linspace(-3.0, 3.0, 7)), [complex(2.3e-308, -2.3e-308)],
        [complex(3e-320, -2e-321), complex(-5e-324, 5e-324), complex(1e-310, 1.0),
         complex(-1.0, 5e-324), complex(4e-309, 0.0)],
        [complex(-1.0, -0.0), complex(-0.0, 1.0), complex(-0.0, -2.0), complex(3.0, 0.0)]))
    first = [PowerPole(0j, 1), PowerPole(8 + 0j, 1)]
    mixed = [PowerPole(8 + 0j, 2), PowerPole(0j, 1), CornerAdapted(8 + 0j, 9 + 0j, -1 / 6, 1)]
    assert BasisSet(first).all_simple and not BasisSet(mixed).all_simple
    # z = 0 + d has z - 0 = d exactly, signed zeros included
    with np.errstate(over="ignore", invalid="ignore"):
        fast = BasisSet(first).eval_all(d)
        general = BasisSet(mixed).eval_all(d)
        ref = row_per_member_eval(first, d)
    assert np.isinf(fast[0]).sum() == 3
    assert same_bits(fast, ref)
    assert same_bits(fast[0], general[1])


def test_corner_values_do_not_depend_on_the_node_count():
    # at 1024 nodes the square's gathered pole powers take 384 KiB, past the
    # size at which NumPy reuses a temporary operand and swaps the operands of
    # a complex product; the first 16 nodes keep the bits they have alone
    sc = validate_scene(scene([SQUARE]))
    bs = BasisSet(build_basis(sc, Powers(6, True)))
    for arc in arcs(SQUARE):
        z, subs = _arc_nodes(arc, 1024)
        assert same_bits(bs.eval_all(z)[:, :16], bs.eval_all(z[:16]))
        head = [(p, c, d[:16]) for p, c, d in subs]
        assert same_bits(bs.eval_all(z, corner_subs=subs)[:, :16],
                         bs.eval_all(z[:16], corner_subs=head))


def _mp_principal_power(mp, w: complex, beta: float):
    """40-digit w**beta on the principal branch; -0 imaginary parts on the
    negative axis take the lower side of the cut."""
    lower_side = w.imag == 0.0 and w.real < 0.0 and math.copysign(1.0, w.imag) < 0.0
    v = mp.exp(mp.mpf(beta) * mp.log(mp.mpc(w.real, abs(w.imag) if lower_side else w.imag)))
    return mp.conj(v) if lower_side else v


def test_principal_power_against_mpmath(rng):
    # |w| log-uniform over [1e-200, 1e3]; arguments anywhere in (-pi, pi],
    # within 1e-16 .. 1e-1 of +-pi, and exactly +-pi through signed zeros
    mp = pytest.importorskip("mpmath")
    m = 200
    mod = 10.0 ** rng.uniform(-200.0, 3.0, 4 * m)
    near = math.pi - 10.0 ** rng.uniform(-16.0, -1.0, m)
    arg = np.concatenate((rng.uniform(-math.pi, math.pi, 2 * m), near, -near))
    w = mod * np.exp(1j * arg)
    axis = 10.0 ** rng.uniform(-200.0, 3.0, 2 * m)
    w = np.concatenate((w, [complex(-x, 0.0) for x in axis[:m]],
                        [complex(-x, -0.0) for x in axis[m:]]))
    for beta in (-1 / 6, -1 / 3, 1 / 4, 0.499):
        got = _principal_power(w, beta)
        with mp.workdps(40):
            for wi, gi in zip(w, got):
                ref = _mp_principal_power(mp, complex(wi), beta)
                bound = (abs(beta * math.log(abs(wi))) + abs(beta * cmath.phase(wi)) + 8.0)
                assert abs(mp.mpc(gi) - ref) <= bound * EPS * abs(ref)


def test_eval_all_matches_scalar_eval_on_both_sides_of_the_cut():
    # the cut of ((z - a)/(z - c))^beta is the segment from a to c; nodes just
    # above and below it take the value of their own side
    c, a = 0.1 + 0.2j, 1.3 - 0.4j
    funcs = [CornerAdapted(c, a, beta, k) for beta in (-1 / 6, 0.499) for k in (1, 3)]
    bs = BasisSet(funcs)
    normal = 1j * (a - c) / abs(a - c)
    t = np.linspace(0.05, 0.95, 7)
    for offset in (1e-13, 1e-9, 1e-5, 1e-2):
        for side in (1.0, -1.0):
            z = c + t * (a - c) + side * offset * normal
            vals = bs.eval_all(z)
            for i, b in enumerate(funcs):
                want = np.array([b.eval(complex(x)) for x in z])
                assert np.all(np.abs(vals[i] - want) <= 1e-13 * np.abs(want))


def test_eval_all_interleaved_groups_and_shared_pole_powers():
    # corner groups interleaved in member order, corner members sharing (c, k)
    # with power poles, and two exponents at one corner point
    c = 0.1j
    funcs = [CornerAdapted(c, 1 + 0j, -1 / 6, 2), PowerPole(c, 2), CornerAdapted(c, 1j, -1 / 6, 1),
             PowerPole(0.2 + 0j, 1), CornerAdapted(c, 1 + 0j, -1 / 6, 1), PowerPole(c, 1),
             CornerAdapted(c, 1j, -1 / 6, 3), CornerAdapted(c, 1 + 0j, 1 / 3, 2),
             PowerPole(-0.1 + 0j, 2), CornerAdapted(-0.1 + 0j, -1 + 0j, -1 / 6, 2)]
    bs = BasisSet(funcs)
    # 4 corner groups, 5 distinct (c, k)
    assert len(bs._gb) == 4 and len(bs._pk) == 5
    z = 3.0 * np.exp(1j * np.linspace(0.1, 6.2, 2000)).reshape(40, 50)
    assert same_bits(bs.eval_all(z), row_per_member_eval(funcs, z))
    subs = [(1 + 0j, slice(None), (z - 1).ravel()), (-1 + 0j, slice(None), (z + 1).ravel())]
    assert same_bits(bs.eval_all(z, corner_subs=subs), row_per_member_eval(funcs, z, subs))
    assert bs.eval_all(z).shape == (10, 40, 50)


def test_eval_parts_gives_each_part_its_own_piece_ends_displacement():
    # the ladder's first level takes all four sides of the square in one
    # call; its nodes nearest a vertex lie about 1e-35 from it in t, where
    # z - a has lost a part of the displacement to rounding, so a corner
    # member has its value there only from the displacement of its own
    # part's piece end: disp_end on the side that ends at the vertex,
    # disp_start on the one that starts there
    sc = validate_scene(scene([SQUARE]))
    funcs = build_basis(sc, Powers(6, True))
    bs = BasisSet(funcs)
    ends = bs.corner_ends(arcs(SQUARE))
    calls = []

    def f(spans, t, z, s1, w):
        calls.append((spans, t, z, s1, bs.eval_parts(ends, spans, t, z, s1)))
        return [0j] * len(spans)

    integrate_arc(f, [arc for arc, _, _ in ends], QuadratureSettings(), rows=bs.n + 1)
    spans, t, z, s1, vals = calls[0]
    assert [i for i, _ in spans] == [0, 1, 2, 3]
    corner_members = 0
    for i, c in spans:
        arc, a0, a1 = ends[i]
        for k, a, delta in ((c.start, a0, arc.disp_start(t[c.start])),
                            (c.stop - 1, a1, arc.disp_end(s1[c.stop - 1]))):
            assert abs(delta) < 1e-30 and z[k] - a != delta
            for j, b in enumerate(funcs):
                if isinstance(b, CornerAdapted) and b.a == a:
                    zc = z[k] - b.c
                    want = cmath.exp(b.beta * cmath.log(delta / zc)) * zc ** -b.k
                    corner_members += 1
                else:
                    want = b.eval(complex(z[k]))
                assert abs(vals[j, k] - want) <= 1e-13 * abs(want)
    assert corner_members == 8 * 6


def test_every_piece_end_of_a_far_square_matches_its_corner():
    # the unit square with a vertex at the origin, scaled by 1e6 and rotated:
    # its third side ends 5.8e-11 from its corner, past 1e-12 times the first
    # side's |start| (0) but within 1e-12 times the boundary's largest |start|
    sq = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
    sc = validate_scene(transform(scene([sq]), 1e6 * cmath.exp(0.3j)))
    bs = BasisSet(build_basis(sc, Powers(6, True)))
    ends = bs.corner_ends(arcs(sc.shapes[0]))
    starts = [a0 for _, a0, _ in ends]
    assert None not in starts and len(set(starts)) == 4
    assert [a1 for _, _, a1 in ends] == starts[1:] + starts[:1]


def test_basis_set_rejects_what_is_not_a_basis_function():
    with pytest.raises(TypeError, match="not a basis function"):
        BasisSet([object()])


@pytest.mark.parametrize("member", [
    PowerPole(0j, 0), PowerPole(0.3 + 0j, -1), CornerAdapted(0j, 1 + 0j, -1 / 6, 0),
    CornerAdapted(0j, 1 + 0j, -1 / 6, -2),
    # no member at all: a bracket needs one, and the solver's LAPACK wrappers
    # reject empty arrays with a bare ValueError
    pytest.param(None, id="empty"),
])
def test_basis_set_rejects_members_not_vanishing_at_infinity(member):
    if member is None:
        with pytest.raises(SceneConfigError, match="empty"):
            BasisSet([])
        return
    with pytest.raises(SceneConfigError, match="vanish at infinity"):
        BasisSet([PowerPole(0j, 1), member])
    member.eval(2.5 + 0.5j)  # the scalar function itself stays defined


def test_d_infinity_of_corner_factor_alone():
    # ((z-a)/(z-c))^beta = 1 + beta (c - a)/z + O(1/z^2)
    f = CornerAdapted(0.2j, 1 + 0j, 0.25, 0)
    assert f.d_infinity() == pytest.approx(0.25 * (0.2j - 1))
    vals = [z * (f.eval(z) - 1.0) for z in (R * cmath.exp(0.37j) for R in (1e4, 1e5, 1e6))]
    assert vals[2] + (vals[2] - vals[1]) / 9.0 == pytest.approx(f.d_infinity(), abs=1e-6)


def test_d_vector_order():
    basis = [PowerPole(0j, 2), PowerPole(1j, 1), PowerPole(0j, 1)]
    assert list(BasisSet(basis).d_vector()) == [0, 1, 1]


# --- schedule config --------------------------------------------------------

def test_schedule_round_trip():
    for sched in (Rings(4), Powers(6, True), Powers(2, False)):
        assert schedule_from_config(schedule_to_config(sched)) == sched


def test_schedule_config_rejects():
    with pytest.raises(SceneConfigError):
        schedule_from_config({"mode": "rings"})
    with pytest.raises(SceneConfigError):
        schedule_from_config({"mode": "rings", "layers": 1, "bogus": 2})
    with pytest.raises(SceneConfigError):
        schedule_from_config({"mode": "spiral", "layers": 1})
    with pytest.raises(SceneConfigError):
        schedule_from_config({"layers": 1})
    with pytest.raises(SceneConfigError, match="unknown fields in powers schedule"):
        schedule_from_config({"mode": "powers", "n": 2, "layers": 1})
    with pytest.raises(SceneConfigError, match="unknown schedule"):
        schedule_to_config(object())


@pytest.mark.parametrize("obj", [
    {"mode": "powers", "n": 4, "corners": "false"},
    {"mode": "powers", "n": 4, "corners": 1},
    {"mode": "powers", "n": 4, "corners": None},
    {"mode": "powers", "n": 2.9},
    {"mode": "powers", "n": 4.0},
    {"mode": "powers", "n": "4"},
    {"mode": "powers", "n": True},
    {"mode": "powers"},
    {"mode": "rings", "layers": True},
    {"mode": "rings", "layers": 1.5},
    {"mode": "rings", "layers": "2"},
    {"mode": "rings", "layers": None},
])
def test_schedule_config_rejects_wrong_types(obj):
    # no coercion: bool("false") is True, int(2.9) is 2 and int(True) is 1
    with pytest.raises(SceneConfigError):
        schedule_from_config(obj)


def test_schedule_config_accepts_json_types():
    assert schedule_from_config({"mode": "powers", "n": 4}) == Powers(4, False)
    assert schedule_from_config({"mode": "powers", "n": 4, "corners": False}) == Powers(4, False)
    assert schedule_from_config({"mode": "powers", "n": 4, "corners": True}) == Powers(4, True)
    assert schedule_from_config({"mode": "rings", "layers": 0}) == Rings(0)
