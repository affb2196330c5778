import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg.blas import zherk

from anacap import integrals
from anacap.basis import (
    BasisSet,
    CornerAdapted,
    PowerPole,
    Powers,
    Rings,
    build_basis,
)
from anacap.errors import MaxDepthError, NonRationalBasisError, PoleOnContourError
from anacap.geometry import (ArcChain, CircularArc, Disk, Ellipse, Polygon, arcs, scene,
                             validate_scene)
from anacap.integrals import (
    GramData,
    _assemble_grams,
    assemble_gram,
    circle_mean_integral,
    circle_pair_integral,
)
from anacap.quadrature import QuadratureSettings, integrate_arc
from anacap.solver import bounds_for_basis, gamma_bounds
from anacap.sublab import max_sweep_radius, random_configuration

from conftest import (MIXED_SHAPES, cantor_disks, each_piece, eighteen_disks, half_disk,
                      row_per_member_eval, same_bits)

TWO_PI = 2 * math.pi
ORACLE = QuadratureSettings(abs_tol=1e-12)
EPS = np.finfo(float).eps
FOUR_ELLIPSES = [Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)]


def quad_pair(b1, b2, circle):
    # independent oracle: quadrature of b1 * conj(b2) over the circle
    (arc,) = arcs(circle)

    def f(t, z, s1, w):
        v1, v2 = BasisSet([b1, b2]).eval_all(z)
        return (v1 * np.conj(v2)) @ w

    return complex(integrate_arc(each_piece(f), [arc], ORACLE)[0])


def quad_mean(b, circle):
    (arc,) = arcs(circle)
    return complex(integrate_arc(each_piece(lambda t, z, s1, w: BasisSet([b]).eval_all(z)[0] @ w),
                                 [arc], ORACLE)[0])


# --- exact circle integrals -------------------------------------------------

def test_pole_at_center_pair():
    c = Disk(1 + 1j, 0.5)
    b = PowerPole(1 + 1j, 1)
    val = circle_pair_integral(b, b, c)
    assert val == pytest.approx(TWO_PI / 0.5, abs=1e-12)


def test_interior_pole_pair_closed_form():
    c = Disk(0, 1.0)
    a = 0.3 + 0.4j
    b = PowerPole(a, 1)
    val = circle_pair_integral(b, b, c)
    assert val == pytest.approx(TWO_PI / (1 - abs(a) ** 2), abs=1e-10)
    assert val == pytest.approx(quad_pair(b, b, c), abs=1e-10)


def test_two_pole_cancellation():
    # one pole inside, the other outside: the Hardy split makes the pair zero
    c = Disk(2, 1.0)
    val = circle_pair_integral(PowerPole(2 + 0j, 1), PowerPole(-2 + 0j, 1), c)
    assert abs(val) < 1e-14
    # the closed-form disk block gives an inside/outside pair exactly zero
    g = assemble_gram(scene([c]), [PowerPole(2 + 0j, 1), PowerPole(-2 + 0j, 1)])
    assert g.H[0, 1] == 0


def test_mean_integral_cases():
    c = Disk(0.5j, 1.0)
    assert abs(circle_mean_integral(PowerPole(0.5j + 0.3, 1), c)) < 1e-14
    outside = 3 + 0j
    val = circle_mean_integral(PowerPole(outside, 1), c)
    assert val == pytest.approx(TWO_PI * 1.0 / (0.5j - outside), abs=1e-12)
    assert val == pytest.approx(quad_mean(PowerPole(outside, 1), c), abs=1e-10)
    for k in (2, 3, 5):
        assert abs(circle_mean_integral(PowerPole(0.5j, k), c)) < 1e-14


def test_power_pole_mean_k1_equals_zero_inside():
    c = Disk(0, 2.0)
    assert abs(circle_mean_integral(PowerPole(0.5, 1), c)) < 1e-14


def test_corner_function_rejected_by_residue_path():
    c = Disk(0, 1.0)
    f = CornerAdapted(0j, 1 + 0j, -1 / 6, 1)
    with pytest.raises(NonRationalBasisError):
        circle_pair_integral(f, f, c)
    with pytest.raises(NonRationalBasisError):
        circle_mean_integral(f, c)


def test_pole_on_contour_error():
    c = Disk(0, 1.0)
    with pytest.raises(PoleOnContourError):
        circle_pair_integral(PowerPole(1 + 0j, 1), PowerPole(5 + 0j, 1), c)


@pytest.mark.parametrize("offset,on_circle", [
    (5e-13, True), (-5e-13, True), (5e-12, False), (-5e-12, False)])
def test_disk_kernel_and_exact_references_share_one_on_circle_rule(offset, on_circle):
    # a pole within 1e-12 of the unit circle is on it for the disk kernel and
    # for the exact references alike; 5e-12 off, all of them take it
    disk = Disk(0j, 1.0)
    sc = validate_scene(scene([disk]))
    pole = PowerPole(complex(1.0 + offset), 1)
    calls = (lambda: assemble_gram(sc, [PowerPole(0.5 + 0j, 1), pole]),
             lambda: circle_pair_integral(pole, pole, disk),
             lambda: circle_mean_integral(pole, disk))
    for call in calls:
        if on_circle:
            with pytest.raises(PoleOnContourError):
                call()
        else:
            call()


def test_residue_vs_quadrature_randomized(rng):
    # property: the closed form and quadrature agree to 1e-9 for random
    # circles and random interior/exterior poles of random order
    cases = 0
    for trial in range(40):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r = rng.uniform(0.5, 1.5)
        circle = Disk(c, r)

        def rand_pole():
            inside = rng.random() < 0.5
            rho = rng.uniform(0.1, 0.8) if inside else rng.uniform(1.3, 2.5)
            return c + rho * r * cmath.exp(1j * rng.uniform(0, TWO_PI))

        kind = trial % 4
        if kind == 0:
            b1, b2 = PowerPole(rand_pole(), 1), PowerPole(rand_pole(), 1)
        elif kind == 1:
            b1 = PowerPole(rand_pole(), int(rng.integers(1, 4)))
            b2 = PowerPole(rand_pole(), 1)
        elif kind == 2:
            b1 = PowerPole(c, int(rng.integers(1, 4)))
            b2 = PowerPole(rand_pole(), int(rng.integers(1, 4)))
        else:
            p = rand_pole()
            b1 = PowerPole(p, int(rng.integers(1, 3)))
            b2 = PowerPole(p, int(rng.integers(1, 3)))
        val = circle_pair_integral(b1, b2, circle)
        ref = quad_pair(b1, b2, circle)
        assert val == pytest.approx(ref, abs=1e-9)
        mv = circle_mean_integral(b1, circle)
        mref = quad_mean(b1, circle)
        assert mv == pytest.approx(mref, abs=1e-9)
        cases += 1
    assert cases == 40


# --- Gram assembly ----------------------------------------------------------

def test_two_disk_gram(two_disks):
    # hand residue computation: own-circle |1/(z-a)|^2 integral is 2pi/r,
    # the far circle adds 2pi r/(d^2 - r^2) with d = 4, and the mean over the
    # far circle is 2pi r/(c - a) = -pi/2
    sc = validate_scene(two_disks)
    basis = build_basis(sc, Rings(0))
    g = assemble_gram(sc, basis, ORACLE)
    expect_H = np.array([[16 / 15, 0], [0, 16 / 15]])
    assert np.allclose(g.H, expect_H, atol=1e-13)
    # the mean of 1/(z-a) over the far circle is 2 pi r / (center - a):
    # -pi/2 for the pole at +2 seen from -2, +pi/2 for the pole at -2 seen
    # from +2 (mean-value property oracle below)
    assert np.allclose(g.u, [-0.25, 0.25], atol=1e-13)
    assert g.c0 == pytest.approx(2.0, abs=1e-14)


def test_two_disk_gram_quadrature_oracle(two_disks):
    sc = validate_scene(two_disks)
    basis = build_basis(sc, Rings(0))
    g = assemble_gram(sc, basis, ORACLE)
    for j in range(2):
        for k in range(2):
            ref = sum(quad_pair(basis[j], basis[k], d) for d in sc.shapes) / TWO_PI
            assert g.H[j, k] == pytest.approx(ref, abs=1e-10)


def test_single_disk_gram():
    sc = validate_scene(scene([Disk(0, 1.0)]))
    g = assemble_gram(sc, [PowerPole(0j, 1)], ORACLE)
    assert g.H[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert abs(g.u[0]) < 1e-14
    assert g.c0 == pytest.approx(1.0, abs=1e-14)


def test_square_c0_and_h11():
    sq = validate_scene(scene([Polygon((1 + 0j, 1j, -1 + 0j, -1j))]))
    g = assemble_gram(sq, [PowerPole(0j, 1)], QuadratureSettings(1e-11))
    assert g.c0 == pytest.approx(4 * math.sqrt(2) / TWO_PI, abs=1e-12)
    # closed form for the |1/z|^2 integral over this square: 2 sqrt(2) pi
    assert g.H[0, 0] == pytest.approx(math.sqrt(2), abs=1e-10)


def test_gram_exactly_hermitian_and_pd(two_disks):
    sc = validate_scene(two_disks)
    for layers in (1, 4):
        basis = build_basis(sc, Rings(layers))
        g = assemble_gram(sc, basis, ORACLE)
        assert np.array_equal(g.H, g.H.conj().T)
        # the public Gram's lower triangle mirrors the upper bit for bit, zeros too
        lower = np.tri(len(basis), k=-1, dtype=bool)
        assert same_bits(g.H[lower], np.conj(g.H.T[lower]))
        L = np.linalg.cholesky(g.H)  # raises if not PD
        assert np.all(np.diag(L).real > 0)


def test_conj_symmetry_against_independent_lower_triangle(two_disks, rng):
    sc = validate_scene(two_disks)
    basis = build_basis(sc, Rings(2))
    g = assemble_gram(sc, basis, ORACLE)
    n = len(basis)
    for _ in range(12):
        j, k = rng.integers(0, n, size=2)
        if j <= k:
            j, k = k, j
        if j == k:
            continue
        direct = sum(circle_pair_integral(basis[j], basis[k], d)
                     for d in sc.shapes) / TWO_PI
        assert g.H[j, k] == pytest.approx(direct, abs=1e-12)
        assert g.H[j, k] == pytest.approx(g.H[k, j].conjugate(), abs=0)


def test_engine_disk_blocks_match_residues():
    # each disk's block, and the scene total, must match the exact
    # closed-form integrals.  Under a basis that is not all first-order
    # poles disks go through the periodic trapezoid rule (on disk A, B's pole
    # at 1.001 sits 1e-3 outside); first-order bases take the closed-form
    # block, checked on two disks where the reflection of the pole 2.0
    # across disk A is exactly A's pole 0.5, and on three small disks far
    # from the origin
    A = Disk(0j, 1.0)
    B = Disk(1.5 + 0j, 0.4995)
    cases = [
        ((A, B), [PowerPole(0.3j, 1), PowerPole(0j, 1), PowerPole(0j, 3),
                  PowerPole(1.001 + 0j, 1), PowerPole(1.5 + 0j, 2)]),
        ((Disk(0j, 1.0), Disk(2.5 + 0j, 1.0)), Rings(1)),
        (tuple(Disk(c, 0.03) for c in (8 + 1j, -6 + 6j, 3 - 9j)), Rings(2)),
    ]
    for disks, basis in cases:
        sc = validate_scene(scene(list(disks)))
        if isinstance(basis, Rings):
            basis = build_basis(sc, basis)
        n = len(basis)
        total_H, total_u = 0, 0
        for disk in sc.shapes:
            g = assemble_gram(scene([disk]), basis)
            ref_H = np.array([[circle_pair_integral(basis[j], basis[k], disk)
                               for k in range(n)] for j in range(n)]) / TWO_PI
            ref_u = np.array([circle_mean_integral(b, disk) for b in basis]) / TWO_PI
            assert np.abs(g.H - ref_H).max() <= 1e-13 * np.abs(ref_H).max()
            assert np.abs(g.u - ref_u).max() <= 1e-13 * np.abs(ref_u).max()
            assert g.c0 == pytest.approx(disk.radius, rel=1e-13, abs=0)
            total_H, total_u = total_H + ref_H, total_u + ref_u
        g = assemble_gram(sc, basis)
        assert np.abs(g.H - total_H).max() <= 1e-13 * np.abs(g.H).max()
        assert np.abs(g.u - total_u).max() <= 1e-13 * np.abs(g.u).max()


@pytest.mark.parametrize("basis", [
    Powers(1),
    [PowerPole(2.3 + 0.2j, 1), PowerPole(-2 + 0j, 1), PowerPole(-0.4 + 5j, 1),
     PowerPole(-1.6 + 0.3j, 1)],
], ids=["Powers1", "explicit-first-order"])
def test_first_order_pole_bases_take_the_disk_kernel(basis, monkeypatch):
    # a basis of first-order poles on disks, whether from Powers(1) or listed
    # by hand, takes the disk kernel and no quadrature; its bracket agrees
    # with the quadrature route's
    sc = validate_scene(scene([Disk(2 + 0j, 1.0), Disk(-2 + 0j, 1.0), Disk(5j, 1.0)]))
    funcs = build_basis(sc, basis) if isinstance(basis, Powers) else basis
    calls = []

    def counting_integrate_arc(*args, **kwargs):
        calls.append(args)
        return integrate_arc(*args, **kwargs)

    monkeypatch.setattr(integrals, "integrate_arc", counting_integrate_arc)
    bs = BasisSet(funcs)
    g = assemble_gram(sc, bs)
    res = bounds_for_basis(sc, bs)
    assert calls == []
    ref = np.array([[sum(circle_pair_integral(a, b, d) for d in sc.shapes) for b in funcs]
                    for a in funcs]) / TWO_PI
    scale = np.sqrt(np.outer(ref.diagonal().real, ref.diagonal().real))
    assert np.all(np.abs(g.H - ref) <= 4 * EPS * scale)
    # the quadrature route: the same disks, each bounded by two half circles
    halves = scene([ArcChain((CircularArc(d.center, d.radius, 0.0, math.pi),
                              CircularArc(d.center, d.radius, math.pi, 2 * math.pi)))
                    for d in sc.shapes])
    q = bounds_for_basis(halves, funcs)
    assert len(calls) == 1
    assert abs(res.lower - q.lower) <= res.slack and abs(res.upper - q.upper) <= res.slack


def test_a_circle_takes_the_disk_kernel_however_it_is_written(monkeypatch):
    # two unit circles as disks, as ellipses with equal axes and as arc chains
    # of one whole turn from three start angles: each boundary is one
    # whole-turn piece with d = 0, so each takes the disk kernel, with no
    # quadrature, and all give one Gram and one bracket, bitwise
    calls = []

    def counting_integrate_arc(*args, **kwargs):
        calls.append(args)
        return integrate_arc(*args, **kwargs)

    monkeypatch.setattr(integrals, "integrate_arc", counting_integrate_arc)
    centers = (-2 + 0j, 2 + 0j)
    forms = [[Disk(c, 1.0) for c in centers], [Ellipse(c, 1.0, 1.0) for c in centers]]
    forms += [[ArcChain((CircularArc(c, 1.0, th, th + 2 * math.pi),)) for c in centers]
              for th in (0.0, 1.3, -2.0)]
    grams, brackets = set(), set()
    for shapes in forms:
        sc = validate_scene(scene(shapes))
        g = assemble_gram(sc, build_basis(sc, Rings(2)))
        grams.add((g.H.tobytes(), g.u.tobytes(), g.c0))
        r = gamma_bounds(sc, Rings(2))
        brackets.add((r.lower, r.upper, r.n_basis, r.solve_residual, r.slack))
    assert calls == []
    assert len(grams) == 1 and len(brackets) == 1


def test_circle_pair_integral_small_far_disk_against_mpmath():
    # poles shifted by -c before reflecting: every entry of a small disk far
    # from the origin matches the 40-digit closed form to 1e-15 relative
    d = Disk(8 + 1j, 0.03)
    basis = build_basis(validate_scene(scene([d])), Rings(2))
    assert len(basis) == 9
    with mp.workdps(40):
        c, r = mp.mpc(d.center), mp.mpf(d.radius)
        for ba in basis:
            for bb in basis:
                wa, wb = mp.mpc(ba.c) - c, mp.mpc(bb.c) - c
                ref = 2 * mp.pi * r / (r * r - wa * mp.conj(wb))
                got = mp.mpc(circle_pair_integral(ba, bb, d))
                assert abs(got - ref) <= 1e-15 * abs(ref)


def test_circle_pair_integral_pole_near_the_centre():
    # a pole 1e-6 from the centre keeps every digit
    b = PowerPole(1e-6 + 0j, 1)
    got = circle_pair_integral(b, b, Disk(0j, 1.0))
    exact = TWO_PI / (1.0 - 1e-12)  # 2 pi r / (r^2 - |w|^2)
    assert abs(got - exact) <= 1e-13 * exact
    with mp.workdps(40):
        ref = 2 * mp.pi / (1 - mp.mpf(1e-6) ** 2)
        assert abs(mp.mpc(got) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("a", [0.99999, 1.00001, 1 - 1e-7, 1 + 1e-7, 0.99999 * cmath.exp(0.7j)])
def test_circle_pair_integral_beside_its_circle(a):
    # a pole next to the circle: the closed form stays exact to the
    # conditioning of r^2 - |a|^2
    b = PowerPole(a, 1)
    got = circle_pair_integral(b, b, Disk(0j, 1.0))
    with mp.workdps(40):
        ref = 2 * mp.pi / abs(1 - abs(mp.mpc(a)) ** 2)
        assert abs(mp.mpc(got) - ref) <= 8 * np.finfo(float).eps / abs(1 - abs(a) ** 2) * ref


@pytest.mark.parametrize("a, j, k", [(0.99999, 2, 3), (1.00001, 2, 2)])
def test_circle_pair_integral_power_poles_beside_its_circle(a, j, k):
    got = circle_pair_integral(PowerPole(a, j), PowerPole(a, k), Disk(0j, 1.0))
    with mp.workdps(40):
        f = lambda t: (mp.expj(t) - a) ** -j * mp.conj((mp.expj(t) - a) ** -k)
        # break the angle at the peak and at every scale of its width 1e-5
        cuts = [sign * 10.0 ** -e for sign in (-1, 1) for e in range(1, 8)]
        ref = mp.quad(f, sorted([-mp.pi, 0, mp.pi, *cuts]))
        assert abs(mp.mpc(got) - ref) <= 8 * np.finfo(float).eps / abs(1 - a * a) * abs(ref)


def hardy_pair_reference(a, k1, b, k2, c, r):
    """\\oint (z - a)^-k1 conj((z - b)^-k2) |dz| over |z - c| = r at mpmath's
    working precision, from the power series of the two factors in
    w = z - c, which are orthogonal on the circle (<w^p, w^q> is
    2 pi r^(2p+1) if p = q, else 0).

    Poles outside expand in w^p, p >= 0, and the sum is
    2 pi r (-x)^-k1 conj((-y)^-k2) 2F1(k1, k2; 1; r^2 / (x conj(y))); poles
    inside expand in w^-p, p >= k, and with big and small the larger and
    smaller of m = k1 - 1 and n = k2 - 1 the sum is 2 pi r x^(big-m)
    conj(y)^(big-n) r^(-2 big-2) C(big, small)
    2F1(big + 1, big + 1; big - small + 1; x conj(y) / r^2); a pole on each
    side has no power in common."""
    x, y, r = mp.mpc(a) - mp.mpc(c), mp.mpc(b) - mp.mpc(c), mp.mpf(r)
    if (abs(x) < r) != (abs(y) < r):
        return mp.mpc(0)
    yc = mp.conj(y)
    if abs(x) > r:
        return 2 * mp.pi * r * (-x) ** -k1 * (-yc) ** -k2 * mp.hyp2f1(k1, k2, 1, r * r / (x * yc))
    m, n = k1 - 1, k2 - 1
    big, small = max(m, n), min(m, n)
    series = mp.hyp2f1(big + 1, big + 1, big - small + 1, x * yc / (r * r))
    return (2 * mp.pi * r * x ** (big - m) * yc ** (big - n) / r ** (2 * big + 2)
            * mp.binomial(big, small) * series)


def test_circle_pair_integral_closed_form_against_mpmath(rng):
    # random circles, orders 1-5, each pole inside (0-0.9 r from the centre)
    # or outside (1.15-3 r): every pair is within 16 eps of its
    # Cauchy-Schwarz scale sqrt(H11 H22), against a 30-digit reference
    sides = set()
    with mp.workdps(30):
        for _ in range(240):
            c, r = complex(*rng.uniform(-2, 2, 2)), rng.uniform(0.2, 3.0)
            poles = []
            for _ in range(2):
                inside = rng.random() < 0.5
                rho = rng.uniform(0.0, 0.9) if inside else rng.uniform(1.15, 3.0)
                poles.append((c + rho * r * cmath.exp(1j * rng.uniform(0, TWO_PI)),
                              int(rng.integers(1, 6))))
                sides.add(inside)
            (a, k1), (b, k2) = poles
            got = circle_pair_integral(PowerPole(a, k1), PowerPole(b, k2), Disk(c, r))
            ref = hardy_pair_reference(a, k1, b, k2, c, r)
            scale = mp.sqrt(abs(hardy_pair_reference(a, k1, a, k1, c, r))
                            * abs(hardy_pair_reference(b, k2, b, k2, c, r)))
            assert abs(mp.mpc(got) - ref) <= 16 * np.finfo(float).eps * scale
    assert sides == {True, False}


# --- the multipole disk kernel -----------------------------------------------



def closed_form_reference(poles, disks, rows):
    """H[a, b] for a in rows and b >= a, and the whole diagonal, at 50 digits:
    the Hardy-split closed form summed disk by disk, from the same float
    poles, centres and radii that the kernel reads."""
    with mp.workdps(50):
        disks = [(mp.mpc(d.center), mp.mpf(d.radius)) for d in disks]
        w = [[mp.mpc(complex(p)) - c for p in poles] for c, _ in disks]
        conj_w = [[mp.conj(x) for x in wd] for wd in w]

        def entry(a, b):
            total = mp.mpc(0)
            for (c, r), wd, cw in zip(disks, w, conj_w):
                ins_a, ins_b = abs(wd[a]) < r, abs(wd[b]) < r
                if ins_a == ins_b:
                    total += (1 if ins_a else -1) * 2 * mp.pi * r / (r * r - wd[a] * cw[b])
            return total / (2 * mp.pi)

        H = {(a, b): entry(a, b) for a in rows for b in range(a, len(poles))}
        diag = [mp.re(entry(a, a)) for a in range(len(poles))]
    return H, diag


def relative_error(H, poles, disks, rows):
    """max |H_ab - ref_ab| / sqrt(ref_aa ref_bb) over the reference's entries."""
    ref, diag = closed_form_reference(poles, disks, rows)
    with mp.workdps(50):
        return max(float(abs(mp.mpc(complex(H[a, b])) - v) / mp.sqrt(diag[a] * diag[b]))
                   for (a, b), v in ref.items())


# two unit disks 2e-10 apart, and a pole 3e-10 outside the first circle: its
# |kappa| on that disk is 1 - 3e-10, so the disk takes _K_MAX moments and the
# tail, which is nearly all of the pair's value
GAP_SCENE = [Disk(-1 - 1e-10 + 0j, 1.0), Disk(1 + 1e-10 + 0j, 1.0)]
GAP_POLE = PowerPole(-1 - 1e-10 + (1 + 3e-10) * cmath.exp(1j), 1)


@pytest.mark.parametrize("disks, basis, elementwise_error", [
    (eighteen_disks(), Rings(4), None),
    # the poles 0.5 and 2 form a mixed pair on both disks, with r^2 - w_a conj(w_b) = 0
    ([Disk(0j, 1.0), Disk(2.5 + 0j, 1.0)], Rings(1), None),
    ([Disk(0.3 - 0.2j, 0.7)], Rings(4), None),
    # a one-entry Gram: one moment row per disk
    ([Disk(complex(3.0 * k, 0.7 * k), 0.3 + 0.1 * k) for k in range(12)],
     [PowerPole(0.1 + 0.05j, 1)], None),
    # |kappa| up to 0.9 on the other disk: both disks are capped, with tails
    ([Disk(0j, 1.0), Disk(2.001 + 0j, 1.0)], Rings(8), None),
    # the large disk sees the small one's poles at |kappa| near 1 - 3e-4, and
    # its r^2 - w_a conj(w_b) cancels to about 1e-3: ill-conditioned input
    ([Disk(0j, 1.0), Disk(1.0011 + 0j, 1e-3)], Rings(4), 6.456e-14),
    # the conditioning of r^2 - |w|^2 = -6e-10 is eps / 6e-10 = 3.7e-7
    (GAP_SCENE, "gap-pole", 4.843e-08),
], ids=["18-disks", "zero-mixed-denominator", "one-disk", "one-pole",
        "rings8-gap-1e-3", "small-disk-beside", "gap-2e-10"])
def test_disk_kernel_matches_the_closed_form_at_50_digits(disks, basis, elementwise_error,
                                                          monkeypatch):
    # the moment sums replace the closed form outside each disk; every entry
    # stays within rounding of the closed form's sum at 50 digits, relative to
    # sqrt(H_aa H_bb), and where the input is ill-conditioned within 1.25
    # times the error of the elementwise closed-form kernel that the moments
    # replaced (measured with it, by this test's reference)
    sc = validate_scene(scene(disks))
    if isinstance(basis, Rings):
        basis = build_basis(sc, basis)
    elif basis == "gap-pole":
        basis = build_basis(sc, Rings(4)) + [GAP_POLE]
    poles = np.array([b.c for b in basis])
    n = poles.size
    moment_rows = []

    def counting_zherk(alpha, a, **kw):
        moment_rows.append(a.shape[1])
        return zherk(alpha, a, **kw)

    monkeypatch.setattr(integrals, "zherk", counting_zherk)
    g = assemble_gram(sc, basis)
    # on the 18 disks the rows of every 61st pole: the whole upper triangle
    # would take about 15 s in mpmath
    rows = range(0, n, 61) if n > 100 else range(n)
    err = relative_error(g.H, poles, sc.shapes, rows)
    # zherk's diagonal is real, and the closed forms added to it leave
    # rounding in their imaginary parts (1e-16 on the one-pole Gram) unless
    # the kernel drops it
    assert (g.H.diagonal().imag == 0).all()
    if elementwise_error is None:
        assert err <= 8 * EPS
    else:
        assert err <= 1.25 * elementwise_error + 4 * EPS
    assert sum(moment_rows) <= integrals._K_MAX * len(disks)
    if basis[-1] is GAP_POLE:
        assert sum(moment_rows) == integrals._K_MAX * len(disks)
    mean = [sum(TWO_PI * d.radius / (d.center - p) for d in sc.shapes
                if abs(p - d.center) > d.radius) for p in poles]
    np.testing.assert_allclose(g.u, np.array(mean) / TWO_PI, rtol=1e-15, atol=0)
    # c0 is formed in its final units, the sum of the radii
    assert g.c0 == sum(d.radius for d in sc.shapes)


def test_blocked_moment_rows_keep_the_closed_form_and_the_split_bits(monkeypatch):
    # 16 Cantor disks under Rings(1) with blocks of at most 32 rows: the
    # scene (n = 80) and the part of 12 disks take their moment rows in six
    # blocks and the part of 4 disks in two, each added into the Gram; every
    # entry stays within rounding of the closed form's sum at 50 digits, and
    # E and F keep the bits they have assembled alone
    monkeypatch.setattr(integrals, "_ROW_BLOCK", 32)
    sc = validate_scene(scene(cantor_disks(2)))
    parts = (scene(sc.shapes[:4]), scene(sc.shapes[4:]))
    bases = [build_basis(p, Rings(1)) for p in parts]
    want = [assemble_gram(p, b) for p, b in zip(parts, bases)]
    union = bases[0] + bases[1]
    blocks = []

    def counting_zherk(alpha, a, **kw):
        blocks.append(a.shape[0])
        return zherk(alpha, a, **kw)

    monkeypatch.setattr(integrals, "zherk", counting_zherk)
    # E's and F's Grams take the union's buffer in turn: each is checked
    # before the next is requested, and a Gram is its upper triangle
    grams = _assemble_grams(sc, BasisSet(union), None, split=(4, len(bases[0])))
    poles = np.array([b.c for b in union])
    assert relative_error(next(grams).H, poles, sc.shapes, range(0, poles.size, 3)) <= 4 * EPS
    for g, w in zip(grams, want):
        assert same_bits(np.triu(g.H), np.triu(w.H)) and same_bits(g.u, w.u)
        assert g.c0 == w.c0
    assert sorted(blocks) == [20] * 2 + [60] * 6 + [80] * 6


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_closed_form_pairs_lists_every_marked_pair_in_disk_order(sign, rng):
    # every pair a <= b that the mask marks on one disk, in (d, a, b) order,
    # with the values of one array expression over that list; masks with
    # empty, sparse and full rows, an entry may be marked on several disks
    # (as the capped tail's is), and the tail's np.add.at sums read this order
    for _ in range(150):
        disks, poles = rng.integers(0, 6), rng.integers(0, 9)
        w = rng.normal(size=(disks, poles)) + 1j * rng.normal(size=(disks, poles))
        r = rng.uniform(0.5, 2.0, (disks, 1))
        mask = rng.random((disks, poles)) < rng.choice([0.0, 0.2, 0.6, 1.0], (disks, 1))
        want = [(d, a, b) for d in range(disks) for a in range(poles)
                for b in range(a, poles) if mask[d, a] and mask[d, b]]
        d, a, b = (np.array(x, int) for x in zip(*want)) if want else [np.zeros(0, int)] * 3
        rd = r[d, 0]
        value = sign * rd / (rd * rd - w[d, a] * np.conj(w[d, b]))
        *got, got_value = integrals._closed_form_pairs(w, r, mask, sign)
        assert all(np.array_equal(x, y) for x, y in zip(got, (d, a, b)))
        assert same_bits(got_value, value)


def test_disk_and_ellipse_gram_is_sum_of_one_shape_grams():
    # disks are summed before the other shapes, so the ellipse, listed first,
    # is added after the disk block
    sc = validate_scene(scene([Ellipse(2 + 0j, 1.5, 0.7, 0.3), Disk(-3 + 0j, 1.0),
                               Disk(0.5 + 4j, 0.5)]))
    basis = build_basis(sc, Rings(2))
    g = assemble_gram(sc, basis)
    parts = [assemble_gram(scene([s]), basis) for s in sc.shapes]
    scale = np.abs(g.H).max()
    assert np.abs(g.H - sum(p.H for p in parts)).max() <= 1e-14 * scale
    assert np.abs(g.u - sum(p.u for p in parts)).max() <= 1e-14 * np.abs(g.u).max()
    assert g.c0 == pytest.approx(sum(p.c0 for p in parts), rel=1e-14, abs=0)


def test_split_grams_are_sums_of_one_disk_grams():
    # each Gram of a ratio record is the sum of its disks' one-disk Grams on
    # the same basis
    sc = validate_scene(scene(eighteen_disks()))
    parts = (scene(sc.shapes[:9]), scene(sc.shapes[9:]))
    bases = [build_basis(p, Rings(4)) for p in parts]
    union = bases[0] + bases[1]
    # E's and F's Grams are written over the union's: copy each, its upper
    # triangle, before the next is requested
    grams = [GramData(np.triu(g.H), g.u, g.c0)
             for g in _assemble_grams(sc, BasisSet(union), None, split=(9, len(bases[0])))]
    for g, part, basis in zip(grams, (sc, *parts), (union, *bases)):
        ones = [assemble_gram(scene([s]), basis) for s in part.shapes]
        # an internal Gram is its upper triangle
        assert (np.abs(g.H - np.triu(sum(p.H for p in ones))).max()
                <= 1e-14 * np.abs(g.H).max())
        assert np.abs(g.u - sum(p.u for p in ones)).max() <= 1e-14 * np.abs(g.u).max()


SPECIALS = np.array([np.nan, np.inf, -np.inf, complex(np.nan, np.inf),
                     complex(-np.inf, np.nan), complex(np.inf, -np.inf)])


def test_disk_gram_is_its_upper_triangle_whatever_the_lower_one_holds():
    # the disk kernel writes its Gram's upper triangle over whatever the
    # array held, as it must in the uninitialized array of an assembly: in an
    # array of NaN and infinities the upper triangle has the bits of a fresh
    # assembly, and the lower one is left as it was
    sc = validate_scene(scene(eighteen_disks()))
    bs = BasisSet(build_basis(sc, Rings(4)))
    want = assemble_gram(sc, bs)
    H = np.resize(SPECIALS, (bs.n, bs.n))
    lower = np.tril_indices(bs.n, -1)
    before = H[lower].tobytes()
    g = integrals._disk_gram([arcs(d)[0] for d in sc.shapes], bs._sa, H)
    assert g.H is H
    assert np.triu(g.H).tobytes() == np.triu(want.H).tobytes()
    assert g.u.tobytes() == want.u.tobytes() and g.c0 == want.c0
    assert H[lower].tobytes() == before


def test_split_grams_in_a_buffer_of_nan_and_inf_have_fresh_bits():
    # each Gram of a split is written into the union's Gram, E and F into
    # views of its leading entries, over whatever was there: with the union's
    # array filled with NaN and infinities before each Gram, every Gram has
    # the bits of a fresh assembly
    sc = validate_scene(scene(eighteen_disks()))
    parts = (scene(sc.shapes[:9]), scene(sc.shapes[9:]))
    bases = [build_basis(p, Rings(4)) for p in parts]
    union = BasisSet(bases[0] + bases[1])
    want = [assemble_gram(s, b) for s, b in zip((sc, *parts), (union, *bases))]
    k = len(bases[0])
    groups = [(sc.shapes, union._sa), (sc.shapes[:9], union._sa[:k]),
              (sc.shapes[9:], union._sa[k:])]
    buf = np.empty((union.n, union.n), complex)
    for (disks, poles), w in zip(groups, want):
        buf.ravel()[:] = np.resize(SPECIALS, buf.size)
        size = len(poles)
        H = buf.reshape(-1)[:size * size].reshape(size, size)
        g = integrals._disk_gram([arcs(d)[0] for d in disks], poles, H)
        assert np.shares_memory(g.H, buf)
        assert np.triu(g.H).tobytes() == np.triu(w.H).tobytes()
        assert g.u.tobytes() == w.u.tobytes() and g.c0 == w.c0


@pytest.mark.parametrize("disks, m", [
    (eighteen_disks(), 9),
    (eighteen_disks(), 9),
    (eighteen_disks(), 1),
    (eighteen_disks(), 17),
    # a one-pole-per-disk basis with a lone last entry
    ([Disk(complex(3.0 * k, 0.7 * k), 0.3 + 0.1 * k) for k in range(12)], 3),
], ids=["straddle", "lone-entries", "m=1", "m=D-1", "lone-entry-nine-disks"])
def test_split_grams_bitwise_equal_to_separate_assembly(disks, m):
    sc = validate_scene(scene(disks))
    parts = (scene(sc.shapes[:m]), scene(sc.shapes[m:]))
    if len(disks) == 18:
        bases = [build_basis(p, Rings(4)) for p in parts]
    else:
        bases = [[PowerPole(d.center, 1) for d in p.shapes] for p in parts]
        bases[1].append(PowerPole(-1 + 2j, 1))
    union = bases[0] + bases[1]
    want = [assemble_gram(s, b) for s, b in zip((sc, *parts), (union, *bases))]
    # the Grams share one buffer: each is checked before the next is requested
    got = _assemble_grams(sc, BasisSet(union), None, split=(m, len(bases[0])))
    for g, w in zip(got, want):
        assert np.array_equal(np.triu(g.H), np.triu(w.H))
        assert np.array_equal(g.u, w.u)
        assert g.c0 == w.c0


def test_split_grams_by_quadrature_match_separate_assembly():
    # power poles take the quadrature path: each group's blocks are the union
    # basis's, restricted, and refined for the whole basis
    sc = validate_scene(scene([Disk(2 + 0j, 1.0), Disk(-2 + 0j, 1.0), Disk(4j, 0.5)]))
    parts = (scene(sc.shapes[:1]), scene(sc.shapes[1:]))
    bases = [build_basis(p, Powers(4)) for p in parts]
    want = [assemble_gram(part, build_basis(part, Powers(4))) for part in (sc, *parts)]
    # no other assembly runs while the split's Grams are handed out
    got = _assemble_grams(sc, BasisSet(bases[0] + bases[1]), None, split=(1, len(bases[0])))
    for g, w in zip(got, want):
        assert np.abs(g.H - np.triu(w.H)).max() <= 1e-13 * np.abs(w.H).max()
        assert np.abs(g.u - w.u).max() <= 1e-13 * np.abs(w.u).max()
        assert g.c0 == pytest.approx(w.c0, rel=1e-15, abs=0)


def test_second_assembly_leaves_the_first_gram_unchanged():
    # the moment rows are reused between calls; the Grams are owned arrays
    first, second = (validate_scene(scene([Disk(c, 0.4 * max_sweep_radius(centers))
                                           for c in centers]))
                     for centers in (random_configuration(18, 3), random_configuration(18, 4)))
    g = assemble_gram(first, build_basis(first, Rings(4)))
    H, u = g.H.copy(), g.u.copy()
    other = assemble_gram(second, build_basis(second, Rings(4)))
    assert same_bits(g.H, H) and same_bits(g.u, u)
    assert not np.shares_memory(g.H, other.H)


def test_pole_on_last_disk_circle_raises():
    disks = [Disk(0j, 1.0), Disk(3 + 0j, 1.0), Disk(6 + 1j, 0.5)]
    sc = validate_scene(scene(disks))
    basis = build_basis(sc, Rings(1)) + [PowerPole(6.5 + 1j, 1)]
    with pytest.raises(PoleOnContourError):
        assemble_gram(sc, basis)


@pytest.mark.parametrize("shapes,schedule", [
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, True)),
    (MIXED_SHAPES, Powers(3, True)),
], ids=["square-Powers6", "mixed-Powers3"])
def test_corner_gram_bitwise_equal_to_row_per_member_assembly(shapes, schedule):
    # the grouped evaluator gives the row-per-member values at every node, so
    # the adaptive rule takes the same nodes and the Gram has the same bits
    sc = validate_scene(scene(shapes))
    funcs = build_basis(sc, schedule)
    ref = BasisSet(funcs)

    def row_per_member(z, corner_subs=None, out=None):
        out[...] = row_per_member_eval(funcs, z, corner_subs)
        return out

    ref.eval_all = row_per_member
    want = assemble_gram(sc, ref)
    got = assemble_gram(sc, funcs)
    assert same_bits(got.H, want.H) and same_bits(got.u, want.u)
    assert got.c0 == want.c0


@pytest.mark.parametrize("shapes,schedule,calls,nodes", [
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, True), 2, 4 * 128),
    (MIXED_SHAPES, Powers(3, True), 3, 896),
    (FOUR_ELLIPSES, Rings(4), 16, 4 * 512),
], ids=["square-Powers6", "mixed-Powers3", "four-ellipses-Rings4"])
def test_quadrature_assembly_work(monkeypatch, shapes, schedule, calls, nodes):
    # integrand calls and nodes of one assembly: every piece starts at 64
    # nodes on one nested ladder, so every node evaluated is kept, and the
    # pieces climb it together, a level's nodes in as few calls as the 2^13
    # rows x nodes of a call allow (one 69-row ellipse piece a call)
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    sizes = []
    eval_all = bs.eval_all

    def counted(z, corner_subs=None, out=None):
        sizes.append(np.size(z))
        return eval_all(z, corner_subs, out=out)

    monkeypatch.setattr(bs, "eval_all", counted)
    assemble_gram(sc, bs)
    assert len(sizes) == calls and sum(sizes) == nodes


def whole_block_converged(new, old, tol, m):
    """Reference for ``integrals._gram_converged``: every entry of each
    stacked raveled m x m block within max(tol, 64 eps sqrt(d_j d_k)) of the
    old one, d = |Re| of the new diagonal, real and imaginary parts compared
    separately; no entry is skipped and nothing is tested first."""
    d = np.abs(new[:, :: m + 1].real)
    scale = np.sqrt(d[:, :, None] * d[:, None, :]).reshape(new.shape)
    diff = new - old
    bound = np.maximum(tol, 64.0 * np.finfo(float).eps * scale)
    return ((np.abs(diff.real) <= bound) & (np.abs(diff.imag) <= bound)).all(axis=1)


def whole_block_test(m):
    return lambda new, old, tol: whole_block_converged(new, old, tol, m)


def bordered_product_gram(sc, bs: BasisSet, settings: QuadratureSettings,
                          rule=None) -> np.ndarray:
    """Reference for quadrature assembly: on each node set the full bordered
    product (A w) A^H of the basis values A with the constant 1 appended as
    row n, over 2 pi, integrated on the arcs and with the basis's corner
    displacements (``BasisSet.eval_parts``); by ``integrate_arc`` on each
    piece alone, or by ``rule(f, arc)`` when given."""
    n = bs.n
    G = np.zeros((n + 1, n + 1), complex)
    for shape in sc.shapes:
        ends = bs.corner_ends(arcs(shape))
        for i, (arc, _, _) in enumerate(ends):

            def f(t, z, s1, w, i=i):
                A = np.vstack([bs.eval_parts(ends, [(i, slice(None))], t, z, s1),
                               np.ones(z.size)])
                return ((A * w) @ A.conj().T).ravel()

            if rule is None:
                (vals,) = integrate_arc(each_piece(f), [arc], settings,
                                        converged=whole_block_test(n + 1))
            else:
                vals = rule(f, arc)
            G += vals.reshape(n + 1, n + 1)
    return G / TWO_PI


def piece_by_piece_gram(sc, bs: BasisSet, settings: QuadratureSettings):
    """Reference for the batched ladder: the Gram of a scene without
    closed-form disks with each piece on a ladder of its own, through
    ``integrate_arc`` on that piece alone, its integrand the bordered
    ``zherk`` of sqrt(w)-scaled values with the basis's corner displacements
    (``BasisSet.eval_parts``); the shapes' blocks summed piece by piece and
    then shape by shape, in order."""
    n = bs.n
    H, u, length = np.zeros((n, n), complex), np.zeros(n, complex), 0
    for shape in sc.shapes:
        ends = bs.corner_ends(arcs(shape))
        G = np.zeros((n + 1, n + 1), complex)
        for i, (arc, _, _) in enumerate(ends):

            def f(t, z, s1, w, i=i):
                A = np.empty((n + 1, z.size), complex)
                bs.eval_parts(ends, [(i, slice(None))], t, z, s1, out=A[:n])
                A[n] = 1.0
                A *= np.sqrt(w)
                return zherk(1.0, A.T, trans=2, lower=1).T.ravel()

            (vals,) = integrate_arc(each_piece(f), [arc], settings, rows=n + 1,
                                    converged=whole_block_test(n + 1))
            G += vals.reshape(n + 1, n + 1)
        H += G[:n, :n]
        u += G[:n, n]
        length += float(G[n, n].real)
    return integrals._gram_data(H, u, length)


FORTY_GON = Polygon(tuple(cmath.exp(2j * math.pi * k / 40) for k in range(40)))


@pytest.mark.parametrize("shapes,schedule,first_calls", [
    ([half_disk(0j, 1.0), Ellipse(40 + 0j, 3.0, 0.5, 0.3)], [Powers(4, True), Rings(2)], None),
    ([FORTY_GON], Powers(3), [2048, 512]),
    ([FORTY_GON, half_disk(3 + 0j)], Powers(1, True), None),
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, True), [256]),
    ([Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)], Rings(4), [64] * 4),
], ids=["half-disk-far-ellipse", "40-gon-Powers3", "40-gon-half-disk-corners", "square-Powers6",
        "four-ellipses-Rings4"])
@pytest.mark.parametrize("tol", [1e-9, 1e-13])
def test_batched_ladder_gram_has_the_bits_of_piece_by_piece_assembly(
        monkeypatch, shapes, schedule, first_calls, tol):
    # the pieces of a scene share one ladder and one integrand call per level
    # while the call stays within _BATCH_TERMS; pieces converge at their own
    # levels (the half-disk's and the far ellipse's differ), a level of the
    # 40-gon takes more than one call, and corners are spliced per piece in
    # calls that hold both pieces at a vertex: the Gram keeps every bit,
    # signed zeros included
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    settings = QuadratureSettings(tol)
    want = piece_by_piece_gram(sc, bs, settings)
    sizes = []
    eval_all = bs.eval_all

    def counted(z, corner_subs=None, out=None):
        sizes.append(np.size(z))
        return eval_all(z, corner_subs, out=out)

    monkeypatch.setattr(bs, "eval_all", counted)
    got = next(_assemble_grams(sc, bs, settings))
    assert (np.triu(got.H).tobytes() == np.triu(want.H).tobytes()
            and got.u.tobytes() == want.u.tobytes())
    assert np.float64(got.c0).tobytes() == np.float64(want.c0).tobytes()
    if first_calls is not None:
        assert sizes[:len(first_calls)] == first_calls


def convergence_cases(m=5, tol=1e-9):
    """(name, new, old) pairs of m x m blocks with a zero lower triangle,
    each built to hit one branch of the Gram convergence test."""
    rng = np.random.default_rng(20261019)
    cases = []

    def case(name, diag, edit=None, old_edit=None):
        old = np.triu(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), 1)
        old[np.diag_indices(m)] = diag
        new = old + np.triu(np.full((m, m), 1e-12 + 1e-12j))
        for block, change in ((new, edit), (old, old_edit)):
            for (j, k), value in (change or {}).items():
                block[j, k] = value
        cases.append((name, new, old))

    big, eps = 1e8, np.finfo(float).eps
    at_bound = 64.0 * eps * np.sqrt(big * big)
    case("converged", 1.0)
    case("converged, large diagonal", big)
    for part in (1, 1j):
        case(f"entry at its scale bound ({part})", big, {(1, 3): at_bound * part},
             {(1, 3): 0j})
        case(f"entry one ulp over its scale bound ({part})", big,
             {(1, 3): np.nextafter(at_bound, 1.0) * part}, {(1, 3): 0j})
        case(f"entry at tol ({part})", 1.0, {(0, 4): tol * part}, {(0, 4): 0j})
        case(f"entry one ulp over tol ({part})", 1.0, {(0, 4): np.nextafter(tol, 1.0) * part},
             {(0, 4): 0j})
    case("diagonal moved", 1.0, {(2, 2): 1.0 + 1e-6})
    case("NaN entry", 1.0, {(0, 3): complex(np.nan, 0.0)})
    case("NaN diagonal", 1.0, {(2, 2): np.nan})
    case("NaN below the diagonal", 1.0, {(3, 1): complex(np.nan, np.nan)})
    case("NaN in the old estimate", 1.0, None, {(1, 2): np.nan})
    for sign in (1.0, -1.0):
        case(f"{sign:+} inf diagonal", 1.0, {(2, 2): sign * np.inf})
        case(f"{sign:+} inf diagonal and a zero one", 1.0, {(2, 2): sign * np.inf, (4, 4): 0j})
        case(f"{sign:+} inf diagonal in both", 1.0, {(2, 2): sign * np.inf},
             {(2, 2): sign * np.inf})
    case("diagonal 1e160, its square overflows", 1.0, {(1, 1): 1e160 + 1e140})
    case("diagonal 1e160, an entry within its bound", 1.0, {(1, 1): 1e160, (1, 3): 1e60})
    case("diagonal 1e160, an entry over its bound", 1.0, {(1, 1): 1e160, (1, 3): 1e70})
    case("zero diagonal within tol", 0.0, {(3, 3): 5e-10})
    case("zero diagonal over tol", 0.0, {(3, 3): 2e-9})
    case("signed zeros", -0.0, {(0, 1): complex(-0.0, -0.0), (2, 4): complex(0.0, -0.0)},
         {(0, 1): 0j, (2, 4): complex(-0.0, 0.0)})
    return cases


def test_gram_convergence_test_decides_as_the_whole_block_test():
    # the diagonal first, then the whole test on the blocks that pass it: the
    # same decision as the whole test, block by block and in any stack of
    # blocks (a call's pieces), at bounds, overflows, infinities and NaN
    m, tol = 5, 1e-9
    cases = convergence_cases(m, tol)
    new = np.stack([c[1].ravel() for c in cases])
    old = np.stack([c[2].ravel() for c in cases])
    with np.errstate(invalid="ignore", over="ignore"):
        want = whole_block_converged(new, old, tol, m)
        assert np.array_equal(integrals._gram_converged(new, old, tol), want)
        for r, (name, _, _) in enumerate(cases):
            got = integrals._gram_converged(new[r:r + 1], old[r:r + 1], tol)
            assert got.tolist() == [want[r]], name
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows = rng.choice(len(cases), size=rng.integers(2, 6), replace=False)
            got = integrals._gram_converged(new[rows], old[rows], tol)
            assert np.array_equal(got, want[rows])
    passed = {name for (name, _, _), ok in zip(cases, want) if ok}
    assert passed == {
        "converged", "converged, large diagonal", "entry at its scale bound (1)",
        "entry at its scale bound (1j)", "entry at tol (1)", "entry at tol (1j)",
        "+1.0 inf diagonal", "-1.0 inf diagonal", "diagonal 1e160, its square overflows",
        "diagonal 1e160, an entry within its bound", "zero diagonal within tol", "signed zeros"}


@pytest.mark.parametrize("shapes,schedule,tol,fails", [
    (FOUR_ELLIPSES, Rings(4), 1e-9, 8),
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, True), 1e-9, 0),
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, True), 1e-13, 0),
    (MIXED_SHAPES, Powers(3, True), 1e-9, 2),
], ids=["four-ellipses-Rings4", "square-Powers6", "square-Powers6-1e-13", "mixed-Powers3"])
def test_gram_convergence_decisions_on_the_ladder_levels(monkeypatch, shapes, schedule, tol,
                                                         fails):
    # every piece's test on the level estimates an assembly makes decides as
    # the whole test, on the levels that fail (each ellipse fails twice, at
    # 128 and 256 nodes) and on the one where it stops
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    test, decisions = integrals._gram_converged, []

    def both(new, old, tol):
        got = test(new, old, tol)
        assert np.array_equal(got, whole_block_converged(new, old, tol, bs.n + 1))
        decisions.extend(got.tolist())
        return got

    monkeypatch.setattr(integrals, "_gram_converged", both)
    next(_assemble_grams(sc, bs, QuadratureSettings(tol)))
    assert decisions.count(True) == sum(len(arcs(s)) for s in sc.shapes)
    assert decisions.count(False) == fails


def test_warm_quadrature_assembly_allocates_few_blocks():
    # a warm four-ellipse assembly (n = 68) allocates at most 9 blocks of
    # (n + 1)^2 complex values at once: the pieces' running estimates, one
    # call's sums and the convergence test's temporaries.  NumPy's own
    # iteration buffers for the integrand's broadcast operands (two of 128
    # KiB in NumPy 2.4) come on top
    sc = validate_scene(scene(FOUR_ELLIPSES))
    bs = BasisSet(build_basis(sc, Rings(4)))
    next(_assemble_grams(sc, bs, None))
    tracemalloc.start()
    try:
        next(_assemble_grams(sc, bs, None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * (bs.n + 1) ** 2 * 16 + 2 * 128 * 1024


def test_warm_disk_kernel_holds_few_disks_by_poles_arrays():
    # into a Gram made beforehand, the disk kernel's traced peak on the 64
    # Cantor disks of generation 3 (n = 1,088) is one block of at most
    # max(128, disks) moment rows, w, conj(kappa), its K-sorted copy and the
    # temporaries of one elementwise step at a time; the inside pairs'
    # closed forms are made before the sorted copy (3.56 disks x poles
    # complex arrays)
    sc = validate_scene(scene(cantor_disks(3)))
    bs = BasisSet(build_basis(sc, Rings(4)))
    H = np.empty((bs.n, bs.n), complex)
    circles = [arcs(d)[0] for d in sc.shapes]
    integrals._disk_gram(circles, bs._sa, H)
    tracemalloc.start()
    try:
        integrals._disk_gram(circles, bs._sa, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    disks = len(sc.shapes)
    assert peak <= 3.75 * 16 * disks * bs.n + 16 * max(128, disks) * bs.n


def test_warm_assemble_gram_mirrors_its_own_gram():
    # the public Gram is the one the assembly made, mirrored in place a
    # column block at a time: on the 64 Cantor disks of generation 3 (n =
    # 1,088) a warm call peaks at the Gram plus the disk kernel's arrays
    # (1.33 Grams), where a mirror into a second array peaked at 2.07
    sc = validate_scene(scene(cantor_disks(3)))
    basis = build_basis(sc, Rings(4))
    n = len(basis)
    assemble_gram(sc, basis)
    tracemalloc.start()
    try:
        g = assemble_gram(sc, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * n * n
    assert np.array_equal(g.H, np.conj(g.H.T))


@pytest.mark.parametrize("shapes,schedule", [
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, True)),
    (MIXED_SHAPES, Powers(3, True)),
    (FOUR_ELLIPSES, Rings(4)),
], ids=["square-Powers6", "mixed-Powers3", "four-ellipses-Rings4"])
def test_quadrature_blocks_have_an_exactly_real_diagonal(shapes, schedule):
    # zherk writes a real diagonal and the ladder's sums keep it, so the
    # Gram's finishing step need not drop an imaginary part there
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    for G in integrals._quad_blocks(bs, [arcs(s) for s in sc.shapes], QuadratureSettings()):
        assert not np.diag(G).imag.any()


def test_max_depth_error_names_the_first_failing_piece_in_scene_order():
    # two flat ellipses fail the 2^16-node cap at the same level; the error
    # names the earlier one, as a shape-by-shape assembly would, and the
    # half-disk before them converges first
    shapes = [half_disk(0j, 1.0), Ellipse(10 + 0j, 1.0, 1e-3), Ellipse(-10 + 0j, 1.0, 1e-3)]
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, [Powers(2, True), Rings(1), Rings(1)]))
    with pytest.raises(MaxDepthError, match=r"65536 nodes on the arc from 11\+0j to 11\+0j"):
        assemble_gram(sc, bs)


@pytest.mark.parametrize("shapes,schedule", [
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, True)),
    (MIXED_SHAPES, Powers(3, True)),
    ([Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)], Rings(4)),
], ids=["square-Powers6", "mixed-Powers3", "four-ellipses-Rings4"])
def test_quadrature_gram_matches_the_full_bordered_product(shapes, schedule):
    # the upper triangle from one Hermitian update of sqrt(w)-scaled values
    # against the full product of the values and the weighted values
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    settings = QuadratureSettings()
    ref = bordered_product_gram(sc, bs, settings)
    g = assemble_gram(sc, bs, settings)
    n = bs.n
    tol = 1e-13 * np.abs(ref).max()
    assert np.abs(g.H - ref[:n, :n]).max() <= tol
    assert np.abs(g.u - ref[:n, n]).max() <= tol
    assert abs(g.c0 - ref[n, n].real) <= tol
    # exactly Hermitian, with an exactly real diagonal
    assert np.array_equal(g.H, g.H.conj().T) and not np.diag(g.H).imag.any()


def u6_panel_rule(f, arc, nodes=1 << 14):
    """A fixed fine reference: on an open piece, 16-point Gauss-Legendre
    panels on each half under t = 0.5 u^6 from that half's end (``nodes``
    per half); on a closed piece, the periodic trapezoid rule on twice as
    many nodes.  Summed in chunks to keep the integrand's buffers small."""
    if arc.start == arc.end:
        t = (np.arange(2 * nodes) + 0.5) / (2 * nodes)
        halves = [(t, 1.0 - t, np.full(t.size, 0.5 / nodes))]
    else:
        x, wx = np.polynomial.legendre.leggauss(16)
        panels = nodes // x.size
        u = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()
        s, w = 0.5 * u ** 6, np.tile(0.5 * wx / panels, panels) * 3.0 * u ** 5
        halves = [(s, 1.0 - s, w), (1.0 - s, s, w)]
    total = 0j
    for t, s1, w in halves:
        w = w * np.abs(arc._point_velocity(t)[1])
        z = arc.point(t)
        for i in range(0, t.size, 4096):
            c = slice(i, i + 4096)
            total = total + f(t[c], z[c], s1[c], w[c])
    return total


def _bordered(g) -> np.ndarray:
    n = g.u.size
    G = np.empty((n + 1, n + 1), complex)
    G[:n, :n], G[:n, n], G[n, :n], G[n, n] = g.H, g.u, g.u.conj(), g.c0
    return G


@pytest.mark.parametrize("tol", [1e-9, 1e-13])
@pytest.mark.parametrize("shapes,schedule", [
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, True)),
    (MIXED_SHAPES, Powers(3, True)),
    ([Polygon((1 + 0j, cmath.exp(2j * math.pi / 3), cmath.exp(4j * math.pi / 3)))],
     Powers(6, True)),
    ([half_disk(0j, 1.0)], Powers(8)),
], ids=["square-Powers6", "mixed-Powers3", "triangle-Powers6", "half-disk-Powers8"])
def test_accepted_gram_within_its_convergence_bound_of_a_fine_reference(shapes, schedule, tol):
    # every entry of the accepted bordered Gram lies within the bound the
    # convergence test claims, max(tol, 64 eps sqrt(G_jj G_kk)) / 2 pi, of the
    # former corner rule run at a fixed fine resolution
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    ref = bordered_product_gram(sc, bs, None, rule=u6_panel_rule)
    got = _bordered(assemble_gram(sc, bs, QuadratureSettings(tol)))
    d = TWO_PI * ref.diagonal().real
    bound = np.maximum(tol, 64 * np.finfo(float).eps * np.sqrt(np.outer(d, d))) / TWO_PI
    assert (np.abs(got - ref) <= bound).all()


def test_gram_data_scales_each_component_by_the_reciprocal_of_two_pi(rng):
    n = 40
    parts = [rng.normal(size=(n + 1, n)) * 10.0 ** rng.integers(-300, 300, (n + 1, n))
             for _ in range(2)]
    A = parts[0] + 1j * parts[1]
    # subnormals, extremes and zeros of both signs, in the upper triangle,
    # on the diagonal and in u
    A[0, 1:9] = [5e-324, -1e-310 + 3j, 1.7e308, -1e300j, 0j, complex(-0.0, -0.0),
                 complex(-0.0, 2.0), complex(1.0, -0.0)]
    A[3, 3] = 2.5e-320
    A[n, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0), -7e-321, 1e299]
    H, u = A[:n].copy(), A[n].copy()
    g = integrals._gram_data(H, u, 3.0)
    # reference: both float64 components times fl(1/2pi); only the upper
    # triangle of H is the Gram's
    for got, x in ((np.triu(g.H), np.triu(A[:n])), (g.u, A[n])):
        assert same_bits(got, (x.view(np.float64) * (1.0 / TWO_PI)).view(complex))
        # the complex division gives the same bits in every nonzero component
        div = x / TWO_PI
        nonzero = x.view(np.float64) != 0
        assert np.array_equal(got, div)
        assert np.array_equal(got.view(np.float64)[nonzero].view(np.uint64),
                              div.view(np.float64)[nonzero].view(np.uint64))
    assert g.c0 == 3.0 / TWO_PI
