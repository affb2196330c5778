import cmath
import math

import numpy as np
import pytest

from anacap.basis import BasisSet, CornerAdapted, PowerPole, Rings, SimplePole, build_basis
from anacap.errors import NonRationalBasisError, PoleOnContourError
from anacap.geometry import Disk, Polygon, arcs, scene, validate_scene
from anacap.integrals import (
    assemble_gram,
    circle_mean_integral,
    circle_pair_integral,
)
from anacap.quadrature import QuadratureSettings, integrate_arc

TWO_PI = 2 * math.pi
ORACLE = QuadratureSettings(abs_tol=1e-12)


def quad_pair(b1, b2, circle):
    # independent oracle: quadrature of b1 * conj(b2) over the circle
    (arc,) = arcs(circle)

    def f(t, z, s0, s1, w):
        v1, v2 = BasisSet([b1, b2]).eval_all(z)
        return (v1 * np.conj(v2)) @ w

    return complex(integrate_arc(f, arc, ORACLE))


def quad_mean(b, circle):
    (arc,) = arcs(circle)
    return complex(integrate_arc(lambda t, z, s0, s1, w: BasisSet([b]).eval_all(z)[0] @ w,
                                 arc, ORACLE))


# --- exact circle integrals -------------------------------------------------

def test_pole_at_center_pair():
    c = Disk(1 + 1j, 0.5)
    b = SimplePole(1 + 1j)
    val = circle_pair_integral(b, b, c)
    assert val == pytest.approx(TWO_PI / 0.5, abs=1e-12)


def test_interior_pole_pair_closed_form():
    c = Disk(0, 1.0)
    a = 0.3 + 0.4j
    b = SimplePole(a)
    val = circle_pair_integral(b, b, c)
    assert val == pytest.approx(TWO_PI / (1 - abs(a) ** 2), abs=1e-10)
    assert val == pytest.approx(quad_pair(b, b, c), abs=1e-10)


def test_two_pole_cancellation():
    # one pole inside, the other's reflection inside: residues cancel exactly
    c = Disk(2, 1.0)
    val = circle_pair_integral(SimplePole(2 + 0j), SimplePole(-2 + 0j), c)
    assert abs(val) < 1e-14
    # the closed-form disk block gives an inside/outside pair exactly zero
    g = assemble_gram(scene([c]), [SimplePole(2 + 0j), SimplePole(-2 + 0j)])
    assert g.H[0, 1] == 0


def test_mean_integral_cases():
    c = Disk(0.5j, 1.0)
    assert abs(circle_mean_integral(SimplePole(0.5j + 0.3), c)) < 1e-14
    outside = 3 + 0j
    val = circle_mean_integral(SimplePole(outside), c)
    assert val == pytest.approx(TWO_PI * 1.0 / (0.5j - outside), abs=1e-12)
    assert val == pytest.approx(quad_mean(SimplePole(outside), c), abs=1e-10)
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
        circle_pair_integral(SimplePole(1 + 0j), SimplePole(5 + 0j), c)


def test_residue_vs_quadrature_randomized(rng):
    # property: the residue and quadrature paths agree to 1e-9 for random
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
            b1, b2 = SimplePole(rand_pole()), SimplePole(rand_pole())
        elif kind == 1:
            b1 = PowerPole(rand_pole(), int(rng.integers(1, 4)))
            b2 = SimplePole(rand_pole())
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
    g = assemble_gram(sc, [SimplePole(0j)], ORACLE)
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
    # each disk's block, and the scene total, must match the exact residue
    # integrals.  Under a basis that is not all simple poles disks go through
    # the periodic trapezoid rule (on disk A, B's pole at 1.001 sits 1e-3
    # outside); all-simple-pole bases take the closed-form block, checked on
    # two disks where the reflection of the pole 2.0 across disk A is exactly
    # A's pole 0.5, and on three small disks far from the origin
    A = Disk(0j, 1.0)
    B = Disk(1.5 + 0j, 0.4995)
    cases = [
        ((A, B), [SimplePole(0.3j), PowerPole(0j, 1), PowerPole(0j, 3),
                  SimplePole(1.001 + 0j), PowerPole(1.5 + 0j, 2)]),
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
            assert g.c0 == pytest.approx(disk.radius, rel=1e-13)
            total_H, total_u = total_H + ref_H, total_u + ref_u
        g = assemble_gram(sc, basis)
        assert np.abs(g.H - total_H).max() <= 1e-13 * np.abs(g.H).max()
        assert np.abs(g.u - total_u).max() <= 1e-13 * np.abs(g.u).max()
