import cmath
import math

import numpy as np
import pytest

from anacap import integrals
from anacap.basis import (
    BasisSet,
    CornerAdapted,
    PowerPole,
    Powers,
    Rings,
    SimplePole,
    build_basis,
)
from anacap.errors import NonRationalBasisError, PoleOnContourError
from anacap.geometry import Disk, Ellipse, Polygon, arcs, scene, validate_scene
from anacap.integrals import (
    _DISK_CHUNK,
    _assemble_grams,
    assemble_gram,
    circle_mean_integral,
    circle_pair_integral,
)
from anacap.quadrature import QuadratureSettings, integrate_arc
from anacap.sublab import max_sweep_radius, random_configuration

from conftest import MIXED_SHAPES, row_per_member_eval, same_bits

TWO_PI = 2 * math.pi
ORACLE = QuadratureSettings(abs_tol=1e-12)


def quad_pair(b1, b2, circle):
    # independent oracle: quadrature of b1 * conj(b2) over the circle
    (arc,) = arcs(circle)

    def f(t, z, s1, w):
        v1, v2 = BasisSet([b1, b2]).eval_all(z)
        return (v1 * np.conj(v2)) @ w

    return complex(integrate_arc(f, arc, ORACLE))


def quad_mean(b, circle):
    (arc,) = arcs(circle)
    return complex(integrate_arc(lambda t, z, s1, w: BasisSet([b]).eval_all(z)[0] @ w,
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


def test_circle_pair_integral_small_far_disk_against_mpmath():
    # poles shifted by -c before reflecting: every entry of a small disk far
    # from the origin matches the 40-digit closed form to 1e-15 relative
    mp = pytest.importorskip("mpmath")
    d = Disk(8 + 1j, 0.03)
    basis = build_basis(validate_scene(scene([d])), Rings(2))
    assert len(basis) == 9
    with mp.workdps(40):
        c, r = mp.mpc(d.center), mp.mpf(d.radius)
        for ba in basis:
            for bb in basis:
                wa, wb = mp.mpc(ba.a) - c, mp.mpc(bb.a) - c
                ref = 2 * mp.pi * r / (r * r - wa * mp.conj(wb))
                got = mp.mpc(circle_pair_integral(ba, bb, d))
                assert abs(got - ref) <= 1e-15 * abs(ref)


def test_circle_pair_integral_pole_near_the_centre_takes_the_midpoint_rule(monkeypatch):
    # a pole 1e-6 from the centre lies within 1e-4 r of the measure's pole at
    # the centre, where the residues would cancel: the midpoint rule runs
    mp = pytest.importorskip("mpmath")
    calls = []
    spectral = integrals._spectral_circle_pair
    monkeypatch.setattr(integrals, "_spectral_circle_pair",
                        lambda *args: calls.append(args) or spectral(*args))
    b = SimplePole(1e-6 + 0j)
    got = circle_pair_integral(b, b, Disk(0j, 1.0))
    assert len(calls) == 1
    exact = TWO_PI / (1.0 - 1e-12)  # 2 pi r / (r^2 - |w|^2)
    assert abs(got - exact) <= 1e-13 * exact
    with mp.workdps(40):
        ref = 2 * mp.pi / (1 - mp.mpf(1e-6) ** 2)
        assert abs(mp.mpc(got) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("a", [0.99999, 1.00001, 1 - 1e-7, 1 + 1e-7, 0.99999 * cmath.exp(0.7j)])
def test_circle_pair_integral_beside_its_circle(a):
    # a pole next to the circle and its reflection across it are close, but
    # only the one inside carries a residue: the residue path stays exact to
    # the conditioning of r^2 - |a|^2
    mp = pytest.importorskip("mpmath")
    b = SimplePole(a)
    got = circle_pair_integral(b, b, Disk(0j, 1.0))
    with mp.workdps(40):
        ref = 2 * mp.pi / abs(1 - abs(mp.mpc(a)) ** 2)
        assert abs(mp.mpc(got) - ref) <= 8 * np.finfo(float).eps / abs(1 - abs(a) ** 2) * ref


@pytest.mark.parametrize("a, j, k", [(0.99999, 2, 3), (1.00001, 2, 2)])
def test_circle_pair_integral_power_poles_beside_its_circle(a, j, k):
    mp = pytest.importorskip("mpmath")
    got = circle_pair_integral(PowerPole(a, j), PowerPole(a, k), Disk(0j, 1.0))
    with mp.workdps(40):
        f = lambda t: (mp.expj(t) - a) ** -j * mp.conj((mp.expj(t) - a) ** -k)
        # break the angle at the peak and at every scale of its width 1e-5
        cuts = [sign * 10.0 ** -e for sign in (-1, 1) for e in range(1, 8)]
        ref = mp.quad(f, sorted([-mp.pi, 0, mp.pi, *cuts]))
        assert abs(mp.mpc(got) - ref) <= 8 * np.finfo(float).eps / abs(1 - a * a) * abs(ref)


# --- the chunked all-disk kernel --------------------------------------------

def one_disk_block(poles, disk):
    # the Hardy-split closed form for a single disk as a full n x n block
    w, r = poles - disk.center, disk.radius
    inside = np.abs(w) < r
    denom = r * r - np.outer(w, np.conj(w))
    H = np.divide(TWO_PI * r * np.where(inside, 1.0, -1.0)[:, None], denom,
                  out=np.zeros_like(denom), where=inside[:, None] == inside[None, :])
    mean = np.where(inside, 0j, TWO_PI * r / np.where(poles != disk.center,
                                                       disk.center - poles, 1.0))
    return H, mean


def eighteen_disks():
    centers = random_configuration(18, 3)
    r = 0.4 * max_sweep_radius(centers)
    return [Disk(c, r) for c in centers]


@pytest.mark.parametrize("disks, basis", [
    (eighteen_disks(), Rings(4)),
    # the poles 0.5 and 2 form a mixed pair on both disks, with r^2 - w_a conj(w_b) = 0
    ([Disk(0j, 1.0), Disk(2.5 + 0j, 1.0)], Rings(1)),
    ([Disk(0.3 - 0.2j, 0.7)], Rings(4)),
    # a one-entry Gram: its disk terms must still be summed in disk order
    ([Disk(complex(3.0 * k, 0.7 * k), 0.3 + 0.1 * k) for k in range(12)],
     [SimplePole(0.1 + 0.05j)]),
], ids=["18-disks", "zero-mixed-denominator", "one-disk", "one-pole"])
def test_disk_kernel_bitwise_equal_to_per_disk_sum(disks, basis):
    sc = validate_scene(scene(disks))
    if isinstance(basis, Rings):
        basis = build_basis(sc, basis)
    poles = np.array([b.a for b in basis])
    n = poles.size
    H, u = np.zeros((n, n), complex), np.zeros(n, complex)
    for disk in sc.shapes:
        Hd, ud = one_disk_block(poles, disk)
        H += Hd
        u += ud
    di = np.arange(n)
    H[di, di] = H[di, di].real
    lower = np.tril_indices(n, -1)
    H[lower] = np.conj(H.T[lower])
    g = assemble_gram(sc, basis)
    assert np.array_equal(g.H, H / TWO_PI)
    assert np.array_equal(g.u, u / TWO_PI)
    assert g.c0 == sum(TWO_PI * d.radius for d in sc.shapes) / TWO_PI
    if len(disks) == 18:
        # many row chunks, and the first chunk's row count does not divide n
        assert n == 306 and n % (_DISK_CHUNK // (18 * n)) != 0


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
    assert g.c0 == pytest.approx(sum(p.c0 for p in parts), rel=1e-14)


def test_split_grams_are_sums_of_one_disk_grams():
    # each Gram of a ratio record is the sum of its disks' one-disk Grams on
    # the same basis
    sc = validate_scene(scene(eighteen_disks()))
    parts = (scene(sc.shapes[:9]), scene(sc.shapes[9:]))
    bases = [build_basis(p, Rings(4)) for p in parts]
    union = bases[0] + bases[1]
    grams = _assemble_grams(sc, BasisSet(union), None, split=(9, len(bases[0])))
    for g, part, basis in zip(grams, (sc, *parts), (union, *bases)):
        ones = [assemble_gram(scene([s]), basis) for s in part.shapes]
        assert np.abs(g.H - sum(p.H for p in ones)).max() <= 1e-14 * np.abs(g.H).max()
        assert np.abs(g.u - sum(p.u for p in ones)).max() <= 1e-14 * np.abs(g.u).max()


def chunk_rows(n, disks):
    # the row chunks [i0, i1) of the disk kernel, by its own formula
    rows, i0 = [], 0
    while i0 < n:
        i1 = min(n, i0 + max(1, integrals._DISK_CHUNK // (disks * (n - i0))))
        rows.append((i0, i1))
        i0 = i1
    return rows


@pytest.mark.parametrize("disks, m, chunk", [
    (eighteen_disks(), 9, None),  # a row chunk holds both E and F rows
    (eighteen_disks(), 9, 1),  # one row per chunk: a lone entry ends each block
    (eighteen_disks(), 1, None),
    (eighteen_disks(), 17, None),
    # F x F ends in a lone entry whose nine disk terms sum to another value
    # pairwise than in disk order
    ([Disk(complex(3.0 * k, 0.7 * k), 0.3 + 0.1 * k) for k in range(12)], 3, 1),
], ids=["straddle", "lone-entries", "m=1", "m=D-1", "lone-entry-nine-disks"])
def test_split_grams_bitwise_equal_to_separate_assembly(disks, m, chunk, monkeypatch):
    sc = validate_scene(scene(disks))
    parts = (scene(sc.shapes[:m]), scene(sc.shapes[m:]))
    if len(disks) == 18:
        bases = [build_basis(p, Rings(4)) for p in parts]
    else:
        bases = [[SimplePole(d.center) for d in p.shapes] for p in parts]
        bases[1].append(SimplePole(-1 + 2j))
    union = bases[0] + bases[1]
    # references with the kernel's own chunking, before any patch
    want = [assemble_gram(s, b) for s, b in zip((sc, *parts), (union, *bases))]
    if chunk is not None:
        monkeypatch.setattr(integrals, "_DISK_CHUNK", chunk)
    k = len(bases[0])
    if chunk is None and m == 9:
        assert any(i0 < k < i1 for i0, i1 in chunk_rows(len(union), 18))
    got = _assemble_grams(sc, BasisSet(union), None, split=(m, k))
    for g, w in zip(got, want):
        assert np.array_equal(g.H, w.H)
        assert np.array_equal(g.u, w.u)
        assert g.c0 == w.c0


def test_split_grams_by_quadrature_match_separate_assembly():
    # power poles take the quadrature path: each group's blocks are the union
    # basis's, restricted, and refined for the whole basis
    sc = validate_scene(scene([Disk(2 + 0j, 1.0), Disk(-2 + 0j, 1.0), Disk(4j, 0.5)]))
    parts = (scene(sc.shapes[:1]), scene(sc.shapes[1:]))
    bases = [build_basis(p, Powers(4)) for p in parts]
    got = _assemble_grams(sc, BasisSet(bases[0] + bases[1]), None, split=(1, len(bases[0])))
    for g, part in zip(got, (sc, *parts)):
        w = assemble_gram(part, build_basis(part, Powers(4)))
        assert np.abs(g.H - w.H).max() <= 1e-13 * np.abs(w.H).max()
        assert np.abs(g.u - w.u).max() <= 1e-13 * np.abs(w.u).max()
        assert g.c0 == pytest.approx(w.c0, rel=1e-15)


def test_pole_on_last_disk_circle_raises():
    disks = [Disk(0j, 1.0), Disk(3 + 0j, 1.0), Disk(6 + 1j, 0.5)]
    sc = validate_scene(scene(disks))
    basis = build_basis(sc, Rings(1)) + [SimplePole(6.5 + 1j)]
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
    ([Polygon((1 + 0j, 1j, -1 + 0j, -1j))], Powers(6, True), 16, 1536),
    (MIXED_SHAPES, Powers(3, True), 26, 4736),
], ids=["square-Powers6", "mixed-Powers3"])
def test_corner_assembly_work(monkeypatch, shapes, schedule, calls, nodes):
    # integrand calls and nodes of one assembly: every piece starts at 64
    # nodes, and no corner-mapped piece is accepted below 8 panels
    sc = validate_scene(scene(shapes))
    bs = BasisSet(build_basis(sc, schedule))
    sizes = []
    eval_all = bs.eval_all

    def counted(z, corner_subs=None, out=None):
        sizes.append(np.size(z))
        return eval_all(z, corner_subs, out=out)

    monkeypatch.setattr(bs, "eval_all", counted)
    assemble_gram(sc, bs)
    assert 0 < len(sizes) <= calls and sum(sizes) <= nodes


def bordered_product_gram(sc, bs: BasisSet, settings: QuadratureSettings) -> np.ndarray:
    """Reference for quadrature assembly: on each node set the full bordered
    product (A w) A^H of the basis values A with the constant 1 appended as
    row n, over 2 pi, integrated on the arcs and with the corner flags and
    displacements that ``_quad_block`` uses."""
    n = bs.n
    corner_pts = bs.corner_points()
    G = np.zeros((n + 1, n + 1), complex)
    for shape in sc.shapes:
        pieces = arcs(shape)
        scale = max(1.0, abs(pieces[0].start))
        for arc in pieces:
            a0 = integrals._matching_corner(corner_pts, arc.start, scale)
            a1 = integrals._matching_corner(corner_pts, arc.end, scale)

            def f(t, z, s1, w, arc=arc, a0=a0, a1=a1):
                subs = [(a, d) for a, d in ((a0, arc.disp_start(t)), (a1, arc.disp_end(s1)))
                        if a is not None]
                A = np.vstack([bs.eval_all(z, subs or None), np.ones(z.size)])
                return ((A * w) @ A.conj().T).ravel()

            vals = integrate_arc(f, arc, settings, singular_start=a0 is not None,
                                 singular_end=a1 is not None,
                                 scale=lambda v: integrals._gram_scale(v, n + 1))
            G += vals.reshape(n + 1, n + 1)
    return G / TWO_PI


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
    # reference: real diagonal, conjugate mirror of the upper triangle, then
    # both float64 components times fl(1/2pi)
    ref = A[:n].copy()
    di = np.arange(n)
    ref[di, di] = ref[di, di].real
    lower = np.tri(n, k=-1, dtype=bool)
    ref[lower] = np.conj(ref.T[lower])
    for got, x in ((g.H, ref), (g.u, A[n])):
        assert same_bits(got, (x.view(np.float64) * (1.0 / TWO_PI)).view(complex))
        # the complex division gives the same bits in every nonzero component
        div = x / TWO_PI
        nonzero = x.view(np.float64) != 0
        assert np.array_equal(got, div)
        assert np.array_equal(got.view(np.float64)[nonzero].view(np.uint64),
                              div.view(np.float64)[nonzero].view(np.uint64))
    # the lower triangle is the conjugate of the upper bit for bit, zeros too
    assert same_bits(g.H[lower], np.conj(g.H.T[lower]))
    assert g.c0 == 3.0 / TWO_PI
