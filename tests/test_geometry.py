import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anacap import geometry
from anacap.basis import PowerPole, Powers
from anacap.errors import (
    DegenerateShapeError,
    MaxDepthError,
    OverlapError,
    SceneConfigError,
    ZeroScaleError,
)
from anacap.geometry import (
    ArcChain,
    CircularArc,
    Disk,
    Ellipse,
    Polygon,
    Segment,
    arcs,
    corners,
    interior_anchor,
    scene,
    scene_from_config,
    scene_to_config,
    transform,
    validate_scene,
)
from anacap.integrals import assemble_gram
from anacap.quadrature import QuadratureSettings
from anacap.solver import gamma_bounds
from conftest import crescent

SQUARE = Polygon((1 + 0j, 1j, -1 + 0j, -1j))
L_SHAPE = Polygon((0j, 4 + 0j, 4 + 1j, 1 + 1j, 1 + 3j, 3j))
# a rectangle with a clockwise (concave) arc bite of radius 1.5 about 0
BITE = ArcChain((CircularArc(0j, 1.5, math.pi / 2, -math.pi / 2), Segment(-1.5j, 3 - 1.5j),
                 Segment(3 - 1.5j, 3 + 1.5j), Segment(3 + 1.5j, 1.5j)))


def boundary_length(s) -> float:
    """2 pi c0 of a one-member Gram: the length every upper bound starts from."""
    gram = assemble_gram(scene([s]), [PowerPole(interior_anchor(arcs(s)), 1)],
                         QuadratureSettings(1e-13))
    return 2 * math.pi * gram.c0


def half_disk(center=3 + 0j, r=1.0) -> ArcChain:
    return ArcChain((
        Segment(center - r, center + r),
        CircularArc(center, r, 0.0, math.pi),
    ))


# --- validate_scene ---------------------------------------------------------

def test_overlapping_disks_rejected():
    with pytest.raises(OverlapError):
        validate_scene(scene([Disk(0, 1.0), Disk(1.5, 1.0)]))


def test_tangent_disks_get_the_verdict_of_a_disk_and_a_circular_ellipse():
    # two disks take the enclosing-disk test and the chord kernel like any
    # other pair: tangent or nearly tangent, with gaps from 0 to 3 times the
    # kernel's rounding slack 32 eps S (S = |c| + r, the larger disk's size)
    # and a third of them within 5% of it, a pair gets one verdict whether
    # the second circle is a Disk or an Ellipse
    rng = np.random.default_rng(0)
    slack = 32.0 * np.finfo(float).eps

    def valid(shapes):
        try:
            validate_scene(scene(shapes))
        except OverlapError:
            return False
        return True

    for k in range(90):
        r1, r2 = rng.uniform(0.1, 3.0, 2)
        c1 = complex(*rng.uniform(-5.0, 5.0, 2))
        e = cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        size = max(abs(c1) + r1, abs(c1 + (r1 + r2) * e) + r2)
        factor = 0.0 if k < 30 else rng.uniform(0.0, 3.0) if k < 60 else rng.uniform(0.95, 1.05)
        gap = factor * slack * size
        c2 = c1 + (r1 + r2 + gap) * e
        assert (valid([Disk(c1, r1), Disk(c2, r2)])
                == valid([Disk(c1, r1), Ellipse(c2, r2, r2)]))


def test_grid_of_25_disks_valid():
    # neighbours 1 apart: radius 0.4 leaves gaps of 0.2, radius 0.5 makes them touch
    sc = scene([Disk(complex(i, j), 0.4) for i in range(5) for j in range(5)])
    assert validate_scene(sc) == sc
    with pytest.raises(OverlapError):
        validate_scene(scene([Disk(complex(i, j), 0.5) for i in range(5) for j in range(5)]))


def test_contained_shape_rejected():
    with pytest.raises(OverlapError):
        validate_scene(scene([Disk(0, 2.0), Disk(0.3, 0.5)]))


def test_validate_idempotent(two_disks):
    once = validate_scene(two_disks)
    twice = validate_scene(once)
    assert once == twice


def test_validate_mixed_scene_idempotent_and_deterministic():
    square_at_6 = Polygon(tuple(v + 6 for v in SQUARE.vertices))
    sc = scene([Disk(0j, 1.0), half_disk(3 + 0j, 0.5), Ellipse(-4j, 2.0, 1.0, 0.4), square_at_6])
    once = validate_scene(sc)
    assert once == sc
    assert validate_scene(once) == once
    assert validate_scene(sc) == once


def test_crossing_bars_rejected():
    # no vertex of either bar lies inside the other, but the edges cross
    bar = Polygon((-2 - 0.1j, 2 - 0.1j, 2 + 0.1j, -2 + 0.1j))
    turned = Polygon(tuple(1j * v for v in bar.vertices))
    with pytest.raises(OverlapError):
        validate_scene(scene([bar, turned]))


def _ellipse_point_normal(e: Ellipse, t: float) -> tuple[complex, complex]:
    rot = cmath.exp(1j * e.rotation)
    p = e.center + rot * complex(e.semi_major * math.cos(t), e.semi_minor * math.sin(t))
    n = rot * complex(e.semi_minor * math.cos(t), e.semi_major * math.sin(t))
    return p, n / abs(n)


def test_disk_overlapping_ellipse_rejected():
    e = Ellipse(0j, 2.0, 1.0, 0.3)
    p, n = _ellipse_point_normal(e, 0.9)
    with pytest.raises(OverlapError):
        validate_scene(scene([e, Disk(p + (0.5 - 1e-3) * n, 0.5)]))


def test_disk_just_outside_rotated_ellipse_gap():
    # for a convex shape the disk of radius rho about p + (rho + delta) n,
    # n the outward normal at p, is exactly delta away
    e = Ellipse(0j, 2.0, 1.0, 0.3)
    delta = 1e-6
    p, n = _ellipse_point_normal(e, 0.9)
    validate_scene(scene([e, Disk(p + (0.5 + delta) * n, 0.5)]))
    with pytest.raises(OverlapError):
        validate_scene(scene([e, Disk(p + (0.5 - delta) * n, 0.5)]))


def test_tiny_disk_nested_in_half_disk_rejected():
    # the disk sits in the sliver between the arc and a 1024-point chord,
    # where containment on a sampled polyline misses it
    hd = half_disk(3 + 0j, 0.5)
    theta = 100.5 * math.pi / 512
    tiny = Disk(3 + (0.5 - 1e-6) * cmath.exp(1j * theta), 1e-8)
    assert geometry._winding_number(arcs(hd), tiny.center) != 0
    with pytest.raises(OverlapError):
        validate_scene(scene([hd, tiny]))


def test_arc_chain_with_crossing_pieces_rejected():
    # positively oriented, but pieces 0 and 2 cross at 2.5
    chain = ArcChain((Segment(0j, 4 + 0j), CircularArc(4 + 1.5j, 1.5, -math.pi / 2, math.pi / 2),
                      Segment(4 + 3j, 2 - 1j), Segment(2 - 1j, 0j)))
    with pytest.raises(DegenerateShapeError):
        validate_scene(scene([chain]))


def test_winding_number_exact_on_concave_arc(rng):
    r = 1.5
    validate_scene(scene([BITE]))
    pts = rng.uniform(-0.5, 3.5, 4000) + 1j * rng.uniform(-2, 2, 4000)
    for z in pts:
        inside = abs(z) > r and 0 < z.real < 3 and abs(z.imag) < 1.5
        assert (geometry._winding_number(arcs(BITE), complex(z)) != 0) == inside
    # points 1e-12 either side of the arc
    for phi in (-1.2, 0.0, 0.7):
        u = cmath.exp(1j * phi)
        assert geometry._winding_number(arcs(BITE), (r + 1e-12) * u) != 0
        assert geometry._winding_number(arcs(BITE), (r - 1e-12) * u) == 0


@pytest.mark.parametrize("shape, z", [
    (L_SHAPE, 1.5 + 1j), (L_SHAPE, 2 + 1j), (L_SHAPE, 1 + 2j),
    (Polygon((0j, 2 + 0j, 2 + 2j, 2j)), 2 + 1j), (Polygon((0j, 2 + 0j, 2 + 2j, 2j)), 1 + 2j),
    (BITE, 1.5 + 0j), (BITE, 3 + 0j), (BITE, 1 + 1.5j),
    (Disk(1j, 2.0), 1 - 1j), (Ellipse(0j, 2.0, 1.0), 2 + 0j), (Ellipse(0j, 2.0, 1.0), -1j),
])
def test_boundary_points_are_outside(shape, z):
    assert geometry._winding_number(arcs(shape), z) == 0


def test_points_on_a_chord_inside_its_arc_disk():
    # on the chord the arc turns arg(w - z) by half a turn in its own direction,
    # whatever sign of pi the chord ratio's phase takes
    dome = ArcChain((CircularArc(0j, 1.0, -math.pi / 2, math.pi / 2), Segment(1j, -1 + 1j),
                     Segment(-1 + 1j, -1 - 1j), Segment(-1 - 1j, -1j)))
    for y in (-0.5, -0.3, 0.0, 0.3, 0.5):
        assert geometry._winding_number(arcs(dome), complex(0, y)) != 0
        assert geometry._winding_number(arcs(BITE), complex(0, y)) == 0


def test_full_circle_arc_chain_contains_its_centre():
    ring = ArcChain((CircularArc(1 + 1j, 2.0, 0.5, 0.5 + 2 * math.pi),))
    assert geometry._winding_number(arcs(ring), 1 + 1j) != 0
    assert geometry._winding_number(arcs(ring), 2.9 + 1j) != 0
    assert geometry._winding_number(arcs(ring), 3.1 + 1j) == 0


# --- certified gaps: disk placed along an outward normal ---------------------

def _half_disk_point_normal(hd: ArcChain, frac: float) -> tuple[complex, complex]:
    arc = hd.pieces[1]
    u = cmath.exp(1j * (arc.theta_start + frac * (arc.theta_end - arc.theta_start)))
    return arc.center + arc.radius * u, u


@st.composite
def convex_shape_point(draw):
    """A convex shape, a boundary point p with outward normal n, and the
    size that sets its rounding level."""
    kind = draw(st.sampled_from(["disk", "ellipse", "half_disk"]))
    c = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
    size = draw(st.floats(0.3, 2.0))
    angle = draw(st.floats(-math.pi, math.pi))
    if kind == "disk":
        u = cmath.exp(1j * angle)
        return Disk(c, size), c + size * u, u, abs(c) + size
    if kind == "ellipse":
        e = Ellipse(c, size, size * draw(st.floats(0.2, 1.0)), draw(st.floats(-math.pi, math.pi)))
        return (e, *_ellipse_point_normal(e, angle), abs(c) + size)
    rot = cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    phi = cmath.phase(rot)
    hd = ArcChain((Segment(c - size * rot, c + size * rot), CircularArc(c, size, phi, phi + math.pi)))
    return (hd, *_half_disk_point_normal(hd, draw(st.floats(0.02, 0.98))), abs(c) + size)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(convex_shape_point(), st.floats(-7, -1), st.booleans(), st.floats(0.05, 1.0))
def test_certified_gap_along_normal(shape_point, log_delta, outside, rel_rho):
    # 1e-7 scale <= |delta| <= 0.1 scale, log-uniform
    shape, p, n, scale = shape_point
    delta = 10 ** log_delta * scale * (1 if outside else -1)
    rho = rel_rho * scale
    sc = scene([shape, Disk(p + (rho + delta) * n, rho)])
    if delta > 0:
        assert validate_scene(sc) == sc
    else:
        with pytest.raises(OverlapError):
            validate_scene(sc)


@st.composite
def far_shapes(draw, scale):
    """1-3 disks or ellipses of size at most ``scale`` on a circle of radius
    10 scale about 0, at least 5 scale from the near pair and each other."""
    out = []
    for k in range(draw(st.integers(1, 3))):
        c = 10 * scale * cmath.exp(1j * (2 * math.pi * k / 3 + draw(st.floats(-0.3, 0.3))))
        size = scale * draw(st.floats(0.2, 1.0))
        if draw(st.booleans()):
            out.append(Disk(c, size))
        else:
            out.append(Ellipse(c, size, size * draw(st.floats(0.05, 1.0)),
                               draw(st.floats(-math.pi, math.pi))))
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(convex_shape_point(), st.floats(-7, -1), st.booleans(), st.floats(0.05, 1.0), st.data())
def test_least_gap_among_several_pairs(shape_point, log_delta, outside, rel_rho, data):
    # the near pair's gap delta is the least; the far pairs settle at once,
    # and the verdict is the near pair's
    shape, p, n, scale = shape_point
    delta = 10 ** log_delta * scale * (1 if outside else -1)
    rho = rel_rho * scale
    shapes = [shape, Disk(p + (rho + delta) * n, rho), *data.draw(far_shapes(scale))]
    sc = scene(data.draw(st.permutations(shapes)))
    if delta > 0:
        assert validate_scene(sc) == sc
    else:
        with pytest.raises(OverlapError):
            validate_scene(sc)


def test_sagitta_bounds_wide_chords(rng):
    # every point of z([t0, t1]) lies within the sagitta of the chord, for
    # chords up to a full turn of thin ellipses and of arcs either way round
    for _ in range(300):
        c, size = complex(*rng.uniform(-3, 3, 2)), rng.uniform(0.1, 3)
        if rng.random() < 0.5:
            shape = Ellipse(c, size, size * 10 ** rng.uniform(-3, 0), rng.uniform(-math.pi, math.pi))
        else:
            th, turn = rng.uniform(-math.pi, math.pi), rng.choice([-1, 1]) * rng.uniform(0.1, 1)
            shape = ArcChain((CircularArc(c, size, th, th + 2 * math.pi * turn),))
        arc = arcs(shape)[0]
        width = rng.uniform(0.05, 1.0) / abs(arc.turns)
        t0 = rng.uniform(0, 1 - width) if width < 1 else 0.0
        t1 = t0 + min(width, 1.0)
        z0, z1 = arc.point(t0), arc.point(t1)
        z = arc.point(np.linspace(t0, t1, 2001))
        f = np.clip(((z - z0) * np.conj(z1 - z0)).real / abs(z1 - z0) ** 2, 0, 1) if z1 != z0 else 0
        off = np.abs(z - (z0 + f * (z1 - z0)))
        assert off.max() <= arc.sagitta(t0, t1) + 1e-13 * (abs(c) + size)


@pytest.mark.parametrize("g", [0.1, 1e-3, 1e-6])
def test_disk_under_concave_bite(g):
    # the arc of the bite runs at gap g along half the disk: certified apart,
    # and bracketed, while the disk that touches the arc, or crosses it, is
    # rejected
    res = gamma_bounds(scene([BITE, Disk(0j, 1.5 - g)]), Powers(2))
    assert res.lower <= res.upper
    for radius in (1.5, 1.5 + g):
        with pytest.raises(OverlapError):
            validate_scene(scene([BITE, Disk(0j, radius)]))


@pytest.mark.parametrize("limit, value, match", [
    ("_GAP_ROUNDS", 2, "gap not resolved within 2 rounds"),
    ("_GAP_MAX_PAIRS", 64, "gap not certified above rounding"),
])
def test_gap_kernel_gives_up_on_the_bite_past_its_limits(monkeypatch, limit, value, match):
    # the disk 1e-6 inside the bite needs more rounds, and more chord pairs
    # at once, than these limits allow: the pair is refused, not passed
    monkeypatch.setattr(geometry, limit, value)
    with pytest.raises(OverlapError, match=match):
        validate_scene(scene([BITE, Disk(0j, 1.5 - 1e-6)]))


@pytest.mark.parametrize("shapes, limit", [
    ([Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)], 0),
    ([Disk(0j, 1.0), half_disk(3 + 0j, 0.5), half_disk(3j, 0.5)], 0),
    ([BITE, Disk(0j, 1.5 - 1e-6)], 30_000),
], ids=["four_ellipses", "disk_and_half_disks", "bite_1e-6"])
def test_gap_kernel_work(monkeypatch, shapes, limit):
    # chord pairs the kernel evaluates, over all its rounds: the enclosing
    # disks of the first two scenes settle every pair, and the kernel never
    # runs; the disk inside the bite needs it
    rows = []
    segment_distance = geometry._segment_distance

    def counted(a0, a1, b0, b1):
        rows.append(a0.size)
        return segment_distance(a0, a1, b0, b1)

    monkeypatch.setattr(geometry, "_segment_distance", counted)
    validate_scene(scene(shapes))
    assert (0 < sum(rows) <= limit) if limit else not rows


def _random_shape(rng):
    """An ellipse (a circle one time in four), a star-shaped polygon or a
    rotated half- or quarter-disk, about 0 with size about 1."""
    kind = rng.integers(4)
    if kind == 0:
        a = rng.uniform(0.5, 2.0)
        b = a if rng.random() < 0.25 else a * rng.uniform(0.1, 1.0)
        return Ellipse(0j, a, b, rng.uniform(-math.pi, math.pi))
    if kind == 1:
        m = int(rng.integers(3, 9))
        angles = np.sort(rng.uniform(0, 2 * math.pi, m))
        while np.diff(np.append(angles, angles[0] + 2 * math.pi)).min() < 0.3:
            angles = np.sort(rng.uniform(0, 2 * math.pi, m))
        radii = rng.uniform(0.6, 1.5, m)
        return Polygon(tuple(complex(r * cmath.exp(1j * t)) for r, t in zip(radii, angles)))
    r = rng.uniform(0.3, 1.5)
    if kind == 2:
        shape = ArcChain((Segment(-r + 0j, r + 0j), CircularArc(0j, r, 0.0, math.pi)))
    else:
        shape = ArcChain((Segment(0j, r + 0j), CircularArc(0j, r, 0.0, math.pi / 2),
                          Segment(r * 1j, 0j)))
    return transform(scene([shape]), cmath.exp(1j * rng.uniform(-math.pi, math.pi))).shapes[0]


def test_enclosing_disks_settle_pairs_as_the_kernel_does(monkeypatch):
    # pairs of random shapes whose enclosing disks are apart, or overlap, by
    # delta = 1e-6 times the pair's size: validate_scene gives the kernel's
    # verdict (on overlapping disks it may come from a winding test first),
    # and on disks apart it does not run the kernel on the pair
    rng = np.random.default_rng(20261019)
    kernel = geometry._certified_gaps
    kernel_pairs = []

    def spy(boundaries, sizes, pairs):
        kernel_pairs.extend(pairs)
        return kernel(boundaries, sizes, pairs)

    monkeypatch.setattr(geometry, "_certified_gaps", spy)

    def verdict(check):
        try:
            check()
        except OverlapError:
            return False
        return True

    settled = overlaps = 0
    for _ in range(60):
        a, b = _random_shape(rng), _random_shape(rng)
        a = transform(scene([a]), 1, complex(*rng.uniform(-3, 3, 2))).shapes[0]
        ca, ra, _ = geometry._enclosing_disk(arcs(a))
        cb, rb, _ = geometry._enclosing_disk(arcs(b))
        for sign in (1, -1):
            size = abs(ca) + ra + rb
            gap = ra + rb + sign * 1e-6 * (size + ra + rb)
            shift = ca + gap * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) - cb
            moved = transform(scene([b]), 1, shift).shapes[0]
            disk_a, disk_b = (geometry._enclosing_disk(arcs(s)) for s in (a, moved))
            apart = geometry._disks_apart(disk_a, disk_b)
            assert apart == (sign > 0)
            kernel_pairs.clear()
            got = verdict(lambda: validate_scene(scene([a, moved])))
            assert not (apart and (0, 1) in kernel_pairs)
            want = verdict(lambda: kernel([arcs(a), arcs(moved)], [disk_a[2], disk_b[2]],
                                          [(0, 1)]))
            assert got == want
            settled += apart
            overlaps += not got
    assert settled == 60 and overlaps > 0


def test_pair_over_more_chord_pairs_than_one_batch(monkeypatch):
    # two 400-gons give the pair 160,000 chord pairs, more than _GAP_MAX_PAIRS:
    # they go through more than one batch, each certified on its own
    batches = []
    refine_gaps = geometry._refine_gaps

    def spy(curve, blocks, slack, pairs):
        batches.append({pairs[g] for block in blocks for g in np.unique(block[0])})
        return refine_gaps(curve, blocks, slack, pairs)

    monkeypatch.setattr(geometry, "_refine_gaps", spy)
    gons = [Polygon(tuple(c + cmath.exp(2j * math.pi * k / 400) for k in range(400)))
            for c in (0j, 2.5 + 0j)]
    validate_scene(scene(gons))
    assert sum((0, 1) in pairs for pairs in batches) > 1


GRID_4X4 = [Polygon(tuple(3 * complex(i, j) + 1j ** k for k in range(4)))
            for i in range(4) for j in range(4)]
# positively oriented, and passes the local rules, but edge 3 crosses edge 0 at 2.5
CROSSING_PENTAGON = Polygon((0j, 4 + 0j, 4 + 3j, 1 + 3j, 3 - 1j))


@pytest.mark.parametrize("shapes, calls, error", [
    ([SQUARE], 1, None),
    ([Disk(0j, 1.0), half_disk(3 + 0j, 0.5), half_disk(3j, 0.5)], 0, None),
    (GRID_4X4, 1, None),
    ([Disk(-100 + 0j, 1.0), CROSSING_PENTAGON], 1, "^boundary is not simple: shape 1's "),
], ids=["square", "disk_and_half_disks", "grid_4x4", "far_disk_and_crossing_pentagon"])
def test_one_gap_kernel_call_per_scene(monkeypatch, shapes, calls, error):
    # validate_scene certifies every boundary of four or more pieces against
    # itself, and every pair its enclosing disks leave, in one kernel call;
    # _check_boundary makes none.  The disk and half-disks need no call: no
    # boundary has four pieces, and the enclosing disks settle every pair
    seen = []
    kernel = geometry._certified_gaps

    def spy(boundaries, sizes, pairs):
        seen.append(pairs)
        return kernel(boundaries, sizes, pairs)

    monkeypatch.setattr(geometry, "_certified_gaps", spy)
    sc = scene(shapes)
    for pieces in sc.boundaries:
        geometry._check_boundary(pieces)
    assert seen == []
    if error:
        with pytest.raises(DegenerateShapeError, match=error):
            validate_scene(sc)
    else:
        validate_scene(sc)
    assert len(seen) == calls
    for pairs in seen:
        assert [(m, n) for m, n in pairs if m == n] == [
            (i, i) for i, pieces in enumerate(sc.boundaries) if len(pieces) > 3]


def test_validation_forms_each_enclosing_disk_once(monkeypatch):
    # _check_boundary returns each boundary's disk, which the pair screen
    # reads and whose size the kernel takes as its slack scale
    disks, sizes = [], []
    enclosing_disk, kernel = geometry._enclosing_disk, geometry._certified_gaps

    def disk_spy(pieces):
        disks.append(enclosing_disk(pieces))
        return disks[-1]

    def kernel_spy(boundaries, got, pairs):
        sizes.extend(got)
        return kernel(boundaries, got, pairs)

    monkeypatch.setattr(geometry, "_enclosing_disk", disk_spy)
    monkeypatch.setattr(geometry, "_certified_gaps", kernel_spy)
    sc = scene(GRID_4X4 + [Disk(20j, 1.0), half_disk(-10 + 0j)])
    validate_scene(sc)
    assert len(disks) == len(sc.shapes)
    assert sizes == [size for _, _, size in disks]


def test_degenerate_shapes_rejected():
    with pytest.raises(DegenerateShapeError):
        validate_scene(scene([Disk(0, 0.0)]))
    with pytest.raises(DegenerateShapeError):
        validate_scene(scene([Polygon((0, 1 + 0j))]))
    with pytest.raises(DegenerateShapeError):  # negatively oriented
        validate_scene(scene([Polygon((1 + 0j, -1j, -1 + 0j, 1j))]))
    with pytest.raises(DegenerateShapeError):  # self-intersecting bow-tie
        validate_scene(scene([Polygon((0j, 1 + 1j, 1 + 0j, 1j))]))
    with pytest.raises(DegenerateShapeError):  # collinear adjacent vertices
        validate_scene(scene([Polygon((0j, 1 + 0j, 2 + 0j, 1 + 1j))]))


NAN, INF = float("nan"), float("inf")


class Unknown:
    pass


@pytest.mark.parametrize("shape", [
    Disk(0j, 0.0), Disk(0j, -1.0), Disk(0j, INF),
    Ellipse(0j, 2.0, 0.0), Ellipse(0j, 2.0, -1.0), Ellipse(0j, -2.0, -1.0),
    Ellipse(0j, -1.0, 2.0), Ellipse(0j, 2.0, 1.0, INF),
    Polygon(()), Polygon((0j,)),
    Polygon((0.1 + 0.2j, 0.3 + 0.7j)),  # its two edges' closed-form area rounds above 0
    Polygon((0j, 1 + 0j, 1 + 0j, 1j)), Polygon((0j, 1 + 0j, 1 + 1e-16j, 1j)),
    Polygon((1 + 1j,) * 4), Polygon((0j, 2 + 0j, 1 + 0j, 1 + 1j)),
    Polygon((0j, 1 + 0j, 0.5 + 1e-15j)),
    ArcChain(()),
    ArcChain((Segment(-1 + 0j, 1 + 0j), Segment(1 + 0j, 1 + 0j), CircularArc(0j, 1.0, 0.0, math.pi))),
    ArcChain(half_disk(0j).pieces + (CircularArc(0j, 1.0, math.pi, math.pi),)),
    ArcChain((Segment(-1 + 0j, 1 + 0j), CircularArc(0j, -1.0, math.pi, 2 * math.pi))),
    ArcChain((Segment(-1 + 0j, 1 + 0j), CircularArc(0j, 1.0, 0.0, 3 * math.pi))),
    ArcChain((CircularArc(0j, 1.0, 0.0, 2 * math.pi * (1 + 1e-9)),)),
    ArcChain((CircularArc(0j, 1.0, 1e16, 1e16),)),  # 4 eps |theta| > 2 pi: no turn to round to
    ArcChain((Segment(-1 + 0j, 1 + 0j), CircularArc(0j, 1.0, 0.0, math.pi - 1e-3))),
    # a half-disk whose diameter is two collinear segments, as its polygon would be
    ArcChain((Segment(-1 + 0j, 0j), Segment(0j, 1 + 0j), CircularArc(0j, 1.0, 0.0, math.pi))),
    ArcChain((CircularArc(0j, 1.0, math.pi, 0.0), Segment(1 + 0j, -1 + 0j))),
    # a half-disk with a slit out to 1: the second segment folds straight back
    ArcChain((Segment(-1 + 0j, 1 + 0j), Segment(1 + 0j, 0j),
              CircularArc(-0.5 + 0j, 0.5, 0.0, math.pi))),
    # an arc from 1 to -1, back along its circle to i, then the chord to 1
    ArcChain((CircularArc(0j, 1.0, 0.0, math.pi), CircularArc(0j, 1.0, math.pi, math.pi / 2),
              Segment(1j, 1 + 0j))),
    # the arc crosses its own first segment at 1, as three pieces and as four
    ArcChain((Segment(0j, 2 + 0j), CircularArc(1.5 + 0j, 0.5, 0.0, 1.5 * math.pi),
              Segment(1.5 - 0.5j, 0j))),
    ArcChain((Segment(0j, 2 + 0j), CircularArc(1.5 + 0j, 0.5, 0.0, 1.5 * math.pi),
              Segment(1.5 - 0.5j, 0.75 - 0.5j), Segment(0.75 - 0.5j, 0j))),
    # two whole circles tangent at 2: the boundary passes 2 twice
    ArcChain((CircularArc(0j, 2.0, 0.0, 2 * math.pi), CircularArc(1 + 0j, 1.0, 0.0, -2 * math.pi))),
    # arcs of two circles in a row that cross again at -i
    ArcChain((CircularArc(1 - 1j, 1.0, math.pi / 2, 1.25 * math.pi),
              Segment(1 - 1j + cmath.exp(1.25j * math.pi), -1 + 0j),
              CircularArc(0j, 1.0, math.pi, 2 * math.pi))),
    # arcs of one circle in a row that cover more than a whole turn
    ArcChain((CircularArc(0j, 1.0, 1.5 * math.pi, 2.25 * math.pi),
              Segment(cmath.exp(0.25j * math.pi), 1 + 0j), CircularArc(0j, 1.0, 0.0, 1.5 * math.pi))),
    ArcChain((Segment(-1 + 0j, 1 + 0j), Unknown())),
    Unknown(),
], ids=["disk_r0", "disk_r-1", "disk_rinf",
        "ellipse_2_0", "ellipse_2_-1", "ellipse_-2_-1", "ellipse_-1_2", "ellipse_rot_inf",
        "polygon_0", "polygon_1", "polygon_2",
        "polygon_repeated_vertex", "polygon_1e-16_edge", "polygon_all_equal", "polygon_spike",
        "polygon_1e-15_sliver",
        "chain_empty", "chain_zero_segment", "chain_zero_arc", "chain_radius_-1", "chain_3pi_arc",
        "chain_arc_past_a_turn", "chain_zero_arc_at_1e16",
        "chain_1e-3_gap", "chain_collinear_split", "chain_clockwise", "chain_slit",
        "chain_arc_turns_back",
        "chain_arc_crosses_segment", "chain_arc_crosses_segment_4", "chain_two_whole_circles",
        "chain_two_circles_cross", "chain_one_circle_overlaps", "chain_unknown_piece",
        "unknown_shape"])
def test_every_degenerate_boundary_is_rejected(shape):
    with pytest.raises(DegenerateShapeError):
        validate_scene(scene([shape]))


@pytest.mark.parametrize("chain", [
    half_disk(0j),
    ArcChain((Segment(0j, 1 + 0j), CircularArc(0j, 1.0, 0.0, math.pi / 2), Segment(1j, 0j))),
    ArcChain((CircularArc(0j, 1.0, 0.0, math.pi), CircularArc(0j, 1.0, math.pi, 2 * math.pi))),
    ArcChain((Segment(-1 - 1j, 1 - 1j), CircularArc(1 + 0j, 1.0, -math.pi / 2, math.pi / 2),
              Segment(1 + 1j, -1 + 1j), CircularArc(-1 + 0j, 1.0, math.pi / 2, 1.5 * math.pi))),
], ids=["half_disk", "quarter_disk", "disk_in_two_arcs", "stadium"])
def test_chain_turning_on_at_each_join_validates(chain):
    # the fold-back and meet-again rules reject neither a corner, nor an arc
    # running on along its circle, nor a segment meeting an arc tangentially
    validate_scene(scene([chain]))


def test_nearly_flat_arc_validates():
    # the length and collinearity rules read the extent of the piece starts,
    # about 1 here; read from the enclosing radius R, about 2e6 for this
    # radius-1e6 arc, 1e-14 (2R)^2 = 0.16 would exceed the cross product 0.03
    # of the segments at the corners 0 and 1 and reject the shape
    r = 1e6
    c = 0.5 + 0.03j - 1j * math.sqrt(r * r - 0.25)
    chain = ArcChain((Segment(0j, 1 + 0j), Segment(1 + 0j, 1 + 0.03j),
                      CircularArc(c, r, cmath.phase(1 + 0.03j - c), cmath.phase(0.03j - c)),
                      Segment(0.03j, 0j)))
    validate_scene(scene([chain]))
    assert geometry._check_boundary(arcs(chain))[1] > r


# at a = 1e-3 the shift 1e3 + 1e3i rounds the third vertex onto the second
@pytest.mark.parametrize("a, b", [(a, b) for a in (1, 1e3, 1e-3, 1j)
                                  for b in (0, 1e3, 1e3 + 1e3j) if (a, b) != (1e-3, 1e3 + 1e3j)])
def test_thin_triangle_validates_wherever_it_is_moved(a, b):
    # cross products of 1e-12 |a|^2 against 1e-14 diam^2 with diam about |a|:
    # a scale read from the size max|z|, about 1e3 once shifted, would reject it
    validate_scene(transform(scene([Polygon((0j, 1 + 0j, 1 + 1e-12j))]), a, b))


def _edge_chain(p: Polygon) -> ArcChain:
    v = p.vertices
    return ArcChain(tuple(Segment(a, b) for a, b in zip(v, v[1:] + v[:1])))


@pytest.mark.parametrize("poly, valid", [
    (SQUARE, True),
    (L_SHAPE, True),
    (Polygon((0j, 1 + 0j, 2 + 0j, 1 + 1j)), False),  # collinear vertex at 1
    (Polygon((0j, 1 + 0j, 1 + 1e-16j)), False),  # a 1e-16 edge, three pieces: no gap test
    (Polygon((0.1 + 0.2j, 0.3 + 0.7j)), False),  # two vertices: zero area
])
def test_polygon_and_its_edge_chain_get_one_verdict(poly, valid):
    for s in (poly, _edge_chain(poly)):
        sc = scene([s, Disk(10 + 0j, 1.0)])
        if valid:
            validate_scene(sc)
        else:
            with pytest.raises(DegenerateShapeError):
                validate_scene(sc)


@pytest.mark.parametrize("shape", [
    Disk(complex(NAN, 0.0), 1.0),
    Ellipse(0j, 2.0, 1.0, INF),
    Polygon((1 + 0j, 1j, complex(NAN, 1.0), -1j)),
    ArcChain((Segment(-1 + 0j, 1 + 0j), CircularArc(0j, 1.0, 0.0, NAN))),
    ArcChain((CircularArc(0j, 1.0, 0.0, INF),)),  # an infinite sweep is no whole turn
], ids=["disk", "ellipse", "polygon", "arc_chain", "arc_chain_infinite_sweep"])
def test_non_finite_shape_data_rejected(shape):
    # a NaN centre once passed validation with min_gap = inf next to a disk
    with pytest.raises(DegenerateShapeError, match="finite"):
        validate_scene(scene([shape, Disk(10 + 0j, 1.0)]))


def test_bad_labels_rejected():
    with pytest.raises(SceneConfigError):
        scene([Disk(0, 1.0)], labels=("X",))


# --- corners ----------------------------------------------------------------

def test_disk_and_ellipse_have_no_corners():
    assert corners(arcs(Disk(0, 1.0))) == []
    assert corners(arcs(Ellipse(0, 2.0, 1.0))) == []


def test_square_corners_omega():
    cs = corners(arcs(SQUARE))
    assert len(cs) == 4
    assert {c.location for c in cs} == {1 + 0j, 1j, -1 + 0j, -1j}
    for c in cs:
        assert c.omega_angle == pytest.approx(1.5 * math.pi, abs=1e-12)


def test_half_disk_corners():
    # interior angle pi/2 where the diameter meets the semicircle, so the
    # complement occupies 3*pi/2; oracle is the tangent-vector computation
    cs = corners(arcs(half_disk()))
    assert len(cs) == 2
    locs = sorted([c.location for c in cs], key=lambda z: z.real)
    assert locs[0] == pytest.approx(2 + 0j, abs=1e-12)
    assert locs[1] == pytest.approx(4 + 0j, abs=1e-12)
    for c in cs:
        assert c.omega_angle == pytest.approx(1.5 * math.pi, abs=1e-9)


def test_cusp_is_no_corner():
    # the upper unit half-circle closed by two half-circles of radius 1/2
    # below the axis, which meet at 0 with opposite tangents
    chain = ArcChain((CircularArc(0j, 1.0, 0.0, math.pi),
                      CircularArc(-0.5 + 0j, 0.5, math.pi, 2 * math.pi),
                      CircularArc(0.5 + 0j, 0.5, math.pi, 2 * math.pi)))
    with pytest.raises(DegenerateShapeError, match="cusp"):
        corners(arcs(chain))


@pytest.mark.parametrize("poly", [
    SQUARE,
    Polygon((0j, 1 + 0j, 1j)),
    Polygon((0j, 3 + 0j, 3 + 1j, 2 + 1j, 2 + 2j, 0 + 2j)),  # L-shape (non-convex)
])
def test_polygon_turning_angles_sum(poly):
    # sum of (omega - pi) over corners equals 2*pi for every simple polygon
    total = sum(c.omega_angle - math.pi for c in corners(arcs(poly)))
    assert total == pytest.approx(2 * math.pi, abs=1e-9)


# --- arcs -------------------------------------------------------------------

def test_disk_arc_parametrization():
    (arc,) = arcs(Disk(2, 1.0))
    t = np.linspace(0, 1, 7)
    assert np.allclose(arc.point(t), 2 + np.exp(2j * math.pi * t))


def test_ellipse_arc_parametrization():
    (arc,) = arcs(Ellipse(0, 2.0, 1.0))
    t = np.linspace(0, 1, 9)
    expect = 2 * np.cos(2 * math.pi * t) + 1j * np.sin(2 * math.pi * t)
    assert np.allclose(arc.point(t), expect)


def _mp_piece(kind):
    """A boundary piece, its z(t) from the shape's own definition in mpmath,
    a bound on |z'| and a bound on |z|."""
    mp.mp.dps = 40
    c = lambda z: mp.mpc(z.real, z.imag)
    if kind == "segment":
        z0, z1 = 0.3 - 1.2j, 2.1 + 0.4j
        return (arcs(Polygon((z0, z1, -0.5 + 1.5j)))[0],
                lambda t: c(z0) + (c(z1) - c(z0)) * t, abs(z1 - z0), 2.2)
    if kind.startswith("arc"):
        th0, th1 = (0.4, 2.9) if kind == "arc_forward" else (2.9, -1.1)
        (arc,) = arcs(ArcChain((CircularArc(1 + 2j, 1.5, th0, th1),)))
        return (arc, lambda t: c(1 + 2j) + 1.5 * mp.expjpi((th0 + (mp.mpf(th1) - th0) * t) / mp.pi),
                1.5 * abs(th1 - th0), 3.8)
    if kind == "ellipse":
        (arc,) = arcs(Ellipse(-1 + 0.5j, 2.0, 0.7, 0.6))
        return (arc, lambda t: c(-1 + 0.5j) + mp.expj(0.6) * (2.0 * mp.cospi(2 * t)
                                                               + 0.7j * mp.sinpi(2 * t)),
                4 * math.pi, 3.2)
    (arc,) = arcs(Disk(2 - 1j, 0.8))
    return arc, lambda t: c(2 - 1j) + 0.8 * mp.expjpi(2 * t), 1.6 * math.pi, 3.1


@pytest.mark.parametrize("kind", ["segment", "arc_forward", "arc_backward", "ellipse", "disk"])
def test_piece_parametrization_against_mpmath(kind):
    arc, z, speed, size = _mp_piece(kind)
    # the displacements from each end stay exact down to s = 1e-15
    s = np.logspace(-15, 0, 31)
    for got, ref in ((arc.disp_start(s), lambda x: z(x) - z(0)),
                     (arc.disp_end(s), lambda x: z(1 - mp.mpf(x)) - z(1))):
        for x, g in zip(s, got):
            assert abs(complex(ref(x)) - g) <= 1e-14 * x * speed
    t = np.linspace(0.0, 1.0, 9)
    zt, dz = arc._point_velocity(t)
    for x, p, q, v in zip(t, arc.point(t), zt, np.broadcast_to(dz, t.shape)):
        assert abs(complex(z(x)) - p) <= 1e-15 * size
        assert abs(complex(z(x)) - q) <= 1e-15 * size
        assert abs(complex(mp.diff(z, x)) - v) <= 1e-14 * speed
    assert arc.start == pytest.approx(complex(z(0)), abs=1e-15 * size)
    assert arc.end == pytest.approx(complex(z(1)), abs=1e-15 * size)
    if kind in ("ellipse", "disk"):
        # integrate_arc picks the periodic trapezoid rule from start == end
        assert arc.point(1.0) == arc.point(0.0) and arc.end == arc.start


def test_square_has_four_segment_arcs():
    segs = arcs(SQUARE)
    assert len(segs) == 4
    assert segs[0].start == 1 + 0j and segs[0].end == 1j


@pytest.mark.parametrize("shape,perimeter", [
    (Disk(1 + 2j, 1.5), 2 * math.pi * 1.5),
    (SQUARE, 4 * math.sqrt(2)),
    (Ellipse(0, 2.0, 1.0), 9.688448220547675),
    (half_disk(), 2 + math.pi),
])
def test_arc_length_closed_forms(shape, perimeter):
    assert boundary_length(shape) == pytest.approx(perimeter, abs=1e-12)


def test_ellipse_perimeter_elliptic_oracle():
    # independent oracle: complete elliptic integral of the second kind
    from scipy.special import ellipe

    a, b = 2.0, 1.0
    expect = 4 * a * ellipe(1 - (b / a) ** 2)
    assert boundary_length(Ellipse(0, a, b)) == pytest.approx(expect, abs=1e-12)
    for a, b, rot in ((2.0, 1.0, 0.0), (3.0, 0.4, 0.7), (1.0, 0.9, -2.0), (50.0, 7.0, 1.0)):
        expect = 4 * a * ellipe(1 - (b / a) ** 2)
        length = boundary_length(Ellipse(1 - 2j, a, b, rot))
        assert length == pytest.approx(expect, rel=1e-13, abs=0)


# --- interior_anchor --------------------------------------------------------

def test_anchor_examples():
    assert interior_anchor(arcs(Disk(2, 1.0))) == 2
    assert interior_anchor(arcs(SQUARE)) == 0
    tri = Polygon((0j, 1 + 0j, 1j))
    anchor = interior_anchor(arcs(tri))
    assert anchor == pytest.approx((1 + 1j) / 3, abs=1e-12)
    assert geometry._winding_number(arcs(tri), anchor) != 0


def _edge_distance(vertices, z: complex) -> float:
    """Least distance from z to a polygon's edges, by projection onto each."""
    out = math.inf
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        t = min(1.0, max(0.0, ((z - a) * (b - a).conjugate()).real / abs(b - a) ** 2))
        out = min(out, abs(z - (a + t * (b - a))))
    return out


def test_anchor_inside_every_shape():
    # checked against each shape's own interior, independently of the winding number
    e = Ellipse(3 + 1j, 2.0, 0.5, 0.7)
    w = (interior_anchor(arcs(e)) - e.center) * cmath.exp(-1j * e.rotation)
    assert (w.real / e.semi_major) ** 2 + (w.imag / e.semi_minor) ** 2 < 1
    z = interior_anchor(arcs(half_disk()))  # the half-disk over [2, 4]
    assert z == pytest.approx(3 + 1j / math.pi, abs=1e-15)
    assert min(1 - abs(z - 3), z.imag) > 0
    z = interior_anchor(arcs(L_SHAPE))
    assert (0 < z.real < 4 and 0 < z.imag < 1) or (0 < z.real < 1 and 0 < z.imag < 3)
    assert _edge_distance(L_SHAPE.vertices, z) > 0


def test_anchor_off_the_boundary_gives_a_bracket():
    # the L-shape's area centroid 1.5 + 1j lies on its own edge; a pole there
    # leaves the quadrature unresolved
    from anacap.basis import PowerPole, Powers
    from anacap.solver import bounds_for_basis, gamma_bounds

    sc = scene([L_SHAPE])
    assert interior_anchor(arcs(L_SHAPE)) == 2 + 0.4j
    res = gamma_bounds(sc, Powers(4))
    # Ahlfors-Beurling: gamma >= sqrt(area / pi); the disk of radius 2.5
    # about 2 + 1.5j encloses the shape
    assert res.upper >= math.sqrt(6 / math.pi)
    assert res.lower <= 2.5
    with pytest.raises(SceneConfigError):
        bounds_for_basis(sc, [PowerPole(2 + 1j, 1)])


def test_thin_crescent_gets_an_anchor_and_a_bracket():
    # 0.040 thick: every probe at 1/4, 1/10 and 1/50 of |z'(1/2)| leaves it,
    # and the outer arc's probe at 1/200 is the anchor
    sc = scene([crescent(-0.05)])
    validate_scene(sc)
    assert interior_anchor(sc.boundaries[0]) == pytest.approx(0.98604, abs=1e-5)
    res = gamma_bounds(sc, Powers(4))
    # Ahlfors-Beurling: gamma >= sqrt(area / pi); the unit disk holds the shape
    assert math.sqrt(geometry._signed_area(sc.boundaries[0]) / math.pi) <= res.upper
    assert res.lower <= 1.0
    assert (res.lower, res.upper) == pytest.approx((0.0248, 0.873), abs=1e-3)


def test_thinner_crescent_is_a_quadrature_failure():
    # 0.008 thick: the anchor is found, and the pole so near the boundary
    # leaves the quadrature unresolved, a numerical error and no scene error
    sc = scene([crescent(-0.01)])
    validate_scene(sc)
    with pytest.raises(MaxDepthError, match="65536 nodes"):
        gamma_bounds(sc, Powers(4))


@pytest.mark.parametrize("angle", [0.3, 1.0, 1.5, 3.0])
def test_anchor_follows_a_rotation(angle):
    # the L's first inward probe, 2 + i, lies on its edge from 4 + i to
    # 1 + i, and under a rotation rounding can put it on either side
    from anacap.basis import Powers
    from anacap.solver import gamma_bounds

    a = cmath.exp(1j * angle)
    sc = transform(scene([L_SHAPE]), a)
    assert interior_anchor(arcs(sc.shapes[0])) == pytest.approx(a * (2 + 0.4j), abs=1e-14)
    res = gamma_bounds(sc, Powers(4))
    assert res.upper >= math.sqrt(6 / math.pi)


# --- transform --------------------------------------------------------------

def test_transform_identity(two_disks):
    sc = transform(two_disks, 1.0)
    assert sc.shapes == two_disks.shapes


def test_transform_scales_disks(two_disks):
    sc = transform(two_disks, 2.0)
    assert sc.shapes[0] == Disk(4 + 0j, 2.0)
    assert sc.shapes[1] == Disk(-4 + 0j, 2.0)


def test_transform_rotates_square_corners():
    mapped = transform(scene([SQUARE]), 1j, 0).shapes[0]
    orig = {c.location * 1j for c in corners(arcs(SQUARE))}
    new = {c.location for c in corners(arcs(mapped))}
    assert all(min(abs(a - b) for b in new) < 1e-12 for a in orig)
    for c in corners(arcs(mapped)):
        assert c.omega_angle == pytest.approx(1.5 * math.pi, abs=1e-12)


def test_transform_preserves_corner_angles_generic():
    a = 0.7 - 1.3j
    tri = Polygon((0j, 2 + 0j, 1 + 2j))
    before = sorted(c.omega_angle for c in corners(arcs(tri)))
    mapped = transform(scene([tri]), a, 5j).shapes[0]
    after = sorted(c.omega_angle for c in corners(arcs(mapped)))
    assert np.allclose(before, after, atol=1e-12)


def test_transform_zero_scale_rejected(two_disks):
    with pytest.raises(ZeroScaleError):
        transform(two_disks, 0.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(-3.2, 3.2), st.floats(-3, 3), st.floats(-math.pi, math.pi),
       st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
@example(0.0, math.log10(abs(-0.05072231715024411 + 0.10079365459915447j)),
         cmath.phase(-0.05072231715024411 + 0.10079365459915447j), 0.0, 0.0)
def test_transform_keeps_a_whole_turn_arc_whole(theta0, log_a, angle, bx, by):
    # the map adds its rotation to both angles of the arc, which can round
    # their difference a few ulps past 2 pi; the mapped piece still turns
    # exactly once, so it validates and closes
    chain = ArcChain((CircularArc(0j, 1.0, theta0, theta0 + 2 * math.pi),))
    mapped = transform(scene([chain]), 10 ** log_a * cmath.exp(1j * angle), complex(bx, by))
    (piece,) = arcs(mapped.shapes[0])
    assert piece.turns == 1.0 and piece.end == piece.start
    validate_scene(mapped)


def _per_kind_transform(s, a, b):
    """z -> a*z + b written out for each record kind, the reference of the
    field table's ``transform``."""
    rot = cmath.phase(a)
    if isinstance(s, Disk):
        return Disk(a * s.center + b, abs(a) * s.radius)
    if isinstance(s, Ellipse):
        return Ellipse(a * s.center + b, abs(a) * s.semi_major, abs(a) * s.semi_minor,
                       s.rotation + rot)
    if isinstance(s, Polygon):
        return Polygon(tuple(a * v + b for v in s.vertices))
    if isinstance(s, Segment):
        return Segment(a * s.start + b, a * s.end + b)
    if isinstance(s, CircularArc):
        return CircularArc(a * s.center + b, abs(a) * s.radius, s.theta_start + rot,
                           s.theta_end + rot)
    return ArcChain(tuple(_per_kind_transform(pc, a, b) for pc in s.pieces))


@pytest.mark.parametrize("seed", range(25))
def test_transform_matches_the_per_kind_formulas_bitwise(seed):
    rng = np.random.default_rng([seed, 4242])

    def z(scale=10.0):
        return complex(*rng.uniform(-scale, scale, 2))

    a, b = z(3.0), z()
    shapes = (Disk(z(), rng.uniform(0.1, 3)),
              Ellipse(z(), *rng.uniform(0.1, 3, 2), rng.uniform(-4, 4)),
              Ellipse(z(), *rng.uniform(0.1, 3, 2)),
              Polygon(tuple(z() for _ in range(5))),
              ArcChain((Segment(z(), z()), CircularArc(z(), rng.uniform(0.1, 3),
                                                       *rng.uniform(-7, 7, 2)))),
              BITE)
    mapped = transform(scene(shapes, ("E", "F") * 3), a, b)
    assert mapped.labels == ("E", "F") * 3
    for s, m in zip(shapes, mapped.shapes):
        # repr tells every float's bits apart, -0.0 from 0.0 included
        assert repr(m) == repr(_per_kind_transform(s, a, b))


@pytest.mark.parametrize("record, name", [
    (Segment(0j, 1 + 0j), "shape Segment"),
    (CircularArc(0j, 1.0, 0.0, math.pi), "shape CircularArc"),
    (geometry.Corner(0j, math.pi), "shape Corner"),
    (ArcChain((Segment(-1 + 0j, 1 + 0j), Disk(0j, 1.0))), "piece Disk"),
    (ArcChain((half_disk(),)), "piece ArcChain"),
], ids=["segment", "circular_arc", "corner", "disk_piece", "chain_piece"])
def test_records_outside_the_field_table_are_degenerate_shapes(record, name):
    # a piece where a shape belongs, or a record the table does not hold
    sc = scene([record])
    for call in (lambda: transform(sc, 2.0), lambda: scene_to_config(sc),
                 lambda: geometry.shape_to_config(record, "E")):
        with pytest.raises(DegenerateShapeError, match=f"unknown {name}$"):
            call()


# --- config round-trip ------------------------------------------------------

def test_config_round_trip():
    sc = scene([Disk(2, 1.0), SQUARE, Ellipse(6j, 2.0, 1.0, 0.3), half_disk(-5 + 0j)],
               labels=("E", "F", "E", "F"))
    obj = scene_to_config(sc)
    back = scene_from_config(obj)
    assert back.shapes == sc.shapes
    assert back.labels == sc.labels


def test_config_unknown_fields_rejected():
    with pytest.raises(SceneConfigError):
        scene_from_config({"shapes": [{"type": "disk", "center": [0, 0],
                                       "radius": 1.0, "colour": "red"}]})
    with pytest.raises(SceneConfigError):
        scene_from_config({"shapes": [], "extra": 1})
    with pytest.raises(SceneConfigError):
        scene_from_config({"shapes": [{"type": "blob"}]})
    with pytest.raises(SceneConfigError):
        scene_from_config({"shapes": [{"type": "disk", "center": [0], "radius": 1.0}]})
    with pytest.raises(SceneConfigError):
        scene_from_config({"shapes": [{"type": "disk", "center": [0, 0],
                                       "radius": 1.0, "label": "G"}]})


_SEGMENT = {"type": "segment", "start": [-1, 0], "end": [1, 0]}
_ARC = {"type": "circular_arc", "center": [0, 0], "radius": 1,
        "theta_start": 0, "theta_end": math.pi}


@pytest.mark.parametrize("shape", [
    {"type": "disk", "center": [0, 0], "radius": "1.5"},
    {"type": "disk", "center": [0, 0], "radius": True},
    {"type": "disk", "center": [True, "2"], "radius": 1.0},
    {"type": "disk", "center": [0, None], "radius": 1.0},
    {"type": "disk", "center": [0, 0], "radius": 10 ** 400},
    {"type": "ellipse", "center": [0, 0], "semi_major": "2", "semi_minor": 1.0},
    {"type": "ellipse", "center": [0, 0], "semi_major": 2.0, "semi_minor": [1.0]},
    {"type": "ellipse", "center": [0, 0], "semi_major": 2.0, "semi_minor": 1.0, "rotation": False},
    {"type": "polygon", "vertices": [[1, 0], [0, 1], ["-1", 0], [0, -1]]},
    {"type": "arc_chain", "pieces": [dict(_SEGMENT, end=[1, False]), _ARC]},
    {"type": "arc_chain", "pieces": [_SEGMENT, dict(_ARC, center=["0", 0])]},
    {"type": "arc_chain", "pieces": [_SEGMENT, dict(_ARC, radius=True)]},
    {"type": "arc_chain", "pieces": [_SEGMENT, dict(_ARC, theta_start="0")]},
    {"type": "arc_chain", "pieces": [_SEGMENT, dict(_ARC, theta_end=None)]},
])
def test_config_rejects_numbers_of_the_wrong_json_type(shape):
    # "1.5", true and "2" are not coerced to numbers; an integer past the
    # float range is not a float
    with pytest.raises(SceneConfigError, match="must be a number|too large for a float"):
        scene_from_config({"shapes": [shape]})


def test_config_accepts_json_integers_and_floats():
    sc = scene_from_config({"shapes": [
        {"type": "disk", "center": [4, 0.5], "radius": 1},
        {"type": "ellipse", "center": [0, -4], "semi_major": 2, "semi_minor": 1.0, "rotation": 0},
        {"type": "arc_chain", "pieces": [_SEGMENT, _ARC]}]})
    assert sc.shapes == (Disk(4 + 0.5j, 1.0), Ellipse(-4j, 2.0, 1.0, 0.0),
                         ArcChain((Segment(-1 + 0j, 1 + 0j), CircularArc(0j, 1.0, 0.0, math.pi))))


@pytest.mark.parametrize("obj, match", [
    ({"shapes": [{"center": [0, 0], "radius": 1.0}]}, "each shape needs a 'type' field"),
    ({"shapes": [{"type": "arc_chain", "pieces": [{"start": [-1, 0], "end": [1, 0]}, _ARC]}]},
     "each piece needs a 'type' field"),
    ({"shapes": [{"type": "arc_chain", "pieces": [dict(_SEGMENT, width=1), _ARC]}]},
     "unknown fields in segment piece"),
    ({"shapes": [{"type": "arc_chain", "pieces": [_SEGMENT, dict(_ARC, turns=1)]}]},
     "unknown fields in circular_arc piece"),
    ({"shapes": [{"type": "arc_chain", "pieces": [_SEGMENT, dict(_ARC, type="spline")]}]},
     "unknown piece type 'spline'"),
    ({"shapes": [{"type": "polygon", "vertices": 4}]}, "bad value in polygon"),
    ([{"type": "disk", "center": [0, 0], "radius": 1.0}], "must be a JSON object"),
    ({"schedule": {"mode": "rings", "layers": 1}}, "non-empty 'shapes' list"),
], ids=["shape_type", "piece_type", "segment_field", "arc_field", "piece_kind",
        "vertices", "not_object", "no_shapes"])
def test_config_reader_errors(obj, match):
    with pytest.raises(SceneConfigError, match=match):
        scene_from_config(obj)


@pytest.mark.parametrize("obj, match", [
    ({"type": "segment", "start": [0, 0], "end": [1, 0]}, "unknown shape type 'segment'"),
    ({"type": "arc_chain", "pieces": [{"type": "disk", "center": [0, 0], "radius": 1.0}]},
     "unknown piece type 'disk'"),
    ({"type": ["disk"], "center": [0, 0], "radius": 1.0}, r"unknown shape type \['disk'\]"),
    ({"type": "arc_chain", "pieces": [dict(_SEGMENT, label="E"), _ARC]},
     r"unknown fields in segment piece: \['label'\]"),
    ({"type": "ellipse", "center": [0, 0], "semi_major": 2.0}, "missing field 'semi_minor'"),
    ({"type": "arc_chain", "pieces": [{"type": "segment", "start": [0, 0]}, _ARC]},
     "missing field 'end' for segment"),
], ids=["piece_as_shape", "shape_as_piece", "unhashable_type", "piece_label",
        "missing_shape_field", "missing_piece_field"])
def test_config_reader_takes_shapes_and_pieces_from_the_field_table(obj, match):
    with pytest.raises(SceneConfigError, match=match):
        scene_from_config({"shapes": [obj]})


def test_config_round_trip_keeps_an_ellipse_rotation_and_defaults_it():
    sc = scene([Ellipse(0j, 2.0, 1.0, -2.5), Ellipse(9 + 0j, 2.0, 1.0)])
    obj = scene_to_config(sc)
    assert [sh["rotation"] for sh in obj["shapes"]] == [-2.5, 0.0]
    del obj["shapes"][1]["rotation"]
    assert scene_from_config(obj) == sc


def test_unreadable_config_file_is_a_config_error(tmp_path):
    with pytest.raises(SceneConfigError, match="cannot read"):
        geometry.load_scene(tmp_path / "missing.json")


def test_scene_needs_a_label_per_shape():
    with pytest.raises(SceneConfigError, match="one label per shape"):
        geometry.Scene((Disk(0j, 1.0), Disk(3 + 0j, 1.0)), ("E",))


def test_empty_scene_is_a_config_error():
    with pytest.raises(SceneConfigError, match="at least one shape"):
        validate_scene(geometry.Scene((), ()))
