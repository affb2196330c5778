"""Plane geometry for compact sets bounded by disks, ellipses, polygons and arc chains.

A compact set K is a :class:`Scene`: a list of pairwise-disjoint closed shapes,
each tagged ``"E"`` or ``"F"``.  Every shape is a Jordan curve made of finitely
many analytic pieces.  The module knows how to

* describe every boundary piece (segment, circular arc, ellipse, disk) in one
  coefficient form, :class:`ParametricArc`, which every other operation
  here, the quadrature and the gap kernel read,
* validate a scene without sampling: simple, positively oriented curves,
  containment by an exact winding number (points on a boundary are
  outside), and pairwise disjointness certified by a chord-bound
  branch-and-bound (each boundary is covered by chords that carry their
  sagitta bounds, and only chord pairs whose lower bound is not yet above
  rounding are halved); no gap is measured,
* list the corners of a shape together with the angle the complement
  occupies there,
* pick an interior anchor point for pole placement, exactly: the mean of
  the pieces' parameter means, or an inward probe when that is not inside,
  and
* apply affine maps z -> a*z + b.

``Segment`` and ``CircularArc`` are input records of an :class:`ArcChain`;
only :func:`arcs`, :func:`transform` and the JSON schema read them.

Points are plain ``complex`` numbers throughout.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    DegenerateShapeError,
    OverlapError,
    SceneConfigError,
    ZeroScaleError,
)

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)

# ---------------------------------------------------------------------------
# shape types


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float


@dataclass(frozen=True)
class Ellipse:
    center: complex
    semi_major: float
    semi_minor: float
    rotation: float = 0.0


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[complex, ...]


@dataclass(frozen=True)
class Segment:
    start: complex
    end: complex


@dataclass(frozen=True)
class CircularArc:
    center: complex
    radius: float
    theta_start: float
    theta_end: float


@dataclass(frozen=True)
class ArcChain:
    pieces: tuple[Union[Segment, CircularArc], ...]


Shape = Union[Disk, Ellipse, Polygon, ArcChain]


@dataclass(frozen=True)
class Corner:
    """Boundary point where two analytic pieces meet at an angle != pi.

    ``omega_angle`` is the angle of the sector occupied by the complement of K
    at the corner, in (0, 2*pi).  For the interior angle ``theta`` of K one has
    ``omega_angle = 2*pi - theta`` (a square corner gives 3*pi/2).
    """

    location: complex
    omega_angle: float


class ParametricArc(NamedTuple):
    """One analytic boundary piece in coefficient form, over t in [0, 1]:

        z(t) = p0 + p1 t + b e(t) + d conj(e(t)),   e(t) = e0 exp(2 pi i turns t).

    A segment has b = d = turns = 0, a circular arc p1 = d = 0, and an
    ellipse (the affine image of a circle) p1 = 0 and turns = 1.  So a
    curved piece (turns != 0) has p1 = 0, and ``_point_velocity``,
    ``_disp``, ``_signed_area`` and ``_winding_number`` leave its p1 term
    out.  Every point of a parameter interval of angle delta =
    2 pi |turns| (t1 - t0), any width up to a full turn, lies within the
    sagitta k (1 - cos delta/2) of its chord, where k = |b| + |d| is the
    radius of an arc, the semi-major axis of an ellipse and 0 for a
    segment.  Proof: with c the point of the chord of e at the fraction that
    projects e(t) onto it (its midpoint once delta > pi), z(t) less the
    chord of z at the same fraction is b (e - c) + d conj(e - c), and
    |e - c| <= 1 - cos delta/2.

    Quadrature reads single pieces.  The gap kernel stacks pieces, one array
    entry per piece in every field, and reads ``point``, ``sagitta``,
    ``chords`` and ``size``, which take arrays of one t per piece.
    """

    p0: complex
    p1: complex
    b: complex
    d: complex
    e0: complex
    turns: float
    k: float

    def point(self, t):
        """z(t) at a scalar or an array t."""
        e = self.e0 * _turn(self.turns * t)
        return self.p0 + self.p1 * t + self.b * e + self.d * np.conj(e)

    def velocity(self, t):
        """z'(t) at a scalar or an array t."""
        return self._point_velocity(t)[1] + 0.0 * t  # a segment's is a constant

    def _point_velocity(self, t):
        """z(t), equal to ``point(t)`` up to rounding, and z'(t) of one piece,
        both from one e(t).

        Terms with a zero coefficient are skipped (the angle of a segment, d
        of a circular arc): quadrature calls this on node arrays of a few
        dozen entries, where each array operation costs about as much as its
        arithmetic.  A segment's z' is a scalar.
        """
        if not self.turns:
            return self.p0 + self.p1 * t, self.p1
        e = _turn(self.turns * t)
        dz = (self.b * self.e0) * e
        z = self.p0 + dz
        if self.d:
            de = (self.d * self.e0.conjugate()) * np.conj(e)
            z, dz = z + de, dz - de
        return z, (TWO_PI * 1j * self.turns) * dz

    @property
    def start(self) -> complex:
        return self.p0 + self.b * self.e0 + self.d * self.e0.conjugate()

    @property
    def end(self) -> complex:
        e = self._e1()
        return self.p0 + self.p1 + self.b * e + self.d * e.conjugate()

    def _e1(self) -> complex:
        # e(1) in Python scalars with _turn's quarter turns: exactly e0 after
        # a whole turn, so a closed piece has end == start
        q = round(4.0 * self.turns)
        return self.e0 * 1j ** q * cmath.exp(TWO_PI * 1j * (self.turns - 0.25 * q))

    def disp_start(self, s):
        """The exact displacement z(s) - z(0), s a scalar or an array.

        Quadrature next to a corner endpoint uses it (and ``disp_end``)
        instead of subtracting two nearly equal points, which would round the
        difference to zero.
        """
        return self._disp(s, self.p1, self.e0, self.turns)

    def disp_end(self, s):
        """z(1 - s) - z(1): ``disp_start`` of the piece traversed backwards."""
        return self._disp(s, -self.p1, self._e1(), -self.turns)

    def _disp(self, s, p1, e0, turns):
        # b e0 (e^{2ih} - 1) = 2i b e0 sin(h) e^{ih} with h = pi turns s, and
        # the conjugate for d, stay accurate for tiny s
        if not turns:
            return p1 * s
        h = math.pi * turns * s
        sin_h, w = np.sin(h), np.exp(1j * h)
        out = (2j * self.b * e0) * sin_h * w
        if self.d:
            out = out - (2j * self.d * e0.conjugate()) * sin_h * np.conj(w)
        return out

    def sagitta(self, t0, t1):
        """A bound on the distance from z([t0, t1]) to its chord."""
        return 2.0 * self.k * np.sin(0.5 * math.pi * np.abs(self.turns) * (t1 - t0)) ** 2

    def chords(self):
        """(piece, t0, t1) arrays that cut each stacked piece into chords of at
        most _CHORD_TURNS of a turn."""
        m = np.maximum(1, np.ceil(np.abs(self.turns) / _CHORD_TURNS)).astype(int)
        i = np.repeat(np.arange(m.size), m)
        j = np.arange(i.size) - np.repeat(np.cumsum(m) - m, m)
        return i, j / m[i], (j + 1) / m[i]

    def size(self) -> float:
        """A bound on |z(t)|, which sets the rounding error of the points."""
        return float(np.max(np.abs(self.p0) + np.abs(self.p1) + np.abs(self.b) + np.abs(self.d)))


@dataclass(frozen=True)
class Scene:
    """A compact set: disjoint closed shapes with an E/F tag per shape;
    :func:`validate_scene` certifies the disjointness."""

    shapes: tuple[Shape, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.shapes) != len(self.labels):
            raise SceneConfigError("one label per shape required")
        for lab in self.labels:
            if lab not in ("E", "F"):
                raise SceneConfigError(f"label must be 'E' or 'F', got {lab!r}")


def scene(shapes, labels=None) -> Scene:
    """Convenience constructor; labels default to all-'E'."""
    shapes = tuple(shapes)
    if labels is None:
        labels = ("E",) * len(shapes)
    return Scene(shapes, tuple(labels))


# ---------------------------------------------------------------------------
# boundary check


def _check_boundary(pieces: list[ParametricArc]) -> None:
    """Check one shape's boundary pieces, its ``arcs``, by rules that read no
    shape kind, so a polygon and the arc chain of its edges get one verdict.
    Raises :class:`DegenerateShapeError` unless there are pieces, all finite;
    each starts within tol = 1e-9 max|z| of where the one before ends; a
    curved piece has k > 0 and turns less than once, or once as the only
    piece; a straight piece is longer than 1e-14 diam, diam the widest
    distance between piece starts (a zero-length arc is a straight piece with
    p1 = 0); two straight pieces in a row do not lie on one line, so they
    neither run on nor fold straight back; two curved pieces in a row do not
    turn opposite ways on one circle; the signed area is positive (a radius or
    semi-axis <= 0 breaks this or k > 0); two pieces in a row, one of them
    curved, share no point but their join to within tol (see
    :func:`_meet_again`); and non-adjacent pieces have a certified positive
    gap.
    """
    if not pieces:
        raise DegenerateShapeError("boundary has no pieces")
    if not all(map(cmath.isfinite, itertools.chain.from_iterable(pieces))):
        raise DegenerateShapeError("boundary pieces must be finite")
    starts = [arc.start for arc in pieces]
    ends = [arc.end for arc in pieces]
    scale = max(map(abs, starts + ends)) or 1.0
    diam = max(abs(z - w) for z in starts for w in starts)
    for i, arc in enumerate(pieces):
        if abs(ends[i - 1] - starts[i]) > 1e-9 * scale:
            raise DegenerateShapeError(f"piece {i} does not start where the one before ends")
        prev = pieces[i - 1]
        if arc.turns:
            if not (arc.k > 0 and abs(arc.turns) <= 1):
                raise DegenerateShapeError(f"curved piece {i} needs k > 0 and at most one turn")
            if abs(arc.turns) == 1 and len(pieces) > 1:
                raise DegenerateShapeError(f"curved piece {i} turns once but is not the only piece")
            if prev.turns * arc.turns < 0 and (prev.p0, prev.b, prev.d) == (arc.p0, arc.b, arc.d):
                raise DegenerateShapeError(
                    f"curved piece {i} turns back along the circle of the one before")
        elif not abs(arc.p1) > 1e-14 * diam:
            raise DegenerateShapeError(f"straight piece {i} is too short (repeated vertex)")
        elif not prev.turns:
            w = prev.p1.conjugate() * arc.p1
            if abs(w.imag) < 1e-14 * diam * diam:
                raise DegenerateShapeError(f"straight piece {i} is collinear with the one before")
    if _signed_area(pieces) <= 0:
        raise DegenerateShapeError("boundary must be positively oriented")
    # the two pieces of a two-piece boundary meet only at its two joins: a line
    # or a circle shares at most two points with a circle
    if len(pieces) > 2:
        for i, arc in enumerate(pieces):
            if _meet_again(pieces[i - 1], arc, 1e-9 * scale):
                raise DegenerateShapeError(f"piece {i} meets the one before away from their join")
    if len(pieces) > 3:
        try:
            _certified_gaps([_stack(pieces)], [(0, 0)], ["two non-adjacent pieces"])
        except OverlapError as exc:
            raise DegenerateShapeError(f"boundary is not simple: {exc}") from None


def _meet_again(prev: ParametricArc, arc: ParametricArc, tol: float) -> bool:
    """Whether two pieces in a row, segments or circular arcs of less than a
    whole turn, share a point other than their join z = arc.start, to within
    tol; two segments are left to the collinearity rule.

    A line or a circle meets another circle in at most two points, so the
    second one p is in closed form.  For a segment a + v t the join is the
    root t = 1 (or t = 0 when the segment comes second) of
    |a + v t - c|^2 = r^2, whose roots sum to -2 Re(conj(v) (a - c)) / |v|^2;
    two circles meet again at the join reflected across their line of
    centres.  A p within tol of the join is a double root, a tangency (or a
    cusp, left to ``corners``).  Two arcs about one centre meet again when
    they turn opposite ways or cover a whole turn between them.
    """
    if not (prev.turns or arc.turns):
        return False
    z = arc.start
    if prev.turns and arc.turns:
        c = prev.p0
        if arc.p0 == c:
            return (prev.turns * arc.turns < 0
                    or abs(prev.turns) + abs(arc.turns) >= 1 - tol / (TWO_PI * arc.k))
        u = (arc.p0 - c) / abs(arc.p0 - c)
        p = c + u * u * (z - c).conjugate()
    else:
        seg, circle = (arc, prev) if prev.turns else (prev, arc)
        a, v = seg.p0, seg.p1
        t_join = 1.0 if seg is prev else 0.0
        p = a + v * (-2.0 * (v.conjugate() * (a - circle.p0)).real / abs(v) ** 2 - t_join)
    return abs(p - z) > tol and _distance(prev, p) <= tol and _distance(arc, p) <= tol


def _distance(arc: ParametricArc, z: complex) -> float:
    """Distance from z to a segment or a circular arc of less than a whole turn."""
    if not arc.turns:
        t = min(max((arc.p1.conjugate() * (z - arc.p0)).real / abs(arc.p1) ** 2, 0.0), 1.0)
        return abs(z - (arc.p0 + arc.p1 * t))
    w = (z - arc.p0) / (arc.b * arc.e0)  # arg w: the angle from the start
    if cmath.phase(w if arc.turns > 0 else w.conjugate()) % TWO_PI <= TWO_PI * abs(arc.turns):
        return abs(abs(z - arc.p0) - arc.k)
    return min(abs(z - arc.start), abs(z - arc.end))


def _signed_area(pieces: list[ParametricArc]) -> float:
    # (1/2) sum of Im(conj(z - o) dz) over each piece in closed form, o the first
    # start: with z = p0 + p1 t + b e + d conj(e) (p1 = 0 on a curved piece) it is
    # Im(conj(p0 - o) (z1 - z0)) + (|b|^2 - |d|^2) 2 pi turns, and z1 - z0 =
    # p1 + b (e1 - e0) + d conj(e1 - e0) makes a two-vertex polygon's area exactly 0
    o = pieces[0].start
    area = 0.0
    for arc in pieces:
        de = arc._e1() - arc.e0
        chord = arc.p1 + arc.b * de + arc.d * de.conjugate()
        area += (((arc.p0 - o).conjugate() * chord).imag
                 + (abs(arc.b) ** 2 - abs(arc.d) ** 2) * TWO_PI * arc.turns)
    return 0.5 * area


def point_in_shape(s: Shape, z: complex) -> bool:
    """True iff z lies strictly inside s (points on the boundary are outside).

    Each call builds the boundary pieces; a caller that tests many points
    builds ``arcs(s)`` once and reads :func:`_winding_number`.
    """
    return _winding_number(arcs(s), z) != 0


def _winding_number(pieces: list[ParametricArc], z: complex) -> int:
    """Winding number of the closed boundary about z, in closed form.

    Each piece z0 -> z1 turns arg(w - z) by its chord angle
    arg((z1 - z)/(z0 - z)).  A curved piece (p1 = 0) turns it by 2 pi more,
    signed by its direction, when z lies in its lens between the piece and
    its chord, since piece plus reversed chord is a loop around the lens.
    The lens is the part of the piece's disk or ellipse, the points whose e
    solving z - p0 = b e + d conj(e) has |e| < 1, on the piece's side of
    the chord (all of it for a whole turn); on the open chord itself the
    piece turns the argument by half a turn.  Points on the boundary count
    as outside: a segment holds z when its chord ratio is real and
    negative, a curved piece when |e| = 1 on its side of the chord.
    """
    total = 0.0
    for arc in pieces:
        z0, z1 = arc.start, arc.end
        if z in (z0, z1):
            return 0
        ratio = (z1 - z) / (z0 - z)
        angle = cmath.phase(ratio)
        if arc.turns:
            w = z - arc.p0
            e = abs((arc.b.conjugate() * w - arc.d * w.conjugate())
                    / (abs(arc.b) ** 2 - abs(arc.d) ** 2))
            chord = (z1 - z0).conjugate()
            side = 1.0 if abs(arc.turns) == 1 else (
                (chord * (z - z0)).imag * (chord * (arc.point(0.5) - z0)).imag)
            if e == 1 and side > 0:
                return 0
            if e < 1 and side > 0:
                angle += math.copysign(TWO_PI, arc.turns)
            elif e < 1 and side == 0:
                angle = math.copysign(math.pi, arc.turns)
        elif ratio.imag == 0 and ratio.real < 0:
            return 0
        total += angle
    return round(total / TWO_PI)


# ---------------------------------------------------------------------------
# core operations


def corners(s: Shape) -> list[Corner]:
    """Corners of a shape with the complement-side angle at each.

    Smooth shapes (disks, ellipses) have none.  For polygons and arc chains,
    every junction where the tangent turns by more than 1e-9 becomes a corner
    with ``omega_angle = pi + turn`` where ``turn`` is the signed tangent
    rotation in (-pi, pi), the angle of z'(0) of a piece over z'(1) of the
    piece before; a turn within 1e-9 of +-pi (a cusp) raises
    :class:`DegenerateShapeError`.  Corners come in boundary order, from the
    start of the first piece (a polygon's first vertex).
    """
    pieces = arcs(s)
    out = []
    for i, arc in enumerate(pieces):
        turn = cmath.phase(arc.velocity(0) / pieces[i - 1].velocity(1))
        if abs(turn) < 1e-9:
            continue
        if abs(abs(turn) - math.pi) < 1e-9:
            raise DegenerateShapeError("cusp in boundary (zero-angle corner)")
        out.append(Corner(arc.start, math.pi + turn))
    return out


def arcs(s: Shape) -> list[ParametricArc]:
    """Positively oriented analytic arcs covering the boundary of s; a
    polygon's and an arc chain's in boundary order, one per edge or piece."""
    if isinstance(s, Disk):
        return arcs(Ellipse(s.center, s.radius, s.radius))
    if isinstance(s, Ellipse):
        a, b = s.semi_major, s.semi_minor
        rot = cmath.exp(1j * s.rotation)
        return [ParametricArc(s.center, 0j, 0.5 * (a + b) * rot, 0.5 * (a - b) * rot,
                              1 + 0j, 1.0, max(a, b))]
    if isinstance(s, Polygon):
        v = s.vertices
        pieces = [Segment(z0, z1) for z0, z1 in zip(v, v[1:] + v[:1])]
    elif isinstance(s, ArcChain):
        pieces = s.pieces
    else:
        raise DegenerateShapeError(f"unknown shape {type(s).__name__}")
    out = []
    for pc in pieces:
        if isinstance(pc, Segment):
            out.append(ParametricArc(pc.start, pc.end - pc.start, 0j, 0j, 1 + 0j, 0.0, 0.0))
        elif isinstance(pc, CircularArc):
            sweep = pc.theta_end - pc.theta_start
            # a whole turn up to the rounding of its two angles (a rotated
            # one, say) is exactly one, so the piece still closes; the
            # rounding is that of angles of at most 32 turns, so a sweep far
            # from a turn, or one that is not finite, is never snapped
            big = min(max(abs(pc.theta_start), abs(pc.theta_end)), 32 * TWO_PI)
            if abs(abs(sweep) - TWO_PI) <= 4 * _EPS * big:
                sweep = math.copysign(TWO_PI, sweep)
            out.append(ParametricArc(pc.center, 0j, pc.radius + 0j, 0j,
                                     cmath.exp(1j * pc.theta_start), sweep / TWO_PI, pc.radius))
        else:
            raise DegenerateShapeError(f"unknown piece {type(pc).__name__}")
    return out


_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


def _turn(t):
    """exp(2 pi i t) from t = q/4 + r, |r| <= 1/8: i^q is exact and the angle
    2 pi r rounds little, where the rounding of 2 pi t grows with t and biases
    the points just before t = 1 against the same points reached from t = 0."""
    q = np.rint(4.0 * t)
    return np.exp((t - 0.25 * q) * (2j * math.pi)) * _QUARTER_TURNS.take(q.astype(int), mode="wrap")


def interior_anchor(s: Shape) -> complex:
    """A point strictly inside the shape, used as the default pole center.

    The mean over the pieces of each piece's exact parameter mean
    p0 + p1/2 + b m + d conj(m), m = (e(1) - e0)/(2 pi i turns) the mean of
    e(t): the centre of a disk or an ellipse, the vertex mean of a polygon,
    c + i r/pi for the half-disk over [c - r, c + r].  When that point is not
    inside, the anchor is the first inward probe p = point(1/2) + f i z'(1/2),
    f = 1/4, 1/10, 1/50, piece by piece, that is inside with the cross
    p +- h, p +- i h, h = (f/2) i z'(1/2): so a probe on another piece is
    refused whichever side of it rounding puts it.
    """
    pieces = arcs(s)
    cand = sum(map(_mean_point, pieces)) / len(pieces)
    if _winding_number(pieces, cand):
        return cand
    for arc in pieces:
        mid, inward = arc.point(0.5), 1j * arc.velocity(0.5)  # the interior is left of travel
        for frac in (0.25, 0.1, 0.02):
            p = complex(mid + frac * inward)
            h = 0.5 * frac * inward
            if all(_winding_number(pieces, p + dz) for dz in (0, h, -h, 1j * h, -1j * h)):
                return p
    raise DegenerateShapeError(f"could not find an interior point of {type(s).__name__}")


def _mean_point(arc: ParametricArc) -> complex:
    """The mean of z(t) over t in [0, 1]."""
    m = (arc._e1() - arc.e0) / (TWO_PI * 1j * arc.turns) if arc.turns else 0j
    return arc.p0 + 0.5 * arc.p1 + arc.b * m + arc.d * m.conjugate()


def transform(sc: Scene, a: complex, b: complex = 0j) -> Scene:
    """Apply z -> a*z + b to every shape; shape types are preserved."""
    if a == 0:
        raise ZeroScaleError("scale factor a must be nonzero")
    return Scene(tuple(_transform_shape(s, a, b) for s in sc.shapes), sc.labels)


def _transform_shape(s: Shape, a: complex, b: complex) -> Shape:
    rot = cmath.phase(a)
    if isinstance(s, Disk):
        return Disk(a * s.center + b, abs(a) * s.radius)
    if isinstance(s, Ellipse):
        return Ellipse(a * s.center + b, abs(a) * s.semi_major, abs(a) * s.semi_minor,
                       s.rotation + rot)
    if isinstance(s, Polygon):
        return Polygon(tuple(a * v + b for v in s.vertices))
    if isinstance(s, ArcChain):
        pieces = []
        for piece in s.pieces:
            if isinstance(piece, Segment):
                pieces.append(Segment(a * piece.start + b, a * piece.end + b))
            else:
                pieces.append(CircularArc(a * piece.center + b, abs(a) * piece.radius,
                                          piece.theta_start + rot, piece.theta_end + rot))
        return ArcChain(tuple(pieces))
    raise DegenerateShapeError(f"unknown shape {type(s).__name__}")


# ---------------------------------------------------------------------------
# scene validation


def validate_scene(sc: Scene) -> Scene:
    """Check every shape's ``arcs`` by :func:`_check_boundary`, one rule set
    for every shape kind, then the pairwise disjointness of their closures.

    Returns the scene unchanged.  Two disks use the closed form; every other
    pair goes through one call of the chord-bound kernel
    :func:`_certified_gaps`, which sees crossing boundaries exactly and stops
    once each gap is certified above rounding; no gap is measured.  A shape
    inside another is found by the exact winding number.  Raises
    :class:`OverlapError` for any pair whose gap is not certified positive.
    Deterministic.
    """
    if not sc.shapes:
        raise SceneConfigError("scene needs at least one shape")
    pieces = [arcs(s) for s in sc.shapes]
    for p in pieces:
        _check_boundary(p)
    pairs = []
    for i, j in itertools.combinations(range(len(sc.shapes)), 2):
        s1, s2 = sc.shapes[i], sc.shapes[j]
        if isinstance(s1, Disk) and isinstance(s2, Disk):
            g = abs(s1.center - s2.center) - s1.radius - s2.radius
            if g <= 0:
                raise OverlapError(f"shapes {i} and {j} have intersecting closures (gap {g:.3g})")
        # a shape inside the other has no boundary crossing for the kernel to see
        elif (_winding_number(pieces[j], pieces[i][0].start)
              or _winding_number(pieces[i], pieces[j][0].start)):
            raise OverlapError(f"shapes {i} and {j} overlap: a boundary point of one lies inside the other")
        else:
            pairs.append((i, j))
    if pairs:
        _certified_gaps([_stack(p) for p in pieces], pairs, [f"shapes {i} and {j}" for i, j in pairs])
    return sc


_CHORD_TURNS = 1.0 / 4  # widest initial chord of a curved piece, in turns
_GAP_ROUNDS = 64
_GAP_MAX_PAIRS = 1 << 17


def _stack(pieces: list[ParametricArc]) -> ParametricArc:
    """The pieces as one ParametricArc of arrays, one entry per piece."""
    return ParametricArc(*map(np.array, zip(*pieces)))


def _certified_gaps(curves: list[ParametricArc], pairs: list[tuple[int, int]],
                    names: list[str]) -> None:
    """Certify a positive distance between curves m and n for every (m, n)
    in ``pairs``; for m == n, between the non-adjacent pieces of m.  Each
    curve is one shape's pieces, stacked by :func:`_stack`.

    Each curve is covered by chords of at most ``_CHORD_TURNS`` of a turn that
    carry their pieces' sagitta bounds.  For a pair of chords, the
    segment-segment distance (0 when they cross) minus both sagittas is a
    lower bound on the distance between the two pieces.  A chord pair is
    settled when that bound is above its curve pair's rounding slack, or when
    both chords are straight (the bound is then exact and must clear the
    slack); every other chord pair has each curved chord halved.  Chord
    pairs go through the rounds as arrays of (pair, piece, t0, t1, piece, t0,
    t1), in independent batches of at most ``_GAP_MAX_PAIRS``.

    Raises OverlapError, naming the curve pair, when two curves meet within
    rounding (the curve points at the chords' nearest parameters, or two
    chord ends), when a straight pair's distance is within rounding, when the
    live chord pairs outgrow the cap (a boundary that runs parallel to
    another within rounding), or after ``_GAP_ROUNDS`` rounds.
    """
    curve = ParametricArc(*map(np.concatenate, zip(*curves)))
    off = np.cumsum([0] + [c.p0.size for c in curves])
    cuts = [(i + o, t0, t1) for (i, t0, t1), o in zip((c.chords() for c in curves), off)]
    slack = 32.0 * _EPS * np.array([max(curves[m].size(), curves[n].size()) for m, n in pairs])
    batch, rows = [], 0
    for g, (m, n) in enumerate(pairs):
        (ia, ta0, ta1), (ib, tb0, tb1) = cuts[m], cuts[n]
        nb = ib.size
        step = max(1, _GAP_MAX_PAIRS // nb)
        for lo in range(0, ia.size, step):
            ja = np.repeat(np.arange(lo, min(lo + step, ia.size)), nb)
            jb = np.tile(np.arange(nb), ja.size // nb)
            if m == n:
                # a boundary against itself: each two non-adjacent pieces once
                apart = ib[jb] - ia[ja]
                keep = (apart > 1) & (apart < curves[m].p0.size - 1)
                ja, jb = ja[keep], jb[keep]
            if batch and rows + ja.size > _GAP_MAX_PAIRS:
                _refine_gaps(curve, batch, slack, names)
                batch, rows = [], 0
            batch.append((np.full(ja.size, g), ia[ja], ta0[ja], ta1[ja], ib[jb], tb0[jb], tb1[jb]))
            rows += ja.size
    _refine_gaps(curve, batch, slack, names)


def _refine_gaps(curve: ParametricArc, blocks, slack, names) -> None:
    """Run one batch of chord pairs until every one is settled."""
    rows = [np.concatenate(col) for col in zip(*blocks)]
    for _ in range(_GAP_ROUNDS):
        g, ai, a0, a1, bi, b0, b1 = rows
        # the pieces of each chord pair's two chords, one entry per row
        pa, pb = curve._make(x[ai] for x in curve), curve._make(x[bi] for x in curve)
        za0, za1 = pa.point(a0), pa.point(a1)
        zb0, zb1 = pb.point(b0), pb.point(b1)
        dist, s, u = _segment_distance(za0, za1, zb0, zb1)
        lb = dist - pa.sagitta(a0, a1) - pb.sagitta(b0, b1)
        near = np.abs(pa.point(a0 + s * (a1 - a0)) - pb.point(b0 + u * (b1 - b0)))
        for p, q in ((za0, zb0), (za0, zb1), (za1, zb0), (za1, zb1)):
            near = np.minimum(near, np.abs(p - q))
        _raise_first(near <= slack[g], g, names,
                     "have intersecting closures (distance within rounding)")
        low = lb <= slack[g]
        bent_a = pa.k > 0
        live = low & (bent_a | (pb.k > 0))
        if 4 * np.count_nonzero(live) > _GAP_MAX_PAIRS:
            live[:] = False  # too many chord pairs to halve: the low bounds are final
        _raise_first(low & ~live, g, names, "gap not certified above rounding")
        if not live.any():
            return
        rows = _split([x[live] for x in rows], bent_a[live], 2, 3)
        rows = _split(rows, curve.k[rows[4]] > 0, 5, 6)
    raise OverlapError(f"{names[rows[0][0]]}: gap not resolved within {_GAP_ROUNDS} rounds")


def _raise_first(bad: np.ndarray, g: np.ndarray, names: list[str], what: str) -> None:
    if bad.any():
        raise OverlapError(f"{names[g[int(np.argmax(bad))]]} {what}")


def _split(rows, split, lo, hi):
    """Replace the chord (rows[lo], rows[hi]) of each row with ``split`` set
    by its two halves; the other columns are copied.  The cut point is
    t0/2 + t1/2, so the halves meet exactly and end at t0 and t1."""
    rep = np.repeat(np.arange(split.size), np.where(split, 2, 1))
    out = [x[rep] for x in rows]
    first = np.zeros(rep.size, bool)
    first[:-1] = rep[1:] == rep[:-1]  # the first of a split row's two copies
    mid = 0.5 * out[lo] + 0.5 * out[hi]
    out[hi] = np.where(first, mid, out[hi])
    out[lo] = np.where(np.roll(first, 1), mid, out[lo])
    return out


def _cross(x, y):
    return (np.conj(x) * y).imag


def _segment_distance(a0, a1, b0, b1):
    """Distance between the segments [a0, a1] and [b0, b1] (0 where they
    cross) and parameters s, u of a nearest pair a0 + s da, b0 + u db."""
    da, db = a1 - a0, b1 - b0

    def foot(p, q0, dq):
        n2 = np.abs(dq) ** 2
        v = np.divide(((p - q0) * np.conj(dq)).real, n2, out=np.zeros_like(n2), where=n2 > 0)
        return np.clip(v, 0.0, 1.0)

    zero, one = np.zeros(a0.shape), np.ones(a0.shape)
    s = np.stack([zero, one, foot(b0, a0, da), foot(b1, a0, da)])
    u = np.stack([foot(a0, b0, db), foot(a1, b0, db), zero, one])
    d = np.abs(a0 + s * da - (b0 + u * db))
    k = np.argmin(d, axis=0)
    col = np.arange(a0.size)
    dist, s, u = d[k, col], s[k, col], u[k, col]
    den = _cross(da, db)
    ok = den != 0
    sc = np.divide(_cross(b0 - a0, db), den, out=np.zeros_like(den), where=ok)
    uc = np.divide(_cross(b0 - a0, da), den, out=np.zeros_like(den), where=ok)
    hit = ok & (sc >= 0) & (sc <= 1) & (uc >= 0) & (uc <= 1)
    return np.where(hit, 0.0, dist), np.where(hit, sc, s), np.where(hit, uc, u)


# ---------------------------------------------------------------------------
# JSON serialization (the fixed config schema)

_SHAPE_KEYS = {
    "disk": {"type", "center", "radius", "label"},
    "ellipse": {"type", "center", "semi_major", "semi_minor", "rotation", "label"},
    "polygon": {"type", "vertices", "label"},
    "arc_chain": {"type", "pieces", "label"},
}


def _xy(val, what: str) -> complex:
    if (not isinstance(val, (list, tuple))) or len(val) != 2:
        raise SceneConfigError(f"{what} must be an [x, y] pair")
    try:
        return complex(float(val[0]), float(val[1]))
    except (TypeError, ValueError) as exc:
        raise SceneConfigError(f"{what} has non-numeric entries") from exc


def shape_from_config(obj: dict) -> tuple[Shape, str]:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SceneConfigError("each shape needs a 'type' field")
    kind = obj["type"]
    if kind not in _SHAPE_KEYS:
        raise SceneConfigError(f"unknown shape type {kind!r}")
    unknown = set(obj) - _SHAPE_KEYS[kind]
    if unknown:
        raise SceneConfigError(f"unknown fields for {kind}: {sorted(unknown)}")
    label = obj.get("label", "E")
    if label not in ("E", "F"):
        raise SceneConfigError(f"label must be 'E' or 'F', got {label!r}")
    try:
        if kind == "disk":
            return Disk(_xy(obj["center"], "center"), float(obj["radius"])), label
        if kind == "ellipse":
            return Ellipse(_xy(obj["center"], "center"), float(obj["semi_major"]),
                           float(obj["semi_minor"]), float(obj.get("rotation", 0.0))), label
        if kind == "polygon":
            return Polygon(tuple(_xy(v, "vertex") for v in obj["vertices"])), label
        pieces = []
        for pc in obj["pieces"]:
            if not isinstance(pc, dict) or "type" not in pc:
                raise SceneConfigError("each piece needs a 'type' field")
            if pc["type"] == "segment":
                if set(pc) - {"type", "start", "end"}:
                    raise SceneConfigError("unknown fields in segment piece")
                pieces.append(Segment(_xy(pc["start"], "start"), _xy(pc["end"], "end")))
            elif pc["type"] == "circular_arc":
                if set(pc) - {"type", "center", "radius", "theta_start", "theta_end"}:
                    raise SceneConfigError("unknown fields in circular_arc piece")
                pieces.append(CircularArc(_xy(pc["center"], "center"), float(pc["radius"]),
                                          float(pc["theta_start"]), float(pc["theta_end"])))
            else:
                raise SceneConfigError(f"unknown piece type {pc['type']!r}")
        return ArcChain(tuple(pieces)), label
    except KeyError as exc:
        raise SceneConfigError(f"missing field {exc.args[0]!r} for {kind}") from exc
    except (TypeError, ValueError) as exc:
        raise SceneConfigError(f"bad value in {kind}: {exc}") from exc


def shape_to_config(s: Shape, label: str) -> dict:
    if isinstance(s, Disk):
        return {"type": "disk", "center": [s.center.real, s.center.imag],
                "radius": s.radius, "label": label}
    if isinstance(s, Ellipse):
        return {"type": "ellipse", "center": [s.center.real, s.center.imag],
                "semi_major": s.semi_major, "semi_minor": s.semi_minor,
                "rotation": s.rotation, "label": label}
    if isinstance(s, Polygon):
        return {"type": "polygon",
                "vertices": [[v.real, v.imag] for v in s.vertices], "label": label}
    pieces = []
    for pc in s.pieces:
        if isinstance(pc, Segment):
            pieces.append({"type": "segment", "start": [pc.start.real, pc.start.imag],
                           "end": [pc.end.real, pc.end.imag]})
        else:
            pieces.append({"type": "circular_arc", "center": [pc.center.real, pc.center.imag],
                           "radius": pc.radius, "theta_start": pc.theta_start,
                           "theta_end": pc.theta_end})
    return {"type": "arc_chain", "pieces": pieces, "label": label}


def scene_from_config(obj: dict) -> Scene:
    """Parse the documented scene schema; unknown top-level fields rejected."""
    if not isinstance(obj, dict):
        raise SceneConfigError("scene config must be a JSON object")
    unknown = set(obj) - {"shapes", "schedule"}
    if unknown:
        raise SceneConfigError(f"unknown top-level fields: {sorted(unknown)}")
    if "shapes" not in obj or not isinstance(obj["shapes"], list) or not obj["shapes"]:
        raise SceneConfigError("scene config needs a non-empty 'shapes' list")
    shapes = []
    labels = []
    for sh in obj["shapes"]:
        s, lab = shape_from_config(sh)
        shapes.append(s)
        labels.append(lab)
    return Scene(tuple(shapes), tuple(labels))


def scene_to_config(sc: Scene) -> dict:
    return {"shapes": [shape_to_config(s, lab) for s, lab in zip(sc.shapes, sc.labels)]}


def load_scene(path) -> tuple[Scene, dict]:
    """Read a scene config file; returns (scene, raw config dict)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SceneConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneConfigError(f"invalid JSON in {path}: {exc}") from exc
    return scene_from_config(obj), obj
