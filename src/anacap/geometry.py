"""Plane geometry for compact sets bounded by disks, ellipses, polygons and arc chains.

A compact set K is a :class:`Scene`: a list of pairwise-disjoint closed shapes,
each tagged ``"E"`` or ``"F"``.  Every shape is a Jordan curve made of finitely
many analytic pieces.  The module knows how to

* validate a scene (simple curves, strictly positive pairwise gap),
* list the corners of a shape together with the angle the complement
  occupies there,
* parametrize the boundary as analytic arcs for quadrature,
* pick an interior anchor point for pole placement, and
* apply affine maps z -> a*z + b.

Points are plain ``complex`` numbers throughout.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .errors import (
    DegenerateShapeError,
    OverlapError,
    SceneConfigError,
    ZeroScaleError,
)

TWO_PI = 2.0 * math.pi

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


@dataclass(frozen=True)
class ParametricArc:
    """One analytic boundary piece, parametrized over t in [0, 1].

    ``point`` and ``velocity`` accept scalars or numpy arrays.  ``start`` and
    ``end`` cache ``point(0)`` and ``point(1)`` so corner endpoints can be
    matched without calling back into the maps.

    ``disp_start(s)`` is the exact displacement z(s) - z(0) for a parameter
    distance s from the start (scalar or array); ``disp_end(s)`` is
    z(1-s) - z(1).
    Quadrature near a corner endpoint uses these instead of subtracting two
    nearly equal points, which would round the difference to zero.
    """

    point: Callable
    velocity: Callable
    start: complex
    end: complex
    disp_start: Callable = None
    disp_end: Callable = None


@dataclass(frozen=True)
class Scene:
    """A compact set: disjoint closed shapes with an E/F tag per shape."""

    shapes: tuple[Shape, ...]
    labels: tuple[str, ...]
    min_gap: float | None = None  # set by validate_scene

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
# per-shape helpers


def _check_shape(s: Shape) -> None:
    if isinstance(s, Disk):
        if not (math.isfinite(s.radius) and s.radius > 0):
            raise DegenerateShapeError(f"disk radius must be positive, got {s.radius}")
    elif isinstance(s, Ellipse):
        if not (s.semi_major > 0 and s.semi_minor > 0):
            raise DegenerateShapeError("ellipse semi-axes must be positive")
    elif isinstance(s, Polygon):
        _check_polygon(s)
    elif isinstance(s, ArcChain):
        _check_arc_chain(s)
    else:
        raise DegenerateShapeError(f"unknown shape {type(s).__name__}")


def _check_polygon(p: Polygon) -> None:
    v = p.vertices
    if len(v) < 3:
        raise DegenerateShapeError("polygon needs at least 3 vertices")
    n = len(v)
    # adjacent-collinear vertices collapse an analytic piece
    scale = max(abs(a - b) for a in v for b in v)
    if scale == 0:
        raise DegenerateShapeError("polygon vertices coincide")
    for i in range(n):
        e1 = v[(i + 1) % n] - v[i]
        e2 = v[(i + 2) % n] - v[(i + 1) % n]
        if abs(e1) < 1e-14 * scale or abs(e2) < 1e-14 * scale:
            raise DegenerateShapeError("repeated polygon vertex")
        cross = (e1.conjugate() * e2).imag
        if abs(cross) < 1e-14 * scale * scale and (e1.conjugate() * e2).real > 0:
            raise DegenerateShapeError("collinear adjacent polygon vertices")
    if _polygon_signed_area(v) <= 0:
        raise DegenerateShapeError("polygon must be positively oriented")
    # simplicity: no two non-adjacent edges intersect
    for i in range(n):
        a0, a1 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b0, b1 = v[j], v[(j + 1) % n]
            if _segments_intersect(a0, a1, b0, b1):
                raise DegenerateShapeError("polygon is self-intersecting")


def _check_arc_chain(ch: ArcChain) -> None:
    if not ch.pieces:
        raise DegenerateShapeError("arc chain has no pieces")
    pts = []
    for piece in ch.pieces:
        if isinstance(piece, Segment):
            if abs(piece.end - piece.start) == 0:
                raise DegenerateShapeError("zero-length segment")
            pts.append((piece.start, piece.end))
        elif isinstance(piece, CircularArc):
            if piece.radius <= 0:
                raise DegenerateShapeError("arc radius must be positive")
            if piece.theta_end == piece.theta_start:
                raise DegenerateShapeError("zero-length arc")
            a0 = piece.center + piece.radius * cmath.exp(1j * piece.theta_start)
            a1 = piece.center + piece.radius * cmath.exp(1j * piece.theta_end)
            pts.append((a0, a1))
        else:
            raise DegenerateShapeError(f"unknown piece {type(piece).__name__}")
    scale = max(max(abs(a), abs(b)) for a, b in pts) or 1.0
    for i in range(len(pts)):
        end_i = pts[i][1]
        start_next = pts[(i + 1) % len(pts)][0]
        if abs(end_i - start_next) > 1e-9 * scale:
            raise DegenerateShapeError("arc chain pieces do not join end-to-start")
    # orientation and coarse self-intersection check on a sampled polyline
    poly = boundary_polyline(ch, 256)
    area = 0.5 * float(np.sum(np.imag(np.conj(poly) * np.roll(poly, -1))))
    if area <= 0:
        raise DegenerateShapeError("arc chain must be positively oriented")


def _polygon_signed_area(v) -> float:
    return 0.5 * sum((v[i].conjugate() * v[(i + 1) % len(v)]).imag for i in range(len(v)))


def _segments_intersect(a0, a1, b0, b1) -> bool:
    def orient(p, q, r):
        return ((q - p).conjugate() * (r - p)).imag

    d1 = orient(a0, a1, b0)
    d2 = orient(a0, a1, b1)
    d3 = orient(b0, b1, a0)
    d4 = orient(b0, b1, a1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def boundary_polyline(s: Shape, n: int = 512) -> np.ndarray:
    """Sampled boundary points (complex ndarray), positively oriented."""
    out = []
    for arc in arcs(s):
        t = np.linspace(0.0, 1.0, max(8, n // max(1, len(arcs(s)))), endpoint=False)
        out.append(arc.point(t))
    return np.concatenate(out)


def point_in_shape(s: Shape, z: complex) -> bool:
    """True iff z lies strictly inside s."""
    if isinstance(s, Disk):
        return abs(z - s.center) < s.radius
    if isinstance(s, Ellipse):
        w = (z - s.center) * cmath.exp(-1j * s.rotation)
        return (w.real / s.semi_major) ** 2 + (w.imag / s.semi_minor) ** 2 < 1.0
    if isinstance(s, Polygon):
        return _winding_number(np.asarray(s.vertices, complex), z) != 0
    if isinstance(s, ArcChain):
        return _winding_number(boundary_polyline(s, 1024), z) != 0
    raise DegenerateShapeError(f"unknown shape {type(s).__name__}")


def _winding_number(poly: np.ndarray, z: complex) -> int:
    # crossing-number test on the closed polyline
    x = poly.real - z.real
    y = poly.imag - z.imag
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross_up = (y <= 0) & (yn > 0)
    cross_dn = (y > 0) & (yn <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x + (xn - x) * np.where(yn != y, -y / np.where(yn != y, yn - y, 1.0), 0.0)
    w = int(np.sum(cross_up & (xint > 0))) - int(np.sum(cross_dn & (xint > 0)))
    return w


# ---------------------------------------------------------------------------
# core operations


def corners(s: Shape) -> list[Corner]:
    """Corners of a shape with the complement-side angle at each.

    Smooth shapes (disks, ellipses) have none.  For polygons and arc chains,
    every junction where the tangent turns becomes a corner with
    ``omega_angle = pi + turn`` where ``turn`` is the signed tangent rotation
    in (-pi, pi).
    """
    if isinstance(s, (Disk, Ellipse)):
        return []
    if isinstance(s, Polygon):
        v = s.vertices
        n = len(v)
        out = []
        for i in range(n):
            t_in = v[i] - v[i - 1]
            t_out = v[(i + 1) % n] - v[i]
            turn = cmath.phase(t_out / t_in)
            if abs(turn) < 1e-12:
                continue
            out.append(Corner(v[i], math.pi + turn))
        return out
    if isinstance(s, ArcChain):
        pieces = s.pieces
        out = []
        for i in range(len(pieces)):
            t_in = _piece_tangent(pieces[i], at_end=True)
            nxt = pieces[(i + 1) % len(pieces)]
            t_out = _piece_tangent(nxt, at_end=False)
            turn = cmath.phase(t_out / t_in)
            if abs(turn) < 1e-9:
                continue
            if abs(abs(turn) - math.pi) < 1e-9:
                raise DegenerateShapeError("cusp in arc chain (zero-angle corner)")
            loc = _piece_endpoint(pieces[i], at_end=True)
            out.append(Corner(loc, math.pi + turn))
        return out
    raise DegenerateShapeError(f"unknown shape {type(s).__name__}")


def _piece_tangent(piece, at_end: bool) -> complex:
    if isinstance(piece, Segment):
        d = piece.end - piece.start
        return d / abs(d)
    sign = 1.0 if piece.theta_end > piece.theta_start else -1.0
    theta = piece.theta_end if at_end else piece.theta_start
    return sign * 1j * cmath.exp(1j * theta)


def _piece_endpoint(piece, at_end: bool) -> complex:
    if isinstance(piece, Segment):
        return piece.end if at_end else piece.start
    theta = piece.theta_end if at_end else piece.theta_start
    return piece.center + piece.radius * cmath.exp(1j * theta)


def arcs(s: Shape) -> list[ParametricArc]:
    """Positively oriented analytic arcs covering the boundary of s."""
    if isinstance(s, Disk):
        return arcs(Ellipse(s.center, s.radius, s.radius))
    if isinstance(s, Ellipse):
        c, a, b = s.center, s.semi_major, s.semi_minor
        rot = cmath.exp(1j * s.rotation)

        def pt(t, c=c, a=a, b=b, rot=rot):
            e = _turn(t)
            return c + rot * (a * e.real + 1j * b * e.imag)

        def vel(t, a=a, b=b, rot=rot):
            e = _turn(t)
            return rot * TWO_PI * (-a * e.imag + 1j * b * e.real)

        start = c + rot * a
        return [ParametricArc(pt, vel, start, start)]
    if isinstance(s, Polygon):
        out = []
        v = s.vertices
        for i in range(len(v)):
            out.append(_segment_arc(v[i], v[(i + 1) % len(v)]))
        return out
    if isinstance(s, ArcChain):
        out = []
        for piece in s.pieces:
            if isinstance(piece, Segment):
                out.append(_segment_arc(piece.start, piece.end))
            else:
                out.append(_circular_arc(piece))
        return out
    raise DegenerateShapeError(f"unknown shape {type(s).__name__}")


_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


def _turn(t):
    """exp(2 pi i t) from t = q/4 + r, |r| <= 1/8: i^q is exact and the angle
    2 pi r rounds little, where the rounding of 2 pi t grows with t and biases
    the points just before t = 1 against the same points reached from t = 0."""
    t = np.asarray(t, float)
    q = np.round(4.0 * t)
    return _QUARTER_TURNS[q.astype(int) % 4] * np.exp(2j * math.pi * (t - 0.25 * q))


def _segment_arc(z0: complex, z1: complex) -> ParametricArc:
    d = z1 - z0

    def pt(t, z0=z0, d=d):
        return z0 + d * np.asarray(t, float)

    def vel(t, d=d):
        t = np.asarray(t, float)
        return np.full_like(t, d, dtype=complex) if t.shape else d

    return ParametricArc(pt, vel, z0, z1,
                         disp_start=lambda s, d=d: s * d,
                         disp_end=lambda s, d=d: -s * d)


def _circular_arc(piece: CircularArc) -> ParametricArc:
    c, r = piece.center, piece.radius
    t0, t1 = piece.theta_start, piece.theta_end
    dt = t1 - t0
    start = c + r * cmath.exp(1j * t0)
    end = c + r * cmath.exp(1j * t1)

    def pt(t, c=c, r=r, t0=t0, dt=dt):
        ang = t0 + dt * np.asarray(t, float)
        return c + r * np.exp(1j * ang)

    def vel(t, r=r, t0=t0, dt=dt):
        ang = t0 + dt * np.asarray(t, float)
        return 1j * dt * r * np.exp(1j * ang)

    def dstart(s, r=r, t0=t0, dt=dt):
        # r e^{i t0} (e^{i dt s} - 1), written to stay accurate for tiny s
        half = 0.5 * dt * np.asarray(s, float)
        return r * cmath.exp(1j * t0) * 2j * np.sin(half) * np.exp(1j * half)

    def dend(s, r=r, t1=t1, dt=dt):
        half = 0.5 * dt * np.asarray(s, float)
        return -r * cmath.exp(1j * t1) * 2j * np.sin(half) * np.exp(-1j * half)

    return ParametricArc(pt, vel, start, end, disp_start=dstart, disp_end=dend)


def arc_length(s: Shape) -> float:
    """Exact perimeter where a closed form exists, else the arc quadrature."""
    if isinstance(s, Disk):
        return TWO_PI * s.radius
    if isinstance(s, Polygon):
        v = s.vertices
        return sum(abs(v[(i + 1) % len(v)] - v[i]) for i in range(len(v)))
    # ellipse, arc chain: integrate |z'(t)|
    from .quadrature import QuadratureSettings, integrate_arc

    total = 0.0
    settings = QuadratureSettings(abs_tol=1e-13)
    for arc in arcs(s):
        val = integrate_arc(lambda t, z, s0, s1, w: w.sum(), arc, settings)
        total += float(val.real)
    return total


def interior_anchor(s: Shape) -> complex:
    """A point strictly inside the shape, used as the default pole center."""
    if isinstance(s, (Disk, Ellipse)):
        return s.center
    if isinstance(s, Polygon):
        v = s.vertices
        cand = sum(v) / len(v)
        if point_in_shape(s, cand):
            return cand
        # area centroid, then inward probes from edge midpoints
        cand = _polygon_centroid(v)
        if point_in_shape(s, cand):
            return cand
        for i in range(len(v)):
            mid = 0.5 * (v[i] + v[(i + 1) % len(v)])
            normal = 1j * (v[(i + 1) % len(v)] - v[i])  # interior is left of travel
            for frac in (0.25, 0.1, 0.02):
                p = mid + frac * normal
                if point_in_shape(s, p):
                    return p
        raise DegenerateShapeError("could not find an interior point of polygon")
    if isinstance(s, ArcChain):
        poly = boundary_polyline(s, 512)
        cand = complex(np.mean(poly))
        if point_in_shape(s, cand):
            return cand
        for frac in (0.5, 0.25, 0.75, 0.1, 0.9):
            for k in range(0, len(poly), 37):
                p = complex(poly[k] * (1 - frac) + cand * frac)
                if point_in_shape(s, p):
                    return p
        raise DegenerateShapeError("could not find an interior point of arc chain")
    raise DegenerateShapeError(f"unknown shape {type(s).__name__}")


def _polygon_centroid(v) -> complex:
    a = 0.0
    cx = 0.0
    cy = 0.0
    for i in range(len(v)):
        p, q = v[i], v[(i + 1) % len(v)]
        w = p.real * q.imag - q.real * p.imag
        a += w
        cx += (p.real + q.real) * w
        cy += (p.imag + q.imag) * w
    a *= 0.5
    return complex(cx / (6 * a), cy / (6 * a))


def transform(sc: Scene, a: complex, b: complex = 0j) -> Scene:
    """Apply z -> a*z + b to every shape; shape types are preserved."""
    if a == 0:
        raise ZeroScaleError("scale factor a must be nonzero")
    shapes = tuple(_transform_shape(s, a, b) for s in sc.shapes)
    out = Scene(shapes, sc.labels)
    if sc.min_gap is not None:
        out = replace(out, min_gap=sc.min_gap * abs(a))
    return out


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
    """Check every shape and the pairwise disjointness of their closures.

    Returns the scene with ``min_gap`` set to the smallest pairwise gap
    (inf for a single shape).  Idempotent.
    """
    if not sc.shapes:
        raise SceneConfigError("scene needs at least one shape")
    for s in sc.shapes:
        _check_shape(s)
    gap = math.inf
    n = len(sc.shapes)
    for i in range(n):
        for j in range(i + 1, n):
            g = _pair_gap(sc.shapes[i], sc.shapes[j])
            if g <= 0:
                raise OverlapError(
                    f"shapes {i} and {j} have intersecting closures (gap {g:.3g})")
            gap = min(gap, g)
    return replace(sc, min_gap=gap)


def _pair_gap(s1: Shape, s2: Shape) -> float:
    # containment means overlap regardless of boundary distance
    if point_in_shape(s2, _some_boundary_point(s1)) or point_in_shape(s1, _some_boundary_point(s2)):
        return -math.inf
    if isinstance(s1, Disk) and isinstance(s2, Disk):
        return abs(s1.center - s2.center) - s1.radius - s2.radius
    if isinstance(s1, Disk) and isinstance(s2, Polygon):
        return _disk_polygon_gap(s1, s2)
    if isinstance(s2, Disk) and isinstance(s1, Polygon):
        return _disk_polygon_gap(s2, s1)
    if isinstance(s1, Polygon) and isinstance(s2, Polygon):
        return _polyline_gap(np.asarray(s1.vertices, complex), np.asarray(s2.vertices, complex))
    # general case: sampled boundary distance
    p1 = boundary_polyline(s1, 512)
    p2 = boundary_polyline(s2, 512)
    return _polyline_gap(p1, p2)


def _some_boundary_point(s: Shape) -> complex:
    return arcs(s)[0].start


def _disk_polygon_gap(d: Disk, p: Polygon) -> float:
    v = np.asarray(p.vertices, complex)
    dmin = math.inf
    for i in range(len(v)):
        dmin = min(dmin, _point_segment_dist(d.center, v[i], v[(i + 1) % len(v)]))
    return dmin - d.radius


def _point_segment_dist(z, a, b) -> float:
    ab = b - a
    t = ((z - a).conjugate() * ab).real / abs(ab) ** 2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def _polyline_gap(p1: np.ndarray, p2: np.ndarray) -> float:
    # min distance between two closed polylines, vectorized over segment pairs
    a0, a1 = p1, np.roll(p1, -1)
    b0, b1 = p2, np.roll(p2, -1)
    best = math.inf
    for s0, s1 in zip(a0, a1):
        best = min(best, float(np.min(_segment_points_dist(s0, s1, b0))))
    for s0, s1 in zip(b0, b1):
        best = min(best, float(np.min(_segment_points_dist(s0, s1, a0))))
    return best


def _segment_points_dist(a, b, pts: np.ndarray) -> np.ndarray:
    ab = b - a
    t = np.clip(((pts - a).conjugate() * ab).real / abs(ab) ** 2, 0.0, 1.0)
    return np.abs(pts - (a + t * ab))


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
