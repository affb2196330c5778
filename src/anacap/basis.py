"""Approximating-function families vanishing at infinity.

Two kinds of basis function:

* ``PowerPole``     1/(z - c)^k, a simple pole 1/(z - c) at k = 1
* ``CornerAdapted`` ((z - a)/(z - c))^beta / (z - c)^k, the fractional-power
  family that mimics the boundary behaviour of the extremal functions at a
  corner whose complement-side angle is ``omega``: beta = (pi/omega - 1)/2.

A ``Schedule`` describes how to populate a scene with basis functions:
``Rings(layers)`` lays first-order poles on interior rings of a shape bounded
by one whole-turn piece (a disk, an ellipse),
``Powers(n, with_corners)`` uses 1/(z-c)^k ladders at the interior anchor,
optionally augmented with the corner-adapted family.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import geometry
from .errors import BranchCutError, PoleEvaluationError, SceneConfigError
from .geometry import Scene, Shape


@dataclass(frozen=True)
class PowerPole:
    c: complex
    k: int

    def eval(self, z: complex) -> complex:
        if z == self.c:
            raise PoleEvaluationError(f"evaluation at pole {self.c}")
        return (z - self.c) ** (-self.k)

    def d_infinity(self) -> complex:
        return (1.0 + 0j) if self.k == 1 else 0j


@dataclass(frozen=True)
class CornerAdapted:
    """((z - a)/(z - c))^beta / (z - c)^k with the principal branch.

    ``a`` is a corner on the shape boundary, ``c`` the interior anchor; the
    branch cut of the Moebius ratio is the segment (a, c), which stays inside
    the shape when the shape is star-shaped about ``c``.
    """

    c: complex
    a: complex
    beta: float
    k: int

    def eval(self, z: complex) -> complex:
        if z == self.c:
            raise PoleEvaluationError(f"evaluation at pole {self.c}")
        if z == self.a:
            raise PoleEvaluationError(f"evaluation at corner point {self.a}")
        w = (z - self.a) / (z - self.c)
        if w.real <= 0 and abs(w.imag) <= 1e-14 * abs(w.real):
            raise BranchCutError(f"branch ratio {w} on the cut (-inf, 0]")
        val = cmath.exp(self.beta * cmath.log(w))
        return val * (z - self.c) ** (-self.k) if self.k else val

    def d_infinity(self) -> complex:
        # ((z-a)/(z-c))^beta = 1 + beta (c - a)/z + O(1/z^2), so for k >= 1
        # the 1/z coefficient comes from the power factor alone
        if self.k == 0:
            return complex(self.beta * (self.c - self.a))
        return (1.0 + 0j) if self.k == 1 else 0j


BasisFunction = Union[PowerPole, CornerAdapted]


def _require_int(value, name: str) -> None:
    """A schedule's count is an integer: a float or a bool in its place is a
    :class:`SceneConfigError`, not a coerced value (int(2.9) is 2 and
    int(True) is 1)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Rings:
    layers: int

    def __post_init__(self):
        _require_int(self.layers, "layers")
        if self.layers < 0:
            raise SceneConfigError("layers must be >= 0")


@dataclass(frozen=True)
class Powers:
    n: int
    with_corners: bool = False

    def __post_init__(self):
        _require_int(self.n, "n")
        if self.n < 1:
            raise SceneConfigError("n must be >= 1")
        if not isinstance(self.with_corners, bool):
            raise SceneConfigError(f"with_corners must be True or False, "
                                   f"got {self.with_corners!r}")


Schedule = Union[Rings, Powers]


def _ring_layout(shape: Shape, layers: int) -> list[complex]:
    """4*layers + 1 points strictly inside a shape bounded by one whole-turn
    piece p0 + b e + d conj(e) of ``geometry.arcs`` (a disk, an ellipse): p0
    and, for m = 1 .. layers, p0 +- m u/(layers + 1) and p0 +- m v/(layers + 1)
    on the semi-axes u = b + d and v = i (b - d); a disk's are r and i r."""
    pieces = geometry.arcs(shape)
    if len(pieces) != 1 or abs(pieces[0].turns) != 1:
        raise SceneConfigError("Rings schedule applies to disks and ellipses only")
    pc = pieces[0]
    p0, u, v = pc.p0, pc.b + pc.d, 1j * (pc.b - pc.d)
    pts = [p0]
    for m in range(1, layers + 1):
        mu, mv = m * u / (layers + 1), m * v / (layers + 1)
        pts += [p0 + mu, p0 - mu, p0 + mv, p0 - mv]
    return pts


def corner_exponent(omega_angle: float) -> float:
    """beta = (pi/omega - 1)/2 for a corner with complement-side angle omega."""
    return 0.5 * (math.pi / omega_angle - 1.0)


def build_basis(sc: Scene, schedule) -> list[BasisFunction]:
    """Basis functions for every shape of the scene under the given schedule.

    ``schedule`` is a single Rings/Powers mode applied to each shape, or a
    list or tuple with one mode per shape; anything else, or anything else
    in such a list or tuple, is a :class:`SceneConfigError`.
    """
    return _shape_counted_basis(sc, schedule)[0]


def _shape_counted_basis(sc: Scene, schedule) -> tuple[list[BasisFunction], list[int]]:
    """``build_basis`` and how many functions each shape contributed; the
    functions of shape i follow those of shapes 0 .. i-1."""
    one = not isinstance(schedule, (list, tuple))
    for mode in (schedule,) if one else schedule:
        if not isinstance(mode, (Rings, Powers)):
            raise SceneConfigError("schedule must be Rings, Powers or a list or tuple of them, "
                                   f"got {type(mode).__name__}")
    per_shape = [schedule] * len(sc.shapes) if one else list(schedule)
    if len(per_shape) != len(sc.shapes):
        raise SceneConfigError("need one schedule per shape")
    out: list[BasisFunction] = []
    counts = []
    for shape, mode in zip(sc.shapes, per_shape):
        funcs = _shape_basis(shape, mode)
        out.extend(funcs)
        counts.append(len(funcs))
    if len(set(out)) != len(out):
        raise SceneConfigError("duplicate basis functions in schedule")
    return out, counts


def _shape_basis(shape: Shape, mode) -> list[BasisFunction]:
    if isinstance(mode, Rings):
        return [PowerPole(a, 1) for a in _ring_layout(shape, mode.layers)]
    c = geometry.interior_anchor(shape)
    out: list[BasisFunction] = [PowerPole(c, k) for k in range(1, mode.n + 1)]
    if mode.with_corners:
        corner_list = geometry.corners(shape)
        if corner_list:
            _require_star_shaped(shape, c)
        for corner in corner_list:
            beta = corner_exponent(corner.omega_angle)
            out += [CornerAdapted(c, corner.location, beta, k)
                    for k in range(1, mode.n + 1)]
    return out


def _require_star_shaped(shape: Shape, c: complex) -> None:
    """Exact test that arg(z - c) strictly increases along the boundary.

    The branch cut of each corner function is the segment (corner, c); it
    stays inside the shape when the shape is star-shaped about c, which for
    a positively oriented simple boundary is exactly this monotonicity.  It
    holds piece by piece, on the pieces of ``geometry.arcs``:

    * segment p0 -> p0 + p1: Im(conj(p0 - c) p1) > 0;
    * arc p0 + |b| e^{i theta}, theta from arg e0 over 2 pi turns, with
      s = sign(turns) and w = p0 - c: the rate of arg(z - c) along the arc
      has the sign of s (|b| + Re(conj(w) e^{i theta})), whose extremes in
      theta lie at the two ends and at theta = arg w + k pi inside the arc.
    """
    for arc in geometry.arcs(shape):
        if not arc.turns:
            ok = ((arc.p0 - c).conjugate() * arc.p1).imag > 0
        else:
            w = arc.p0 - c
            theta0 = cmath.phase(arc.e0)
            lo, hi = sorted((theta0, theta0 + 2.0 * math.pi * arc.turns))
            aw = cmath.phase(w)
            ks = range(math.ceil((lo - aw) / math.pi), math.floor((hi - aw) / math.pi) + 1)
            thetas = [lo, hi, *(aw + k * math.pi for k in ks)]
            ok = all(math.copysign(1.0, arc.turns)
                     * (abs(arc.b) + (w.conjugate() * cmath.exp(1j * t)).real) > 0
                     for t in thetas)
        if not ok:
            raise SceneConfigError(
                "shape is not star-shaped about its anchor; corner-adapted "
                "basis would cross its branch cut")


def _require_poles_inside(sc: Scene, funcs) -> None:
    """Exact test that each member's pole is strictly inside a shape of sc and
    that a corner member's branch cut (a, c) stays in that shape: a is one of
    its corners and it is star-shaped about c, as under ``Powers``."""
    boundaries = [geometry.arcs(s) for s in sc.shapes]
    for b in funcs:
        i = next((i for i, pieces in enumerate(boundaries)
                  if geometry._winding_number(pieces, b.c)), None)
        if i is None:
            raise SceneConfigError(
                f"the pole of basis member {b!r} is not strictly inside a shape of the scene")
        if isinstance(b, CornerAdapted):
            pts = np.array([k.location for k in geometry.corners(sc.shapes[i])], complex)
            if _matching_corner(pts, [b.a], boundaries[i])[0] is None:
                raise SceneConfigError(f"the branch point of basis member {b!r} is not a "
                                       "corner of the shape that holds its pole")
            try:
                _require_star_shaped(sc.shapes[i], b.c)
            except SceneConfigError as exc:
                raise SceneConfigError(f"basis member {b!r}: {exc}") from None


def _matching_corner(corner_pts: np.ndarray, points, pieces) -> list:
    """For each point of the boundary made of ``pieces`` (``geometry.arcs``),
    the corner point within 1e-12 max(1, largest |start of a piece|) of it,
    or None: a scale that does not depend on where the boundary starts."""
    if not corner_pts.size:
        return [None] * len(points)
    tol = 1e-12 * max(1.0, max(abs(p.start) for p in pieces))
    d = np.abs(np.asarray(points, complex)[:, None] - corner_pts)
    return [complex(corner_pts[i]) if d[j, i] < tol else None
            for j, i in enumerate(d.argmin(axis=1))]


# ---------------------------------------------------------------------------
# vectorized evaluation engine


def _principal_power(w: np.ndarray, beta) -> np.ndarray:
    """w**beta on the principal branch, in real arithmetic.

    exp(beta ln|w|) (cos(beta theta) + i sin(beta theta)) with
    theta = arctan2(Im w, Re w): the branch of the complex log, signed zeros
    on the negative axis included, from real vectorized log, exp, sin and
    cos and the overflow-safe |w|.  ``beta`` broadcasts against ``w``.
    """
    mod = np.log(np.abs(w))
    mod *= beta
    np.exp(mod, out=mod)
    theta = np.arctan2(w.imag, w.real)
    theta *= beta
    out = np.empty(mod.shape, complex)
    np.multiply(mod, np.cos(theta), out=out.real)
    np.multiply(mod, np.sin(theta), out=out.imag)
    return out


class BasisSet:
    """Grouped, vectorized evaluator for a list of basis functions.

    ``eval_all(z)`` returns the values of every basis function at a complex
    scalar (or at each entry of an array) with a handful of numpy operations,
    preserving the original ordering.  Each distinct factor is evaluated once
    per call: the pole powers (z - c)^-k once per (c, k), shared by the
    ``PowerPole`` and ``CornerAdapted`` members, and the fractional powers
    ((z - a)/(z - c))^beta once per corner group (c, a, beta), whatever its
    number of k, in real arithmetic (:func:`_principal_power`).  A member is
    then one gather, or one gather and one product in a fixed operand order;
    the operations on each element are those of a member-by-member
    evaluation, so the values are bitwise the same, and a value's bits do
    not depend on how many nodes the call evaluates.  A basis of first-order
    poles alone (``all_simple``, the basis of the disk kernel) skips the
    grouping: each row is 1/(z - a), written straight into the output,
    bitwise (z - a)^-1 wherever z != a.  Branch-cut and pole
    checks are not performed here; boundary quadrature never touches those
    sets for valid scenes.

    Near a corner, corner members are accurate only from the exact
    displacement z - a of the parametrization; which members take which
    piece end's displacement is decided here alone (:meth:`corner_ends`,
    :meth:`eval_parts`).

    An empty basis, or a ``PowerPole`` or ``CornerAdapted`` with k < 1,
    which does not vanish at infinity, is a :class:`SceneConfigError`.
    """

    def __init__(self, funcs: list[BasisFunction]):
        self.funcs = list(funcs)
        self.n = len(self.funcs)
        if not self.n:
            raise SceneConfigError("the basis is empty")
        # first-order poles alone: eval_all's fast path and the disk kernel's
        # basis, which need none of the grouping below
        self.all_simple = all(isinstance(b, PowerPole) and b.k == 1 for b in self.funcs)
        self._sa = np.array([b.c for b in self.funcs] if self.all_simple else [], complex)
        power_idx, corner_idx = [], []
        poles: dict[tuple[complex, int], int] = {}  # (c, k) -> pole-power row
        groups: dict[tuple[complex, complex, float], int] = {}  # (c, a, beta) -> row
        power_row, corner_group, corner_pole = [], [], []
        for i, b in enumerate([] if self.all_simple else self.funcs):
            if not isinstance(b, (PowerPole, CornerAdapted)):
                raise TypeError(f"not a basis function: {b!r}")
            if b.k < 1:
                raise SceneConfigError(f"{b!r} does not vanish at infinity (k < 1)")
            row = poles.setdefault((b.c, b.k), len(poles))
            if isinstance(b, PowerPole):
                power_idx.append(i)
                power_row.append(row)
            else:
                corner_idx.append(i)
                corner_pole.append(row)
                corner_group.append(groups.setdefault((b.c, b.a, b.beta), len(groups)))
        self._pi = np.array(power_idx, dtype=int)
        self._ci = np.array(corner_idx, dtype=int)
        self._pc = np.array([c for c, _ in poles], complex)[:, None]
        self._pk = -np.array([k for _, k in poles], int)[:, None]  # exponents -k
        self._p_row = np.array(power_row, dtype=int)
        self._gc = np.array([c for c, _, _ in groups], complex)[:, None]
        self._ga = np.array([a for _, a, _ in groups], complex)[:, None]
        self._gb = np.array([beta for _, _, beta in groups], float)[:, None]
        self._c_group = np.array(corner_group, dtype=int)
        self._c_pole = np.array(corner_pole, dtype=int)

    def d_vector(self) -> np.ndarray:
        return np.array([b.d_infinity() for b in self.funcs], complex)

    def eval_all(self, z, corner_subs=None, out=None) -> np.ndarray:
        """Values of every basis function at z (scalar or array), shape
        ``(n,) + z.shape``.

        ``corner_subs`` is an optional list of (anchor, cols, delta): the
        corner groups anchored at ``anchor`` take z - a = delta at the nodes
        ``cols`` of z flattened, exact where the subtraction would round to
        zero next to the corner (:meth:`eval_parts`).

        ``out``, if given, is a C-contiguous complex array of that shape
        (quadrature passes rows of its product buffer); the values are
        written into it, bitwise those of a call without it, and it is
        returned.
        """
        z = np.asarray(z, complex)
        zf = z.reshape(-1)
        if out is None:
            out = np.empty((self.n,) + z.shape, complex)
        elif not (out.shape == (self.n,) + z.shape and out.dtype == complex
                  and out.flags.c_contiguous):
            # any other array would be reshaped into a copy, or cast on writing
            raise ValueError("out must be a C-contiguous complex array of shape (n,) + z.shape")
        buf = out.reshape(self.n, zf.size)
        if self.all_simple:
            # straight into out: z copied into every row, then the poles
            # subtracted in place, which takes half the iteration buffers of
            # subtracting two broadcast operands
            np.copyto(buf, zf)
            np.subtract(buf, self._sa[:, None], out=buf)
            np.divide(1.0, buf, out=buf)
        else:
            pw = (zf[None, :] - self._pc) ** self._pk
            if self._pi.size:
                buf[self._pi] = pw[self._p_row]
            if self._ci.size:
                zc = zf[None, :] - self._gc
                num = zf[None, :] - self._ga
                for a, cols, delta in corner_subs or ():
                    num[self._ga[:, 0] == a, cols] = delta
                frac = _principal_power(num / zc, self._gb)
                # into a named buffer in a fixed operand order, so a value's
                # bits do not depend on how many nodes the call evaluates
                vals = frac[self._c_group]
                np.multiply(vals, pw[self._c_pole], out=vals)
                buf[self._ci] = vals
        return out

    def corner_ends(self, pieces) -> list[tuple]:
        """(piece, a0, a1) for each piece of one boundary (``geometry.arcs``),
        a0 and a1 the corner anchors at its start and its end, or None."""
        starts = _matching_corner(self._ga[:, 0], [p.start for p in pieces], pieces)
        ends = _matching_corner(self._ga[:, 0], [p.end for p in pieces], pieces)
        return list(zip(pieces, starts, ends))

    def eval_parts(self, ends, spans, t, z, s1, out=None) -> np.ndarray:
        """``eval_all`` at the nodes of an ``integrate_arc`` call: on each
        part (i, columns c) of ``spans`` the corner groups anchored at the
        start of ``ends[i]`` take ``disp_start(t)``, those at its end
        ``disp_end(s1)`` (:meth:`corner_ends`)."""
        subs = []
        for i, c in spans:
            arc, a0, a1 = ends[i]
            if a0 is not None:
                subs.append((a0, c, arc.disp_start(t[c])))
            if a1 is not None:
                subs.append((a1, c, arc.disp_end(s1[c])))
        return self.eval_all(z, subs, out=out)


# ---------------------------------------------------------------------------
# schedule config


def schedule_from_config(obj: dict) -> Schedule:
    """Parse a schedule config.  ``layers`` and ``n`` must be JSON integers
    and ``corners`` a JSON boolean: :class:`Rings` and :class:`Powers` take
    a float, a bool or a string in their place as a
    :class:`SceneConfigError`, not a coerced value."""
    if not isinstance(obj, dict) or "mode" not in obj:
        raise SceneConfigError("schedule needs a 'mode' field")
    mode = obj["mode"]
    if mode == "rings":
        if set(obj) - {"mode", "layers"}:
            raise SceneConfigError("unknown fields in rings schedule")
        return Rings(_config_field(obj, "layers", mode))
    if mode == "powers":
        if set(obj) - {"mode", "n", "corners"}:
            raise SceneConfigError("unknown fields in powers schedule")
        return Powers(_config_field(obj, "n", mode), obj.get("corners", False))
    raise SceneConfigError(f"unknown schedule mode {mode!r}")


def _config_field(obj: dict, key: str, mode: str):
    if key not in obj:
        raise SceneConfigError(f"{mode} schedule needs a {key!r} field")
    return obj[key]


def schedule_to_config(s: Schedule) -> dict:
    if isinstance(s, Rings):
        return {"mode": "rings", "layers": s.layers}
    if isinstance(s, Powers):
        return {"mode": "powers", "n": s.n, "corners": s.with_corners}
    raise SceneConfigError(f"unknown schedule {s!r}")
