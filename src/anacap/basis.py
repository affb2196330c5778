"""Approximating-function families vanishing at infinity.

Three kinds of basis function:

* ``SimplePole``    1/(z - a)
* ``PowerPole``     1/(z - c)^k
* ``CornerAdapted`` ((z - a)/(z - c))^beta / (z - c)^k, the fractional-power
  family that mimics the boundary behaviour of the extremal functions at a
  corner whose complement-side angle is ``omega``: beta = (pi/omega - 1)/2.

A ``Schedule`` describes how to populate a scene with basis functions:
``Rings(layers)`` lays simple poles on interior rings of disks/ellipses,
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
from .geometry import Disk, Ellipse, Scene, Shape


@dataclass(frozen=True)
class SimplePole:
    a: complex

    def eval(self, z: complex) -> complex:
        if z == self.a:
            raise PoleEvaluationError(f"evaluation at pole {self.a}")
        return 1.0 / (z - self.a)

    def d_infinity(self) -> complex:
        # 1/(z-a) = 1/z + a/z^2 + ...
        return 1.0 + 0j


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


BasisFunction = Union[SimplePole, PowerPole, CornerAdapted]


@dataclass(frozen=True)
class Rings:
    layers: int

    def __post_init__(self):
        if self.layers < 0:
            raise SceneConfigError("layers must be >= 0")


@dataclass(frozen=True)
class Powers:
    n: int
    with_corners: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise SceneConfigError("n must be >= 1")


Schedule = Union[Rings, Powers]


def disk_pole_layout(d: Disk, layers: int) -> list[complex]:
    """4*layers + 1 points strictly inside d: the center plus rings at radii
    m*r/(layers + 1) in directions +-1, +-i."""
    if layers < 0:
        raise SceneConfigError("layers must be >= 0")
    pts = [d.center]
    for m in range(1, layers + 1):
        rho = m * d.radius / (layers + 1)
        pts += [d.center + rho, d.center - rho, d.center + 1j * rho, d.center - 1j * rho]
    return pts


def ellipse_pole_layout(e: Ellipse, layers: int) -> list[complex]:
    """Ring layout scaled to the ellipse axes: 4*layers + 1 interior points."""
    if layers < 0:
        raise SceneConfigError("layers must be >= 0")
    rot = cmath.exp(1j * e.rotation)
    u = rot * e.semi_major
    v = rot * 1j * e.semi_minor
    pts = [e.center]
    for m in range(1, layers + 1):
        f = m / (layers + 1)
        pts += [e.center + f * u, e.center - f * u, e.center + f * v, e.center - f * v]
    return pts


def corner_exponent(omega_angle: float) -> float:
    """beta = (pi/omega - 1)/2 for a corner with complement-side angle omega."""
    return 0.5 * (math.pi / omega_angle - 1.0)


def build_basis(sc: Scene, schedule) -> list[BasisFunction]:
    """Basis functions for every shape of the scene under the given schedule.

    ``schedule`` is a single Rings/Powers mode applied to each shape, or a
    sequence with one mode per shape.
    """
    return _shape_counted_basis(sc, schedule)[0]


def _shape_counted_basis(sc: Scene, schedule) -> tuple[list[BasisFunction], list[int]]:
    """``build_basis`` and how many functions each shape contributed; the
    functions of shape i follow those of shapes 0 .. i-1."""
    if isinstance(schedule, (Rings, Powers)):
        per_shape = [schedule] * len(sc.shapes)
    else:
        per_shape = list(schedule)
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
        if isinstance(shape, Disk):
            return [SimplePole(a) for a in disk_pole_layout(shape, mode.layers)]
        if isinstance(shape, Ellipse):
            return [SimplePole(a) for a in ellipse_pole_layout(shape, mode.layers)]
        raise SceneConfigError("Rings schedule applies to disks and ellipses only")
    if isinstance(mode, Powers):
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
    raise SceneConfigError(f"unknown schedule mode {type(mode).__name__}")


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
    not depend on how many nodes the call evaluates.  Branch-cut and pole
    checks are not performed here; boundary quadrature never touches those
    sets for valid scenes.

    Every member must vanish at infinity: a ``PowerPole`` or
    ``CornerAdapted`` with k < 1 is a :class:`SceneConfigError`.
    """

    def __init__(self, funcs: list[BasisFunction]):
        self.funcs = list(funcs)
        simple_idx, power_idx, corner_idx = [], [], []
        poles: dict[tuple[complex, int], int] = {}  # (c, k) -> pole-power row
        groups: dict[tuple[complex, complex, float], int] = {}  # (c, a, beta) -> row
        power_row, corner_group, corner_pole = [], [], []
        for i, b in enumerate(self.funcs):
            if isinstance(b, SimplePole):
                simple_idx.append(i)
                continue
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
        self.n = len(self.funcs)
        self._si = np.array(simple_idx, dtype=int)
        self._pi = np.array(power_idx, dtype=int)
        self._ci = np.array(corner_idx, dtype=int)
        self._sa = np.array([self.funcs[i].a for i in simple_idx], complex)
        self._pc = np.array([c for c, _ in poles], complex)[:, None]
        self._pk = -np.array([k for _, k in poles], int)[:, None]  # exponents -k
        self._p_row = np.array(power_row, dtype=int)
        self._gc = np.array([c for c, _, _ in groups], complex)[:, None]
        self._ga = np.array([a for _, a, _ in groups], complex)[:, None]
        self._gb = np.array([beta for _, _, beta in groups], float)[:, None]
        self._c_group = np.array(corner_group, dtype=int)
        self._c_pole = np.array(corner_pole, dtype=int)
        # corner point -> the rows of its groups, for eval_all's corner_subs
        self._rows_at: dict[complex, list[int]] = {}
        for row, (_, a, _) in enumerate(groups):
            self._rows_at.setdefault(complex(a), []).append(row)

    @property
    def all_simple(self) -> bool:
        return len(self._pi) == 0 and len(self._ci) == 0

    def d_vector(self) -> np.ndarray:
        return np.array([b.d_infinity() for b in self.funcs], complex)

    def eval_all(self, z, corner_subs=None, out=None) -> np.ndarray:
        """Values of every basis function at z (scalar or array), shape
        ``(n,) + z.shape``.

        ``corner_subs`` is an optional list of (corner_point, delta) pairs,
        delta a scalar or an array of z's shape: corner-adapted members
        anchored at corner_point are evaluated with the exact displacement
        z - a = delta, which stays accurate when z is so close to the corner
        that the subtraction would round to zero.

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
            # straight into out: no temporary of out's size
            np.divide(1.0, np.subtract(zf[None, :], self._sa[:, None], out=buf), out=buf)
        elif self._si.size:
            d = zf[None, :] - self._sa[:, None]
            buf[self._si] = np.divide(1.0, d, out=d)
        if self._pc.size:
            pw = (zf[None, :] - self._pc) ** self._pk
            if self._pi.size:
                buf[self._pi] = pw[self._p_row]
            if self._ci.size:
                zc = zf[None, :] - self._gc
                num = zf[None, :] - self._ga
                for pt, delta in corner_subs or ():
                    rows = self._rows_at.get(pt)
                    if rows is not None:
                        num[rows] = np.reshape(delta, -1)
                frac = _principal_power(num / zc, self._gb)
                # into a named buffer in a fixed operand order, so a value's
                # bits do not depend on how many nodes the call evaluates
                vals = frac[self._c_group]
                np.multiply(vals, pw[self._c_pole], out=vals)
                buf[self._ci] = vals
        return out

    def corner_points(self) -> np.ndarray:
        """Distinct corner locations used by corner-adapted members."""
        return np.unique(self._ga)


# ---------------------------------------------------------------------------
# schedule config


def schedule_from_config(obj: dict) -> Schedule:
    """Parse a schedule config.  ``layers`` and ``n`` must be JSON integers
    and ``corners`` a JSON boolean: a float, a bool or a string in their
    place is a :class:`SceneConfigError`, not a coerced value."""
    if not isinstance(obj, dict) or "mode" not in obj:
        raise SceneConfigError("schedule needs a 'mode' field")
    mode = obj["mode"]
    if mode == "rings":
        if set(obj) - {"mode", "layers"}:
            raise SceneConfigError("unknown fields in rings schedule")
        return Rings(_config_int(obj, "layers", mode))
    if mode == "powers":
        if set(obj) - {"mode", "n", "corners"}:
            raise SceneConfigError("unknown fields in powers schedule")
        corners = obj.get("corners", False)
        if not isinstance(corners, bool):
            raise SceneConfigError(f"powers schedule 'corners' must be true or false, "
                                   f"got {corners!r}")
        return Powers(_config_int(obj, "n", mode), corners)
    raise SceneConfigError(f"unknown schedule mode {mode!r}")


def _config_int(obj: dict, key: str, mode: str) -> int:
    if key not in obj:
        raise SceneConfigError(f"{mode} schedule needs a {key!r} field")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise SceneConfigError(f"{mode} schedule {key!r} must be an integer, got {val!r}")
    return val


def schedule_to_config(s: Schedule) -> dict:
    if isinstance(s, Rings):
        return {"mode": "rings", "layers": s.layers}
    if isinstance(s, Powers):
        return {"mode": "powers", "n": s.n, "corners": s.with_corners}
    raise SceneConfigError(f"unknown schedule {s!r}")
