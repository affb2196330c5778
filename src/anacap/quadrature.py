"""Node-and-weight quadrature for (vector-valued) arc integrands.

Each arc gets nodes t in [0, 1] and real weights that include |z'(t)|; the
integrand reduces its values at a whole node array against the weights, so a
Gram block is one Hermitian product per node set.  Rules double until two
successive sums agree, per component and separately on real and imaginary
parts, to max(abs_tol, 64 eps * size): the floor keeps absolute tolerances
meaningful for integrands of very large magnitude.  Both rules start at 64
nodes; coarser levels cost integrand calls without ever being accepted on
corner-mapped pieces.  Refinement stops at 2^16 nodes per piece.

* Closed arcs (start == end: disks, ellipses) use the periodic trapezoid
  rule, which converges geometrically on analytic curves: 64 midpoint nodes,
  then each doubling adds the midpoints and keeps the earlier sum.
* Open arcs (segments, circular arcs) use composite 16-point Gauss-Legendre
  panels: 4 panels, then each doubling doubles the panel count.
* Integrable endpoint singularities (corner-adapted products behave like
  |t - t0|^s with s > -1/2 at a corner) are handled on the half arc next to
  the corner by t = t0 + w*u^6 with u on Gauss-Legendre panels, which makes
  the weighted integrand vanish at the endpoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxDepthError, SceneConfigError
from .geometry import ParametricArc

_EPS = float(np.finfo(float).eps)
_SING_POWER = 6  # u^6 endpoint map: exponent s > -1/2 becomes > +2
_START_NODES = 64  # first level of both rules
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_MAX_NODES = 1 << 16  # per arc piece
_CHUNK = 4096  # nodes per integrand call; bounds the integrand's temporaries


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-9

    def __post_init__(self):
        # an infinite one would report an infinite slack as if certified
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise SceneConfigError(
                f"quadrature tolerance must be finite and positive, got {self.abs_tol}")


def _trapezoid_levels():
    """(nodes, weight, kept share of the previous sum, total nodes) per level."""
    n = _START_NODES
    shift = 0.5 / n
    yield shift + np.arange(n) / n, 1.0 / n, 0.0, n
    while True:
        # the current nodes are shift + k/n; add the midpoints between them
        yield (shift + (np.arange(n) + 0.5) / n) % 1.0, 0.5 / n, 0.5, 2 * n
        n *= 2


@functools.cache
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, 1];
    read-only, since every call with the same panel count shares them."""
    h = 1.0 / panels
    x = ((np.arange(panels)[:, None] + 0.5 * (_GL_X + 1.0)) * h).ravel()
    w = np.tile(0.5 * h * _GL_W, panels)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_levels():
    """Composite Gauss-Legendre rules on [0, 1] with 4, 8, 16, ... panels."""
    panels = _START_NODES // _GL_X.size
    while True:
        x, w = _panel_rule(panels)
        yield x, w, 0.0, x.size
        panels *= 2


def _plain(a: float, b: float):
    def nodes(x):
        t = a + (b - a) * x
        return t, 1.0 - t, b - a
    return nodes


def _mapped(width: float, at_end: bool):
    # s = width * u^6 is the exact parameter distance from the endpoint
    def nodes(u):
        s = width * u ** _SING_POWER
        jac = _SING_POWER * width * u ** (_SING_POWER - 1)
        return (1.0 - s, s, jac) if at_end else (s, 1.0 - s, jac)
    return nodes


def _weighted_sum(f, t, z, s1, w) -> np.ndarray:
    out = 0j
    for i in range(0, t.size, _CHUNK):
        c = slice(i, i + _CHUNK)
        out = out + np.asarray(f(t[c], z[c], s1[c], w[c]), complex)
    return out


def _component_size(value: np.ndarray) -> np.ndarray:
    """max(|Re|, |Im|) of each component: the default rounding scale."""
    return np.maximum(np.abs(value.real), np.abs(value.imag))


def _converged(new: np.ndarray, old: np.ndarray, tol: float, scale) -> bool:
    diff = new - old
    bound = np.maximum(tol, 64.0 * _EPS * scale(new))
    return bool((np.abs(diff.real) <= bound).all() and (np.abs(diff.imag) <= bound).all())


def _refine(f, arc: ParametricArc, piece, levels, tol: float, scale) -> np.ndarray:
    prev = 0j
    for depth, (x, wx, keep, count) in enumerate(levels):
        t, s1, jac = piece(x)
        z, dz = arc._point_velocity(t)
        est = _weighted_sum(f, t, z, s1, wx * jac * np.abs(dz)) + keep * prev
        if depth and _converged(est, prev, tol, scale):
            return est
        if 2 * count > _MAX_NODES:
            raise MaxDepthError(
                f"quadrature tolerance {tol:.3g} not met with {count} nodes "
                f"on the arc from {arc.start:.6g} to {arc.end:.6g}")
        prev = est


def integrate_arc(f, arc: ParametricArc, settings: QuadratureSettings,
                  singular_start: bool = False, singular_end: bool = False,
                  scale=_component_size):
    """Integral over the arc of g(t) * |z'(t)| dt, t in [0, 1].

    ``f(t, z, s1, w)`` receives node arrays: parameters t, points z(t), the
    parameter distance s1 = 1 - t from the end, and the weights w.  Under
    the endpoint maps t and s1 are both computed directly, so each is the
    exact distance from its endpoint and never rounds to zero next to a
    corner.  It returns the weighted sum of g, e.g. ``g @ w``, as a complex
    scalar or array of fixed shape.

    ``singular_start`` / ``singular_end`` flag integrable endpoint
    singularities of g (corner points).  ``scale`` maps an estimate to the
    size of its terms, which sets the rounding floor: a component's own size
    by default, while sums that cancel far below their terms (off-diagonal
    Gram entries) must pass a bound on the sum of |g|.  Each piece starts at
    64 nodes (64 trapezoid nodes, or 4 Gauss-Legendre panels) and doubles
    them.  Raises :class:`MaxDepthError` if the tolerance is not met within
    2^16 nodes per piece.
    """
    if singular_start or singular_end:
        pieces = [_mapped(0.5, False) if singular_start else _plain(0.0, 0.5),
                  _mapped(0.5, True) if singular_end else _plain(0.5, 1.0)]
        levels = _panel_levels
    else:
        pieces = [_plain(0.0, 1.0)]
        levels = _trapezoid_levels if arc.start == arc.end else _panel_levels
    tol = settings.abs_tol / len(pieces)
    total = sum(_refine(f, arc, piece, levels(), tol, scale) for piece in pieces)
    return total if total.ndim else complex(total)

