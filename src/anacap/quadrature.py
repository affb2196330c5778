"""Node-and-weight quadrature for (vector-valued) arc integrands.

Each arc gets nodes t in [0, 1] and real weights that include |z'(t)|; the
integrand reduces its values at a whole node array against the weights, so a
Gram block is one Hermitian product per node set.  Every piece takes the same
nested ladder of midpoint trapezoid rules in a variable u in [0, 1): 64
nodes, then each doubling adds the midpoints and keeps half the previous sum,
so no evaluated node is ever discarded.  Rules double until two successive
sums agree, per component and separately on real and imaginary parts, to
max(abs_tol, 64 eps * size): the floor keeps absolute tolerances meaningful
for integrands of very large magnitude.  Refinement stops at 2^16 nodes per
piece.  Only the map from u to t depends on the piece:

* Closed arcs (start == end: disks, ellipses) take t = u, the periodic
  trapezoid rule, which converges geometrically on analytic curves.
* Open arcs (segments, circular arcs, with or without corners) take the
  double-exponential map t = 1/(1 + exp(-a sinh x)), x = X (2u - 1)
  (Takahasi and Mori, 1974).  The mapped integrand decays double
  exponentially at both ends, so the trapezoid rule converges geometrically
  for analytic integrands and for integrable endpoint singularities alike
  (corner-adapted products behave like |t - t0|^s with s > -1/2 at a
  corner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxDepthError, SceneConfigError
from .geometry import ParametricArc

_EPS = float(np.finfo(float).eps)
_START_NODES = 64  # first level of the ladder
_MAX_NODES = 1 << 16  # per arc piece
_CHUNK = 4096  # nodes per integrand call; bounds the integrand's temporaries
# the open-piece map t = 1/(1 + exp(-a sinh x)) on x in [-X, X] stops at a
# parameter distance 1/(1 + e^85) < 1e-36 from either end
_DE_A = 1.0
_DE_X = math.asinh(85.0 / _DE_A)


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


def _closed_nodes(u):
    return u, 1.0 - u, 1.0


def _open_nodes(u):
    # t and s1 = 1 - t are each computed directly, so each is the exact
    # distance from its end and never rounds to zero next to a corner
    x = _DE_X * (2.0 * u - 1.0)
    y = _DE_A * np.sinh(x)
    t = 1.0 / (1.0 + np.exp(-y))
    s1 = 1.0 / (1.0 + np.exp(y))
    return t, s1, (2.0 * _DE_X * _DE_A) * np.cosh(x) * t * s1


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


def _refine(f, arc: ParametricArc, nodes, tol: float, scale) -> np.ndarray:
    prev = 0j
    for depth, (u, wu, keep, count) in enumerate(_trapezoid_levels()):
        t, s1, jac = nodes(u)
        z, dz = arc._point_velocity(t)
        est = _weighted_sum(f, t, z, s1, wu * jac * np.abs(dz)) + keep * prev
        if depth and _converged(est, prev, tol, scale):
            return est
        if 2 * count > _MAX_NODES:
            raise MaxDepthError(
                f"quadrature tolerance {tol:.3g} not met with {count} nodes "
                f"on the arc from {arc.start:.6g} to {arc.end:.6g}")
        prev = est


def integrate_arc(f, arc: ParametricArc, settings: QuadratureSettings,
                  scale=_component_size):
    """Integral over the arc of g(t) * |z'(t)| dt, t in [0, 1].

    ``f(t, z, s1, w)`` receives node arrays: parameters t, points z(t), the
    parameter distance s1 = 1 - t from the end, and the weights w.  On open
    arcs t and s1 are both computed directly, so each is the exact distance
    from its endpoint and never rounds to zero next to a corner.  It returns
    the weighted sum of g, e.g. ``g @ w``, as a complex scalar or array of
    fixed shape.

    g may have integrable endpoint singularities on open arcs: a factor
    C |t - t0|^s with s > -1/2 at an end t0 (a corner) needs no flag.  The
    double-exponential map stops at a distance delta = 1/(1 + e^85) from
    each end, which drops at most C delta^(1+s) / (1+s) < 1e-18 C there.
    ``scale`` maps an estimate to the size of its terms, which sets the
    rounding floor: a component's own size by default, while sums that
    cancel far below their terms (off-diagonal Gram entries) must pass a
    bound on the sum of |g|.  Each arc starts at 64 nodes and doubles them.
    Raises :class:`MaxDepthError` if the tolerance is not met within 2^16
    nodes.
    """
    nodes = _closed_nodes if arc.start == arc.end else _open_nodes
    total = _refine(f, arc, nodes, settings.abs_tol, scale)
    return total if total.ndim else complex(total)
