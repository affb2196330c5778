"""Node-and-weight quadrature for (vector-valued) integrands over boundary pieces.

Each piece gets nodes t in [0, 1] and real weights that include |z'(t)|; the
integrand reduces its values at a whole node array against the weights, so a
Gram block is one Hermitian product per node set.  Every piece takes the same
nested ladder of midpoint trapezoid rules in a variable u in [0, 1): 64
nodes, then each doubling adds the midpoints and keeps half the previous sum,
so no evaluated node is ever discarded.  Rules double until two successive
sums agree, per component and separately on real and imaginary parts, to
max(abs_tol, 64 eps * size): the floor keeps absolute tolerances meaningful
for integrands of very large magnitude.  Refinement stops at 2^16 nodes per
piece.  Only the map from u to t depends on the piece:

* Closed pieces (start == end: disks, ellipses) take t = u, the periodic
  trapezoid rule, which converges geometrically on analytic curves.
* Open pieces (segments, circular arcs, with or without corners) take the
  double-exponential map t = 1/(1 + exp(-a sinh x)), x = X (2u - 1)
  (Takahasi and Mori, 1974).  The mapped integrand decays double
  exponentially at both ends, so the trapezoid rule converges geometrically
  for analytic integrands and for integrable endpoint singularities alike
  (corner-adapted products behave like |t - t0|^s with s > -1/2 at a
  corner).

Since every piece sees the same u-grid at a given level, all the pieces of
one call climb the ladder together: each level maps u once per kind of
piece (and e(t) once per number of turns) and gives every piece not yet
converged the same m new nodes, in equal parts of min(m, ``_CHUNK``); the
integrand takes as many whole parts per call as ``_BATCH_TERMS`` allows.
Each piece keeps its own running estimate (a row of one array), its own
convergence test and its own error, so its integral has the bits it would
have alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import MaxDepthError, SceneConfigError
from .geometry import ParametricArc, _turn

_EPS = float(np.finfo(float).eps)
_START_NODES = 64  # first level of the ladder
_MAX_NODES = 1 << 16  # per arc piece
_CHUNK = 4096  # nodes of one piece per part; bounds the integrand's temporaries
# rows x nodes of one integrand call, over the parts it batches: 2^13 terms
# (128 KiB of complex values).  Assembly time of the 200 seed-1 ellipse and
# 100 corner bench inputs against 2^13 (two cores, in-process, alternating
# input by input, running estimates kept per piece): the corners took 1.22
# at 2^12 (two or three calls a level, not one) and 1.00 and 0.99 at 2^14
# and 2^15; the ellipses, one 69-row piece a call at 2^13, took 1.03 and
# 1.04 there, with up to three and seven pieces a call
_BATCH_TERMS = 1 << 13
# the open-piece map t = 1/(1 + exp(-sinh x)) on x in [-X, X] stops at a
# parameter distance 1/(1 + e^85) < 1e-36 from either end
_DE_X = math.asinh(85.0)


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-9

    def __post_init__(self):
        # a bool is an int to isinstance, and True would be a tolerance of 1
        if isinstance(self.abs_tol, bool) or not isinstance(self.abs_tol, numbers.Real):
            raise SceneConfigError(
                f"quadrature tolerance must be a real number, got {self.abs_tol!r}")
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
    y = np.sinh(x)
    t = 1.0 / (1.0 + np.exp(-y))
    s1 = 1.0 / (1.0 + np.exp(y))
    return t, s1, (2.0 * _DE_X) * np.cosh(x) * t * s1


def _nodes(pieces, closed, live, u, wu):
    """One level's new nodes (t, z, s1, w) on each live piece, in order; the
    map from u to t, its weights and e(t) per turns, once per kind of piece."""
    rules = {}
    for i in live:
        arc, kind = pieces[i], closed[i]
        if kind not in rules:
            t, s1, jac = (_closed_nodes if kind else _open_nodes)(u)
            rules[kind] = t, s1, wu * jac, {}
        t, s1, wj, turns = rules[kind]
        if arc.turns and arc.turns not in turns:
            turns[arc.turns] = _turn(arc.turns * t)
        z, dz = arc._point_velocity(t, turns.get(arc.turns))
        yield t, z, s1, wj * np.abs(dz)


def _within(new: np.ndarray, old: np.ndarray, size: np.ndarray, tol: float) -> np.ndarray:
    """Whether every entry of each row of new is within max(tol, 64 eps
    size) of old, real and imaginary parts separately (a NaN is not); size
    is overwritten."""
    diff = new - old
    err = np.abs(diff.real)
    np.maximum(err, np.abs(diff.imag), out=err)
    np.multiply(size, 64.0 * _EPS, out=size)
    return (err <= np.maximum(size, tol, out=size)).all(axis=1)


def _converged(new: np.ndarray, old: np.ndarray, tol: float) -> np.ndarray:
    """Whether each row (one piece's estimate) of the stacked estimates has
    converged, each component against its own size max(|Re|, |Im|)."""
    return _within(new, old, np.maximum(np.abs(new.real), np.abs(new.imag)), tol)


def integrate_arc(f, pieces: list[ParametricArc], settings: QuadratureSettings,
                  converged=_converged, rows: int = 1) -> list:
    """Integral over each piece of g(t) * |z'(t)| dt, t in [0, 1], in order.

    ``f(spans, t, z, s1, w)`` receives the node arrays of one call, which it
    must not modify (pieces share them): parameters t, points z(t), the
    parameter distance s1 = 1 - t from the end, and the weights w.  At a
    level of m new nodes a piece, they hold whole parts of min(m, ``_CHUNK``)
    nodes of one piece each, in order, as many as keep rows x nodes within
    ``_BATCH_TERMS`` (at least one); ``spans`` lists (piece index, slice of
    the arrays) per part.  On open pieces t and s1 are both computed
    directly, so each is the exact distance from its endpoint and never
    rounds to zero next to a corner.  f returns one weighted sum of g per
    part, e.g. ``g[c] @ w[c]``, each a complex scalar or an array of one
    fixed shape.  ``rows`` is the number of values f computes per node
    (n + 1 for a bordered Gram); it sizes the calls.

    g may have integrable endpoint singularities on open pieces: a factor
    C |t - t0|^s with s > -1/2 at an end t0 (a corner) needs no flag.  The
    double-exponential map stops at a distance delta = 1/(1 + e^85) from
    each end, which drops at most C delta^(1+s) / (1+s) < 1e-18 C there.
    ``converged(new, old, tol)`` tells from two successive estimates,
    stacked one raveled row per piece, which have converged: by default
    each component to the rounding floor of its own size, while sums that
    cancel far below their terms (off-diagonal Gram entries) must pass a
    bound on the sum of |g|.  Every piece starts at 64 nodes and doubles
    them until it converges, whatever the others do.  The pieces of a call,
    or the one piece whose parts fill several calls, sum each level's parts
    from 0j in the rows of one array, add half their running estimates, take
    their tests in one call of ``converged`` and are copied over their rows
    of the pieces x size running estimates, of which the returned arrays are
    views.  Raises :class:`MaxDepthError`, naming the first piece in order
    that has not converged, if the tolerance is not met within 2^16 nodes.
    """
    tol = settings.abs_tol
    closed = [arc.start == arc.end for arc in pieces]
    live = list(range(len(pieces)))
    est = None
    for depth, (u, wu, keep, count) in enumerate(_trapezoid_levels()):
        if not live:
            break
        # m new nodes a live piece, in parts of c, at most per parts a call; a
        # group of g live pieces fills one call, or one piece fills m / c / per
        m = u.size
        c = min(m, _CHUNK)
        per = max(1, _BATCH_TERMS // (rows * c))
        g = max(1, per * c // m)
        parts = [[x[a:a + c] for x in nodes] for nodes in _nodes(pieces, closed, live, u, wu)
                 for a in range(0, m, c)]
        rest = []
        for first in range(0, len(live), g):
            group, new = live[first:first + g], None
            end = (first + len(group)) * m // c
            for k in range(first * m // c, end, per):
                batch = parts[k:min(k + per, end)]
                arrays = batch[0] if len(batch) == 1 else map(np.concatenate, zip(*batch))
                spans = [(live[(k + b) * c // m], slice(b * c, b * c + c)) for b in range(len(batch))]
                for b, val in enumerate(f(spans, *arrays)):
                    val = np.asarray(val, complex)
                    if new is None:
                        shape, new = val.shape, np.empty((len(group), val.size), complex)
                        est = np.empty((len(pieces), val.size), complex) if est is None else est
                    # a level's sum of parts starts from 0j
                    j, at = divmod((k + b) * c, m)
                    np.add(new[j - first] if at else 0j, val.reshape(-1), out=new[j - first])
            sel = slice(group[0], group[-1] + 1) if group[-1] - group[0] < len(group) else group
            if depth:
                new += keep * est[sel]
            done = converged(new, est[sel], tol) if depth else [False] * len(group)
            rest += [i for i, ok in zip(group, done) if not ok]
            est[sel] = new
        if rest and 2 * count > _MAX_NODES:
            arc = pieces[rest[0]]
            raise MaxDepthError(
                f"quadrature tolerance {tol:.3g} not met with {count} nodes "
                f"on the arc from {arc.start:.6g} to {arc.end:.6g}")
        live = rest
    return [e.reshape(shape) if shape else complex(e[0]) for e in est] if pieces else []
