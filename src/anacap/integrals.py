"""Boundary integrals of basis-function products against arclength.

The Gram data of a scene consists of

* ``H[j, k] = (1/2pi) \\oint g_j(z) conj(g_k(z)) |dz|`` (Hermitian),
* ``u[j]   = (1/2pi) \\oint g_j(z) |dz|``,
* ``c0     = (boundary length) / 2pi``.

On a circle |z - c| = r the substitutions ``conj(z) = conj(c) + r^2/(z - c)``
and ``|dz| = (r/i) dz/(z - c)`` turn every rational-pair integrand into a
rational function of z, evaluated exactly by summing residues at the poles
strictly inside the circle.  Gram assembly uses the vectorized closed form
of those residues for disks under an all-simple-pole basis; every other
boundary goes through the node-and-weight quadrature of
:mod:`anacap.quadrature`, one matrix product ``(V w) V^H`` per node set.  The
general residue routines stay public as exact references.

Contributions are accumulated shape by shape in index order, so assembled
matrices are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisFunction, BasisSet, PowerPole, SimplePole
from .errors import NonRationalBasisError, PoleOnContourError
from .geometry import Disk, Scene, arcs
from .quadrature import QuadratureSettings, integrate_arc

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# small dense polynomial helpers (ascending coefficients, tiny degrees)


def _poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.convolve(p, q)


def _poly_pow(p: np.ndarray, k: int) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def _taylor_shift(p: np.ndarray, z0: complex) -> np.ndarray:
    # coefficients of p(z0 + w) in w, by repeated synthetic division
    work = list(p[::-1])  # descending
    out = np.zeros(len(p), complex)
    for j in range(len(p)):
        rem = work[0]
        deflated = [work[0]]
        for i in range(1, len(work)):
            rem = rem * z0 + work[i]
            deflated.append(rem)
        out[j] = rem
        work = deflated[:-1]
        if not work:
            break
    return out


def _series_inv(d: np.ndarray, order: int) -> np.ndarray:
    # power series of 1/d(w) through w^order; requires d[0] != 0
    inv = np.zeros(order + 1, complex)
    inv[0] = 1.0 / d[0]
    for k in range(1, order + 1):
        acc = 0j
        top = min(k, len(d) - 1)
        for i in range(1, top + 1):
            acc += d[i] * inv[k - i]
        inv[k] = -acc / d[0]
    return inv


def _residue(num: np.ndarray, factors: list[tuple[complex, int]], idx: int) -> complex:
    """Residue of num(z) / prod (z - z_i)^{m_i} at the idx-th root."""
    z0, m = factors[idx]
    nsh = _taylor_shift(num, z0)
    den = np.array([1.0 + 0j])
    for j, (zj, mj) in enumerate(factors):
        if j == idx:
            continue
        den = _poly_mul(den, _poly_pow(np.array([z0 - zj, 1.0], complex), mj))
    inv = _series_inv(den, m - 1)
    need = m - 1
    ser = _poly_mul(nsh[: m], inv)
    return ser[need] if need < len(ser) else 0j


# ---------------------------------------------------------------------------
# exact circle integrals


def _rational_parts(b: BasisFunction) -> tuple[complex, int]:
    if isinstance(b, SimplePole):
        return b.a, 1
    if isinstance(b, PowerPole):
        return b.c, b.k
    raise NonRationalBasisError(
        f"{type(b).__name__} is not rational; use the quadrature path")


def _eval_rational(b: BasisFunction, z: np.ndarray) -> np.ndarray:
    p, k = _rational_parts(b)
    return (z - p) ** (-k)


def _spectral_circle_pair(b1: BasisFunction, b2: BasisFunction, circle: Disk) -> complex:
    """Pair integral by the periodic midpoint rule on the circle.

    The integrand is analytic on the contour (poles strictly off it), so the
    rule converges geometrically; used where the residue decomposition is
    numerically unstable because two poles of the transformed integrand
    nearly coincide.
    """
    c, r = circle.center, circle.radius
    n = 64
    prev = None
    while n <= 1 << 17:
        theta = (2.0 * math.pi / n) * (np.arange(n) + 0.5)
        z = c + r * np.exp(1j * theta)
        val = complex(np.mean(_eval_rational(b1, z) * np.conj(_eval_rational(b2, z)))
                      * TWO_PI * r)
        if prev is not None and abs(val - prev) <= 1e-13 * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise PoleOnContourError(
        "circle integral did not converge; a pole lies too close to the contour")


class _Contour:
    """Pole bookkeeping for one residue integral over |z - c| = r."""

    def __init__(self, c: complex, r: float):
        self.c = c
        self.r = r
        self.scalar = r / 1j
        self.num = np.array([1.0 + 0j])
        self.factors: list[tuple[complex, int]] = []

    def add_pole(self, z0: complex, m: int) -> None:
        for i, (zi, mi) in enumerate(self.factors):
            if zi == z0:
                self.factors[i] = (zi, mi + m)
                return
        self.factors.append((z0, m))

    def reflect(self, b: BasisFunction) -> None:
        # multiply the integrand by conj(b(z)) restricted to the circle
        p, k = _rational_parts(b)
        self.num = _poly_mul(self.num, _poly_pow(np.array([-self.c, 1.0], complex), k))
        if p == self.c:
            self.scalar /= self.r ** (2 * k)
        else:
            cb = (self.c - p).conjugate()
            self.scalar /= cb ** k
            self.add_pole(self.c - self.r * self.r / cb, k)

    def direct(self, b: BasisFunction) -> None:
        p, k = _rational_parts(b)
        self.add_pole(p, k)

    def measure(self) -> None:
        # |dz| = (r/i) dz/(z - c); the r/i lives in self.scalar already
        self.add_pole(self.c, 1)

    def evaluate(self) -> complex:
        total = 0j
        for i, (z0, _) in enumerate(self.factors):
            d = abs(z0 - self.c)
            if abs(d - self.r) <= 1e-12 * max(self.r, d):
                raise PoleOnContourError(
                    f"pole {z0} lies on the circle |z - {self.c}| = {self.r}")
            if d < self.r:
                total += _residue(self.num, self.factors, i)
        return 2j * math.pi * self.scalar * total


def circle_pair_integral(b1: BasisFunction, b2: BasisFunction, circle: Disk) -> complex:
    """Exact value of \\oint_{|z-c|=r} b1(z) * conj(b2(z)) |dz| by residues.

    Distinct-but-nearly-coincident poles of the transformed integrand make
    the residue decomposition catastrophically ill-conditioned (the residues
    diverge with cancelling leading parts); such pairs are integrated by the
    spectral midpoint rule instead.  Exactly coincident poles stay on the
    residue path, which merges them into one higher-order pole.
    """
    ct = _Contour(circle.center, circle.radius)
    ct.direct(b1)
    ct.reflect(b2)
    ct.measure()
    roots = [z for z, _ in ct.factors]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = abs(roots[i] - roots[j])
            if 0.0 < d < 1e-4 * circle.radius:
                return _spectral_circle_pair(b1, b2, circle)
    return ct.evaluate()


def circle_mean_integral(b: BasisFunction, circle: Disk) -> complex:
    """Exact value of \\oint_{|z-c|=r} b(z) |dz| by residues."""
    ct = _Contour(circle.center, circle.radius)
    ct.direct(b)
    ct.measure()
    return ct.evaluate()


def _simple_block(poles: np.ndarray, circle: Disk) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized pair/mean integrals for an all-simple-pole basis.

    Closed forms (a = row pole, b = column pole, both relative to the circle):

    ========  ========  ==================================================
    a         b         \\oint (1/(z-a)) conj(1/(z-b)) |dz|
    ========  ========  ==================================================
    inside    inside    2 pi r / (r^2 + (a-c) conj(c-b))
    inside    outside   previous term + 2 pi r / ((z*-a) conj(c-b))
    outside   inside    0
    outside   outside   2 pi r / ((z*-a) conj(c-b))
    ========  ========  ==================================================

    with z* = c - r^2/conj(c - b) the reflection of b across the circle.
    When z* collides with a (a double pole of the transformed integrand; ring
    layouts do hit this exactly for aligned disks) both closed-form terms
    diverge with cancelling leading parts, so near-confluent entries are
    recomputed by quadrature on the circle, where the integrand is smooth.
    """
    c, r = circle.center, circle.radius
    a = poles[:, None]
    b = poles[None, :]
    dist = np.abs(poles - c)
    if np.any(np.abs(dist - r) <= 1e-12 * np.maximum(r, dist)):
        raise PoleOnContourError("simple pole on the circle")
    a_in = dist[:, None] < r
    b_in = dist[None, :] < r
    cb = np.conj(c - b)
    denom = r * r + (a - c) * cb  # vanishes exactly at confluence z* == a
    # the closed-form error grows like eps/denom^2; route near-confluent
    # entries to the spectral rule well before that becomes visible
    bad = (~b_in) & (np.abs(denom) < 1e-2 * r * r)
    with np.errstate(divide="ignore", invalid="ignore"):
        main = TWO_PI * r / np.where(bad, 1.0, denom)
        zs = c - r * r / np.where(cb != 0, cb, 1.0)
        refl = TWO_PI * r / np.where(bad, 1.0, (zs - a) * np.where(cb != 0, cb, 1.0))
    H = np.where(a_in & b_in, main, 0j)
    H = np.where(a_in & ~b_in, main + refl, H)
    H = np.where(~a_in & ~b_in, refl, H)
    if bad.any():
        for j, k in zip(*np.nonzero(bad)):
            H[j, k] = _spectral_circle_pair(SimplePole(complex(poles[j])),
                                            SimplePole(complex(poles[k])), circle)
    mean = np.where(dist < r, 0j, TWO_PI * r / np.where(poles != c, c - poles, 1.0))
    return H, mean


# ---------------------------------------------------------------------------
# Gram assembly


@dataclass(frozen=True)
class GramData:
    """Boundary inner-product data: Hermitian H, mean vector u, length/2pi."""

    H: np.ndarray
    u: np.ndarray
    c0: float


def _quad_block(bs: BasisSet, shape, settings: QuadratureSettings
                ) -> tuple[np.ndarray, np.ndarray, float]:
    """Gram contributions of one shape's boundary by node-and-weight quadrature.

    On each node set the basis values V (n x nodes) give the whole block at
    once: H += (V w) V^H, u += V w, length += sum(w).
    """
    n = bs.n
    corner_pts = bs.corner_points()
    H = np.zeros((n, n), complex)
    u = np.zeros(n, complex)
    length = 0.0
    scale = max(1.0, abs(arcs(shape)[0].start))
    for arc in arcs(shape):
        start_corner = _matching_corner(corner_pts, arc.start, scale)
        end_corner = _matching_corner(corner_pts, arc.end, scale)

        def f(t, z, s0, s1, w, arc=arc, sc=start_corner, ec=end_corner):
            # corner-adapted members anchored at an arc endpoint take the
            # exact displacement z - corner from the parametrization; near
            # the corner the subtraction would round to zero
            subs = []
            if sc is not None:
                subs.append((sc, arc.disp_start(s0)))
            if ec is not None:
                subs.append((ec, arc.disp_end(s1)))
            V = bs.eval_all(z, corner_subs=subs or None)
            Vw = V * w
            return np.concatenate(((Vw @ V.conj().T).ravel(), V @ w, [w.sum()]))

        vals = integrate_arc(f, arc, settings,
                             singular_start=start_corner is not None,
                             singular_end=end_corner is not None,
                             scale=lambda v: _gram_scale(v, n))
        H += vals[: n * n].reshape(n, n)
        u += vals[n * n: n * n + n]
        length += float(vals[-1].real)
    return H, u, length


def _gram_scale(vals: np.ndarray, n: int) -> np.ndarray:
    """Cauchy-Schwarz bounds on the weighted sums of |terms| of (H, u, length):
    sqrt(H_jj H_kk) and sqrt(H_jj length).  Entries that cancel far below
    these carry rounding noise of that size, so it sets their floor."""
    d = np.abs(vals[: n * n: n + 1].real)
    length = abs(vals[-1].real)
    return np.concatenate((np.sqrt(np.outer(d, d)).ravel(), np.sqrt(d * length), [length]))


def _matching_corner(corner_pts: np.ndarray, endpoint: complex, scale: float):
    """The corner-function anchor equal to this arc endpoint, if any."""
    if not corner_pts.size:
        return None
    i = int(np.argmin(np.abs(corner_pts - endpoint)))
    if abs(corner_pts[i] - endpoint) < 1e-12 * scale:
        return complex(corner_pts[i])
    return None


def assemble_gram(sc: Scene, basis: list[BasisFunction],
                  settings: QuadratureSettings | None = None) -> GramData:
    """Assemble H, u, c0 for the scene boundary and the given basis.

    Disks under an all-simple-pole basis use the closed-form residue block;
    every other boundary goes through node-and-weight quadrature at
    ``settings.abs_tol``.  Only the upper triangle is kept; the lower is its
    conjugate mirror, so H is Hermitian exactly.
    """
    if settings is None:
        settings = QuadratureSettings()
    bs = basis if isinstance(basis, BasisSet) else BasisSet(basis)
    n = bs.n
    H = np.zeros((n, n), complex)
    u = np.zeros(n, complex)
    length = 0.0
    for shape in sc.shapes:
        if isinstance(shape, Disk) and bs.all_simple:
            Hs, us = _simple_block(bs._sa, shape)
            # poles are stored grouped; map back to original order
            idx = bs._si
            H[np.ix_(idx, idx)] += Hs
            u[idx] += us
            length += TWO_PI * shape.radius
        else:
            Hq, uq, L = _quad_block(bs, shape, settings)
            H += Hq
            u += uq
            length += L
    di = np.arange(n)
    H[di, di] = H[di, di].real  # Gram diagonal is real; drop rounding residue
    iu, ju = np.tril_indices(n, -1)
    H[iu, ju] = np.conj(H[ju, iu])
    return GramData(H / TWO_PI, u / TWO_PI, length / TWO_PI)
