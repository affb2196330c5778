"""Boundary integrals of basis-function products against arclength.

The Gram data of a scene consists of

* ``H[j, k] = (1/2pi) \\oint g_j(z) conj(g_k(z)) |dz|`` (Hermitian),
* ``u[j]   = (1/2pi) \\oint g_j(z) |dz|``,
* ``c0     = (boundary length) / 2pi``.

On a circle |z - c| = r the substitutions ``conj(z) = conj(c) + r^2/(z - c)``
and ``|dz| = (r/i) dz/(z - c)`` turn every rational-pair integrand into a
rational function of z, evaluated exactly by summing residues at the poles
strictly inside the circle.  For disks under an all-simple-pole basis Gram
assembly uses the closed form that the Hardy-space split gives: 1/(z - a) is
in H^2 of the disk for a outside and in its orthogonal complement for a
inside, so a pair on opposite sides contributes exactly zero.  One chunked
kernel sums these blocks over all the disks of a scene at once, upper
triangle only; from the same terms it can also sum a split of the scene
into its first m shapes (on their basis functions) and the rest, which
gives the Grams of E, F and E u F of a subadditivity record in one pass,
each bitwise what it would be assembled alone.  Every other boundary goes
through the node-and-weight quadrature of :mod:`anacap.quadrature`, one
Hermitian product per node set: the basis values V, with the constant 1
appended as a last row and scaled by sqrt(w) in the same buffer, give the
upper triangle of ``(V w) V^H`` from one ``zherk``, and that bordered block
carries u and the length too.  The general residue routines
(``circle_pair_integral``, with its spectral midpoint rule for near-confluent
poles, and ``circle_mean_integral``) are on no Gram path; they stay public as
exact references.

Contributions are accumulated disks first, in index order, then the other
shapes, in index order, so assembled matrices are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zherk

from .basis import BasisFunction, BasisSet, PowerPole, SimplePole
from .errors import NonRationalBasisError, PoleOnContourError
from .geometry import Disk, Scene, arcs
from .quadrature import QuadratureSettings, integrate_arc

TWO_PI = 2.0 * math.pi
# terms per chunk of _disk_blocks: bounds its temporaries, and was the fastest
# of 2^13 ... 2^17 on an 18-disk scene with 306 poles
_DISK_CHUNK = 1 << 15


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


def _rational_parts(b: BasisFunction, c: complex) -> tuple[complex, int]:
    """(pole - c, order) of a rational basis function, for a circle about c."""
    if isinstance(b, SimplePole):
        return b.a - c, 1
    if isinstance(b, PowerPole):
        return b.c - c, b.k
    raise NonRationalBasisError(
        f"{type(b).__name__} is not rational; use the quadrature path")


def _spectral_circle_pair(q1: tuple[complex, int], q2: tuple[complex, int], r: float) -> complex:
    """Pair integral by the periodic midpoint rule on |w| = r.

    ``q1`` and ``q2`` are (pole - c, order) of the two factors.  The
    integrand is analytic on the contour (poles strictly off it), so the
    rule converges geometrically; used where the residue decomposition is
    numerically unstable because two poles of the transformed integrand
    nearly coincide.
    """
    (p1, k1), (p2, k2) = q1, q2
    n = 64
    prev = None
    while n <= 1 << 17:
        theta = (2.0 * math.pi / n) * (np.arange(n) + 0.5)
        w = r * np.exp(1j * theta)
        val = complex(np.mean((w - p1) ** (-k1) * np.conj((w - p2) ** (-k2))) * TWO_PI * r)
        if prev is not None and abs(val - prev) <= 1e-13 * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise PoleOnContourError(
        "circle integral did not converge; a pole lies too close to the contour")


class _Contour:
    """Pole bookkeeping for one residue integral over |w| = r.

    Poles are taken relative to the circle's centre (w = z - c), so the
    reflected poles and the residues do not carry the rounding of the
    centre's absolute coordinates.
    """

    def __init__(self, r: float):
        self.r = r
        self.scalar = r / 1j
        self.num = np.array([1.0 + 0j])
        self.factors: list[tuple[complex, int]] = []

    def add_pole(self, w0: complex, m: int) -> None:
        for i, (wi, mi) in enumerate(self.factors):
            if wi == w0:
                self.factors[i] = (wi, mi + m)
                return
        self.factors.append((w0, m))

    def reflect(self, q: complex, k: int) -> None:
        # multiply the integrand by conj((w - q)^-k), which on |w| = r is
        # w^k / (r^2 - conj(q) w)^k
        self.num = _poly_mul(self.num, _poly_pow(np.array([0.0, 1.0], complex), k))
        if q == 0:
            self.scalar /= self.r ** (2 * k)
        else:
            cb = -q.conjugate()
            self.scalar /= cb ** k
            self.add_pole(-self.r * self.r / cb, k)

    def direct(self, q: complex, k: int) -> None:
        self.add_pole(q, k)

    def measure(self) -> None:
        # |dz| = (r/i) dw/w; the r/i lives in self.scalar already
        self.add_pole(0j, 1)

    def evaluate(self) -> complex:
        total = 0j
        for i, (w0, _) in enumerate(self.factors):
            d = abs(w0)
            if abs(d - self.r) <= 1e-12 * max(self.r, d):
                raise PoleOnContourError(
                    f"pole {w0} from the centre lies on the circle of radius {self.r}")
            if d < self.r:
                total += _residue(self.num, self.factors, i)
        return 2j * math.pi * self.scalar * total


def circle_pair_integral(b1: BasisFunction, b2: BasisFunction, circle: Disk) -> complex:
    """Exact value of \\oint_{|z-c|=r} b1(z) * conj(b2(z)) |dz| by residues.

    Distinct-but-nearly-coincident poles inside the circle make the residue
    decomposition catastrophically ill-conditioned (the residues diverge
    with cancelling leading parts); such pairs are integrated by the
    spectral midpoint rule instead.  Poles outside carry no residue, so a
    pole next to the circle and its reflection across it stay on the
    residue path.  Exactly coincident poles stay on it too, merged into one
    higher-order pole.
    """
    r = circle.radius
    q1, q2 = _rational_parts(b1, circle.center), _rational_parts(b2, circle.center)
    ct = _Contour(r)
    ct.direct(*q1)
    ct.reflect(*q2)
    ct.measure()
    roots = [w for w, _ in ct.factors if abs(w) < r]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = abs(roots[i] - roots[j])
            if 0.0 < d < 1e-4 * r:
                return _spectral_circle_pair(q1, q2, r)
    return ct.evaluate()


def circle_mean_integral(b: BasisFunction, circle: Disk) -> complex:
    """Exact value of \\oint_{|z-c|=r} b(z) |dz| by residues."""
    ct = _Contour(circle.radius)
    ct.direct(*_rational_parts(b, circle.center))
    ct.measure()
    return ct.evaluate()


def _disk_blocks(poles: np.ndarray, disks: list[Disk], groups
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pair/mean integrals over groups of disks for an all-simple-pole basis.

    With w = pole - c, 1/(z - a) lies in the Hardy space H^2 of a disk when
    a is outside its circle and in the orthogonal complement when a is
    inside, so on each disk (a = row pole, b = column pole)

    ========  ========  =============================================
    a         b         \\oint (1/(z-a)) conj(1/(z-b)) |dz|
    ========  ========  =============================================
    inside    inside    2 pi r / (r^2 - w_a conj(w_b))
    outside   outside   -2 pi r / (r^2 - w_a conj(w_b))
    mixed               0 exactly
    ========  ========  =============================================

    The quotient is taken only on same-side pairs, where the denominator
    cannot vanish (|w_a||w_b| != r^2); a mixed pair may have |w_a||w_b| = r^2.
    Each group ``(d0, d1, j0, j1)`` asks for the sums over disks d0 .. d1-1
    on basis indices j0 .. j1-1, returned as (H, u) in the group's own
    indices.  The terms are formed once for all the disks, on the upper
    triangle, in chunks of whole rows holding about ``_DISK_CHUNK`` disk-entry
    terms (at least one row); each group sums the part of a chunk that lies
    in its own block, every entry over its disks in index order.  So a group
    gets bitwise the (H, u) that its disks and indices would give alone.
    """
    c = np.array([d.center for d in disks], complex)[:, None]
    r = np.array([d.radius for d in disks])[:, None]
    w = poles - c  # disks x poles
    dist = np.abs(w)
    if np.any(np.abs(dist - r) <= 1e-12 * np.maximum(r, dist)):
        raise PoleOnContourError("simple pole on the circle")
    inside = dist < r
    num = (TWO_PI * r * np.where(inside, 1.0, -1.0))[:, :, None]
    r2 = (r * r)[:, :, None]
    w_row, w_col = w[:, :, None], np.conj(w)[:, None, :]
    in_row, in_col = inside[:, :, None], inside[:, None, :]
    n = poles.size
    Hs = [np.zeros((j1 - j0, j1 - j0), complex) for _, _, j0, j1 in groups]
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, _DISK_CHUNK // (len(disks) * (n - i0))))
        den = w_row[:, i0:i1] * w_col[:, :, i0:]
        np.subtract(r2, den, out=den)
        same = in_row[:, i0:i1] == in_col[:, :, i0:]
        q = np.divide(num[:, i0:i1], den, out=den, where=same)
        np.copyto(q, 0, where=~same)
        for (d0, d1, j0, j1), H in zip(groups, Hs):
            a, b = max(i0, j0), min(i1, j1)
            if a < b:
                out = H[a - j0:b - j0, a - j0:]
                terms = q[d0:d1, a - i0:b - i0, a - i0:j1 - i0]
                if out.size > 1:
                    terms.sum(axis=0, out=out)
                else:  # NumPy sums a lone entry's terms pairwise, not in disk order
                    for qk in terms:
                        out += qk
        i0 = i1
    means = np.where(inside, 0j, TWO_PI * r / np.where(poles != c, c - poles, 1.0))
    blocks = []
    for (d0, d1, j0, j1), H in zip(groups, Hs):
        u = np.zeros(j1 - j0, complex)
        for mean in means[d0:d1, j0:j1]:
            u += mean
        blocks.append((H, u))
    return blocks


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

    Each integrand call fills one buffer A (n+1 x nodes): ``bs.eval_all``
    writes the basis values into A[:n], row n is the constant 1, and A is
    scaled in place by sqrt(w) (the weights are >= 0).  One Hermitian
    rank-k update (``zherk``) then gives the upper triangle of the bordered
    block G = (A w) A^H: H in G[:n, :n], u in G[:n, n] and the length in
    G[n, n], with an exactly real diagonal; the lower triangle stays zero,
    and ``_gram_data`` mirrors the upper one into it.

    The update runs on SciPy's BLAS, like the solver's factorization: NumPy
    and SciPy each bundle an OpenBLAS with its own thread pool, and
    alternating between the two leaves one pool's workers spinning while the
    other's run, which on a two-core machine stalled a 20 ms job by up to
    0.2 s.  Even so, a call that OpenBLAS threads stalls for about 4 ms
    right after threaded work in NumPy's pool, and a single-threaded one
    does not.  With OpenBLAS 0.3.31 on two cores, ``zherk`` runs on one
    thread at 31 rows by 64 or 128 nodes and 22 rows by 512, and is threaded
    from 69 rows; a ``zgemm`` from 31 by 128 and a ``zgemv`` at 21 by 512
    are threaded, which is why u and the length come through the bordered
    row.  So bases of up to 30 functions (the bench's corner bases) make no
    threaded call here; the four ellipses under ``Rings(4)`` (n = 68) do.
    """
    n = bs.n
    corner_pts = bs.corner_points()
    G = np.zeros((n + 1, n + 1), complex)
    pieces = arcs(shape)
    scale = max(1.0, abs(pieces[0].start))
    for arc in pieces:
        start_corner = _matching_corner(corner_pts, arc.start, scale)
        end_corner = _matching_corner(corner_pts, arc.end, scale)

        def f(t, z, s1, w, arc=arc, sc=start_corner, ec=end_corner):
            # corner-adapted members anchored at an arc endpoint take the
            # exact displacement z - corner from the parametrization; near
            # the corner the subtraction would round to zero
            subs = []
            if sc is not None:
                subs.append((sc, arc.disp_start(t)))
            if ec is not None:
                subs.append((ec, arc.disp_end(s1)))
            A = np.empty((n + 1, z.size), complex)
            bs.eval_all(z, subs or None, out=A[:n])
            A[n] = 1.0
            A *= np.sqrt(w)
            # A.T is A in Fortran order, so BLAS takes it without a copy;
            # it returns conj(G) = G^T in its lower triangle, whose
            # transpose is G's upper triangle in C order
            return zherk(1.0, A.T, trans=2, lower=1).T.ravel()

        vals = integrate_arc(f, arc, settings,
                             singular_start=start_corner is not None,
                             singular_end=end_corner is not None,
                             scale=lambda v: _gram_scale(v, n + 1))
        G += vals.reshape(n + 1, n + 1)
    return G[:n, :n], G[:n, n], float(G[n, n].real)


def _gram_scale(vals: np.ndarray, m: int) -> np.ndarray:
    """Cauchy-Schwarz bounds sqrt(G_jj G_kk) on the weighted sums of |terms|
    of the m x m block G (H bordered by u and the length).  Entries that
    cancel far below these carry rounding noise of that size, so it sets
    their floor."""
    d = np.abs(vals[:: m + 1].real)
    return np.sqrt(np.outer(d, d)).ravel()


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

    Disks under an all-simple-pole basis use the closed-form Hardy-split
    blocks (opposite-side pole pairs are exactly zero; the spectral rule only
    backs the ``circle_pair_integral`` reference), summed over all of them
    in one call since the basis order is the pole order; every other
    boundary goes through node-and-weight quadrature at
    ``settings.abs_tol``.  The disks are accumulated first, in index order,
    then the other shapes.  Only the upper triangle is kept; the lower is
    its conjugate mirror, so H is Hermitian exactly.  The same pass can also
    give the Grams of a split of the scene (:func:`_assemble_grams`).
    """
    bs = basis if isinstance(basis, BasisSet) else BasisSet(basis)
    return _assemble_grams(sc, bs, settings)[0]


def _assemble_grams(sc: Scene, bs: BasisSet, settings: QuadratureSettings | None,
                    split: tuple[int, int] | None = None) -> list[GramData]:
    """``[assemble_gram(sc, bs)]``, and with ``split = (m, k)`` also the Grams
    of the first m shapes on the first k basis functions (theirs) and of the
    other shapes on the other functions, from the same pass.

    The disk kernel sums each group's own disks over its own indices
    (:func:`_disk_blocks`), so with disks the group Grams are bitwise those of
    the groups assembled alone.  A quadrature shape's block is computed once
    over the whole basis and restricted to its group's indices; the adaptive
    rule then refines for the whole basis, which moves a group's entries by
    rounding only.
    """
    if settings is None:
        settings = QuadratureSettings()
    n = bs.n
    groups = [(0, len(sc.shapes), 0, n)]
    if split is not None:
        m, k = split
        groups += [(0, m, 0, k), (m, len(sc.shapes), k, n)]
    closed_form = [isinstance(s, Disk) and bs.all_simple for s in sc.shapes]
    disks = [s for s, cf in zip(sc.shapes, closed_form) if cf]
    # a group's disks, counted among the closed-form disks
    before = np.cumsum([0, *closed_form])
    disk_groups = [(before[s0], before[s1], j0, j1) for s0, s1, j0, j1 in groups]
    if disks:
        blocks = _disk_blocks(bs._sa, disks, disk_groups)
    else:
        blocks = [(np.zeros((j1 - j0, j1 - j0), complex), np.zeros(j1 - j0, complex))
                  for _, _, j0, j1 in groups]
    lengths = [sum(TWO_PI * d.radius for d in disks[d0:d1]) for d0, d1, _, _ in disk_groups]
    for i, (shape, cf) in enumerate(zip(sc.shapes, closed_form)):
        if not cf:
            Hq, uq, L = _quad_block(bs, shape, settings)
            for g, (s0, s1, j0, j1) in enumerate(groups):
                if s0 <= i < s1:
                    H, u = blocks[g]
                    H += Hq[j0:j1, j0:j1]
                    u += uq[j0:j1]
                    lengths[g] += L
    return [_gram_data(H, u, L) for (H, u), L in zip(blocks, lengths)]


def _gram_data(H: np.ndarray, u: np.ndarray, length: float) -> GramData:
    """Finish summed boundary integrals in place: real diagonal, lower triangle
    the conjugate mirror of the upper, everything over 2 pi."""
    n = u.size
    di = np.arange(n)
    H[di, di] = H[di, di].real  # Gram diagonal is real; drop rounding residue
    np.copyto(H, H.T.conj(), where=np.tri(n, k=-1, dtype=bool))
    # dividing a complex array by 2 pi gives x * fl(1/2pi) in each finite
    # component (it may drop the sign of a zero real part); the product on
    # the float64 view gives that without NumPy's complex division loop
    for a in (H, u):
        a_re = a.view(np.float64)
        a_re *= 1.0 / TWO_PI
    return GramData(H, u, length / TWO_PI)
