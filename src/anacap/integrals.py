"""Boundary integrals of basis-function products against arclength.

The Gram data of a scene consists of

* ``H[j, k] = (1/2pi) \\oint g_j(z) conj(g_k(z)) |dz|`` (Hermitian),
* ``u[j]   = (1/2pi) \\oint g_j(z) |dz|``,
* ``c0     = (boundary length) / 2pi``.

For disks under an all-simple-pole basis Gram assembly uses the Hardy-space
split: 1/(z - a) is in H^2 of the disk for a outside and in its orthogonal
complement for a inside, so a pair on opposite sides contributes exactly
zero, a pair inside keeps its closed form, and a pair outside is a
geometric series in kappa = r/(a - c), a sum of products of multipole
moments.  The moments of all the disks of a scene, as many per disk as an
a priori bound asks (the dropped tail of each entry is within eps/2 of
sqrt(H_aa H_bb)), give the upper triangle from one Hermitian product
(``zherk``), and every disk value is formed over 2 pi already.  The same
call can also give the Grams of a split of the scene into its first m
shapes (on their basis functions) and the rest, the E, F and E u F of a
subadditivity record, each from its own moments and so bitwise what it
would be assembled alone.  Every other boundary goes through one call of
the node-and-weight quadrature of :mod:`anacap.quadrature` over all its
pieces, which climb one ladder together: the basis values V of an
integrand call, with the constant 1 appended as a last row and scaled by
sqrt(w) in one per-thread buffer, give the upper triangle of ``(V w) V^H``
from one ``zherk`` per piece's node set, and that bordered block carries u
and the length too.  The same split gives ``circle_pair_integral`` and
``circle_mean_integral`` in closed form for poles of any order; they are on
no Gram path and stay public as exact references.

The quadrature blocks are summed shape by shape in index order, then
divided by 2 pi and added to the disks' part, so assembled matrices are
bitwise reproducible.  The disks' H is not summed disk by disk: BLAS sums
the moments of all of them at once.

A Gram is kept as its upper triangle from the ``zherk`` that makes it to
the Cholesky factorization that reads it (:mod:`anacap.solver`); its lower
triangle stays exactly zero, and only the public :func:`assemble_gram`
mirrors it, so that the H it returns is Hermitian.  The moment rows and
the integrand values live in per-thread buffers that the next call reuses
(:func:`_scratch`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zherk

from .basis import BasisFunction, BasisSet, PowerPole, SimplePole
from .errors import NonRationalBasisError, PoleOnContourError
from .geometry import Disk, Scene, arcs
from .quadrature import QuadratureSettings, integrate_arc

TWO_PI = 2.0 * math.pi
_HALF_EPS = 0.5 * np.finfo(float).eps
# most multipole moments one disk takes in _moment_gram
_K_MAX = 64
_THREAD = threading.local()


def _scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-ordered complex array of ``shape`` in this thread's
    buffer ``name``, grown on demand.  The next call for the same name in
    the same thread hands out the same memory, so the array must not outlive
    the call that took it; a thread keeps only its largest buffer per name.
    Reusing it spares the fresh pages of a new array of that size.  A
    thread keeps the moment rows and the factor copy of its largest disk
    Gram (about 3.8 MB at n = 306) and the quadrature integrand's values,
    at most (n+1) * 4096 * 16 B (282 KB on the four ellipses, n = 68)."""
    size = math.prod(shape)
    buf = getattr(_THREAD, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, complex)
        setattr(_THREAD, name, buf)
    return buf[:size].reshape(shape)


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


def _inside(w: complex, r: float) -> bool:
    """Whether the pole w (from the centre) lies inside the circle |w| = r;
    a pole on it, under the rule of :func:`_disk_blocks`, is an error."""
    d = abs(w)
    if abs(d - r) <= 1e-12 * max(r, d):
        raise PoleOnContourError(f"pole {w} from the centre lies on the circle of radius {r}")
    return d < r


def circle_pair_integral(b1: BasisFunction, b2: BasisFunction, circle: Disk) -> complex:
    """Exact value of \\oint_{|z-c|=r} b1(z) * conj(b2(z)) |dz| in closed form.

    With x = a - c and y = b - c for the poles a of b1 and b of b2, the
    Hardy split of :func:`_disk_blocks` gives a pair of simple poles as
    s 2 pi r / D, D = r^2 - x conj(y), s = 1 with both poles inside and -1
    with both outside, and 0 with one on each side.  Orders k1 = m + 1 and
    k2 = n + 1 follow by differentiating m times in x and n times in
    conj(y), over m! n!; over one power of D the Leibniz sum reads

        s 2 pi r sum_{i <= min(m, n)} C(m, i) C(n, i)
                 x^(n-i) conj(y)^(m-i) r^(2i) / D^(m+n+1).
    """
    r = circle.radius
    (x, k1), (y, k2) = (_rational_parts(b, circle.center) for b in (b1, b2))
    inside = _inside(x, r)
    if inside != _inside(y, r):
        return 0j
    m, n, yc = k1 - 1, k2 - 1, y.conjugate()
    total = sum(math.comb(m, i) * math.comb(n, i) * x ** (n - i) * yc ** (m - i) * r ** (2 * i)
                for i in range(min(m, n) + 1))
    s = TWO_PI * r if inside else -TWO_PI * r
    return s * total / (r * r - x * yc) ** (m + n + 1)


def circle_mean_integral(b: BasisFunction, circle: Disk) -> complex:
    """Exact value of \\oint_{|z-c|=r} b(z) |dz| in closed form: the mean
    value 2 pi r (c - a)^-k for a pole a outside the circle, 0 inside."""
    x, k = _rational_parts(b, circle.center)
    if _inside(x, circle.radius):
        return 0j
    return TWO_PI * circle.radius * (-x) ** -k


def _moment_counts(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moments per disk from its largest ratio rho = max |kappa| (0 where no
    pole lies outside it): the least K with rho^(2K) / (1 - rho^2) <= eps/2,
    capped at ``_K_MAX``, and whether the cap cut it."""
    with np.errstate(divide="ignore"):  # log(0) at rho = 0 gives K = 0
        k = np.ceil(np.log(_HALF_EPS * (1.0 - rho * rho)) / (2.0 * np.log(rho)))
    return np.minimum(k, _K_MAX).astype(int), k > _K_MAX


def _disk_blocks(poles: np.ndarray, disks: list[Disk], groups) -> list[GramData]:
    """Gram data over groups of disks for an all-simple-pole basis.

    With w = pole - c, 1/(z - a) lies in the Hardy space H^2 of a disk when
    a is outside its circle and in the orthogonal complement when a is
    inside, so on each disk (a = row pole, b = column pole)

    ========  ========  =============================================
    a         b         (1/2pi) \\oint (1/(z-a)) conj(1/(z-b)) |dz|
    ========  ========  =============================================
    inside    inside    r / (r^2 - w_a conj(w_b))
    outside   outside   -r / (r^2 - w_a conj(w_b))
    mixed               0 exactly
    ========  ========  =============================================

    and the mean (1/2pi) \\oint 1/(z - a) |dz| is r / (c - a) outside, 0
    inside.  Each group ``(d0, d1, j0, j1)`` asks for the sums over disks
    d0 .. d1-1 on basis indices j0 .. j1-1, returned as :class:`GramData` in
    the group's own indices, H as its upper triangle over a zero lower one
    and c0 the sum of the radii.  H comes from multipole moments
    (:func:`_moment_gram`): each entry is within eps/2 of sqrt(H_aa H_bb)
    of the closed forms' sum, plus rounding.  conj(kappa), |kappa| and the
    inside pairs' closed forms are elementwise, formed once for all the
    groups, and u is summed in disk order, so a group gets bitwise the Gram
    data that its disks and indices give alone.
    """
    c = np.array([d.center for d in disks], complex)[:, None]
    r = np.array([d.radius for d in disks])[:, None]
    w = poles - c  # disks x poles
    dist = np.abs(w)
    if np.any(np.abs(dist - r) <= 1e-12 * np.maximum(r, dist)):
        raise PoleOnContourError("simple pole on the circle")
    inside = dist < r
    means = np.where(inside, 0j, r / np.where(poles != c, c - poles, 1.0))
    ck = np.divide(r, np.conj(w), out=np.zeros_like(w), where=~inside)  # conj(kappa)
    rho = np.abs(ck)
    # a group takes the pairs inside its disks on its indices, the values
    # it would form; a <= b, so a >= j0 and b < j1 put both in the group
    d_in, a_in, b_in, term_in = _closed_form_pairs(w, r, inside, 1.0)
    grams = []
    for d0, d1, j0, j1 in groups:
        mine = (d0 <= d_in) & (d_in < d1) & (j0 <= a_in) & (b_in < j1)
        pairs = a_in[mine] - j0, b_in[mine] - j0, term_in[mine]
        part = np.s_[d0:d1, j0:j1]
        H = _moment_gram(w[part], r[d0:d1], ck[part], rho[part], pairs)
        grams.append(GramData(H, np.add.reduce(means[part], axis=0),
                              sum(d.radius for d in disks[d0:d1])))
    return grams


def _moment_gram(w: np.ndarray, r: np.ndarray, ck: np.ndarray, rho: np.ndarray,
                 pairs) -> np.ndarray:
    """Upper triangle of the sum over disks of the Hardy-split pair integrals
    (:func:`_disk_blocks`) over a zero lower one, given w = pole - c (disks
    x poles), the radii (disks x 1), ck = conj(kappa) and rho = |kappa| (0
    inside a disk), and the closed forms (a, b, value) of the inside pairs.

    Outside, with kappa = r / w (|kappa| < 1), the pair integral is the
    series (1/r) sum_{k >= 1} kappa_a^k conj(kappa_b^k): on each disk a sum
    of products of multipole moments.  Disk d takes K_d moments, the least
    K with rho^(2K) / (1 - rho^2) <= eps/2, rho the largest |kappa| on d,
    so by Cauchy-Schwarz each dropped tail is within eps/2 of
    sqrt(H_aa H_bb).  With the disks in a stable order of K_d, most first,
    those that take a k-th moment are a prefix, so one recurrence of slice
    products builds the moment rows r^(-1/2) conj(kappa)^k, zero at the
    poles inside the disk, in k-major order, and one ``zherk`` of all of
    them gives the upper triangle of every outside pair on every disk at
    once; a mixed pair meets a zero row.  K_d is capped at ``_K_MAX``; a
    capped disk adds the exact tail p^K times the closed form, p = kappa_a
    conj(kappa_b), to its pairs with both |kappa|^K / (1 - |kappa|) above
    eps/2, the only ones whose tail can exceed that bound.  Pairs inside one
    disk keep the closed form; a pole lies inside at most one disk, so each
    of them is one entry.  No entry is summed over the disks in disk order.
    The moment rows live in this thread's scratch buffer (:func:`_scratch`),
    which the next call reuses.
    """
    n = w.shape[1]
    k_d, capped = _moment_counts(rho.max(axis=1, initial=0.0))
    order = np.argsort(-k_d, kind="stable")
    # live[k - 1] disks, the first of that order, take a k-th moment
    live = np.count_nonzero(k_d[:, None] > np.arange(k_d.max(initial=0)), axis=0)
    rows = _scratch("rows", (int(live.sum()), n))
    prev, ck_sorted, at = 1.0 / np.sqrt(r[order]), ck[order], 0
    for m in live:
        prev = np.multiply(prev[:m], ck_sorted[:m], out=rows[at:at + m])
        at += m
    # A = rows.T is n x K in Fortran order; BLAS puts A A^H = conj(H) in its
    # lower triangle, whose transpose is H's upper triangle in C order
    H = zherk(1.0, rows.T, trans=0, lower=1).T
    a, b, term = pairs
    H[a, b] += term
    if capped.any():
        # past _K_MAX moments a pair's tail is within eps/2 of its scale unless
        # both poles have |kappa|^K / (1 - |kappa|) above eps/2 (|kappa| > 0.556)
        tail = capped[:, None] & (rho ** _K_MAX > _HALF_EPS * (1.0 - rho))
        d, a, b, term = _closed_form_pairs(w, r, tail, -1.0)
        np.add.at(H, (a, b), (np.conj(ck[d, a]) * ck[d, b]) ** _K_MAX * term)
    # zherk's diagonal is real; the closed forms added to it may not be
    np.fill_diagonal(H.imag, 0.0)
    return H


def _closed_form_pairs(w: np.ndarray, r: np.ndarray, mask: np.ndarray, sign: float):
    """(d, a, b, value) of the closed form sign r / (r^2 - w_a conj(w_b)) on
    disk d, for every pair a <= b of poles that mask marks on d, sorted by
    (d, a, b)."""
    d, j = np.nonzero(mask)
    count = np.bincount(d, minlength=mask.shape[0])
    # entry p is repeated once for each entry q on its disk: q runs from the
    # disk's first entry through the repeat block of p
    rep = count[d]
    p = np.repeat(np.arange(d.size), rep)
    q = (np.cumsum(count) - count)[d[p]] + np.arange(p.size) - np.repeat(np.cumsum(rep) - rep, rep)
    keep = j[p] <= j[q]
    d, a, b = d[p[keep]], j[p[keep]], j[q[keep]]
    rd = r[d, 0]
    return d, a, b, sign * rd / (rd * rd - w[d, a] * np.conj(w[d, b]))


# ---------------------------------------------------------------------------
# Gram assembly


@dataclass(frozen=True)
class GramData:
    """Boundary inner-product data: Hermitian H, mean vector u, length/2pi."""

    H: np.ndarray
    u: np.ndarray
    c0: float


def _quad_blocks(bs: BasisSet, shapes: list, settings: QuadratureSettings
                 ) -> list[np.ndarray]:
    """Bordered Gram blocks of the shapes' boundaries by node-and-weight
    quadrature, one (n+1) x (n+1) block per shape, from one ladder over all
    their pieces.

    Each integrand call fills one per-thread buffer A (n+1 x nodes,
    :func:`_scratch`) for all the parts it gets: ``bs.eval_all`` writes the
    basis values into A[:n], row n is the constant 1, and A is scaled in
    place by sqrt(w) (the weights are >= 0).
    One Hermitian rank-k update (``zherk``) per part, on the part's columns,
    then gives the upper triangle of the bordered block G = (A w) A^H: H in
    G[:n, :n], u in G[:n, n] and the length in G[n, n], with an exactly real
    diagonal; the lower triangle stays zero, and so it stays in the Gram
    that :func:`_assemble_grams` returns.  Corner endpoints need no flag:
    the open-piece rule of ``integrate_arc`` integrates their singular
    products, and ``_matching_corner`` only picks the members that take the
    exact displacement from the parametrization, spliced in per part: a corner's
    displacement is ``disp_start(t)`` on a piece that starts at it,
    ``disp_end(s1)`` on one that ends at it, and z - corner elsewhere, the
    subtraction ``eval_all`` makes itself.  A basis value does not depend on
    the other nodes of its call, so each piece's sums, and the blocks summed
    from them piece by piece in order, have the bits of a piece-by-piece
    assembly.

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
    row.  The update stays per part, so bases of up to 30 functions (the
    bench's corner bases, whose parts are of 64 or 128 nodes) make no
    threaded call here; the four ellipses under ``Rings(4)`` (n = 68) do.
    """
    n = bs.n
    corner_pts = bs.corner_points()
    pieces, ends, owner = [], [], []
    for k, shape in enumerate(shapes):
        shape_pieces = arcs(shape)
        scale = max(1.0, abs(shape_pieces[0].start))
        for arc in shape_pieces:
            pieces.append(arc)
            ends.append((_matching_corner(corner_pts, arc.start, scale),
                         _matching_corner(corner_pts, arc.end, scale)))
            owner.append(k)

    def f(spans, t, z, s1, w):
        # corner-adapted members anchored at a piece's endpoint take the
        # exact displacement z - corner from the parametrization; near the
        # corner the subtraction would round to zero
        subs = {}
        for i, c in spans:
            (start, end), arc = ends[i], pieces[i]
            if start is not None:
                subs.setdefault(start, z - start)[c] = arc.disp_start(t[c])
            if end is not None:
                subs.setdefault(end, z - end)[c] = arc.disp_end(s1[c])
        A = _scratch("quad", (n + 1, z.size))
        bs.eval_all(z, list(subs.items()) or None, out=A[:n])
        A[n] = 1.0
        A *= np.sqrt(w)
        # A[:, c].T is a part's A in Fortran order (copied unless the part
        # fills the call); BLAS returns conj(G) = G^T in its lower triangle,
        # whose transpose is G's upper triangle in C order
        return [zherk(1.0, A[:, c].T, trans=2, lower=1).T.ravel() for _, c in spans]

    vals = integrate_arc(f, pieces, settings, scale=lambda v: _gram_scale(v, n + 1),
                         rows=n + 1)
    blocks = [np.zeros((n + 1, n + 1), complex) for _ in shapes]
    for k, v in zip(owner, vals):
        blocks[k] += v.reshape(n + 1, n + 1)
    return blocks


def _gram_scale(vals: np.ndarray, m: int) -> np.ndarray:
    """Cauchy-Schwarz bounds sqrt(G_jj G_kk) on the weighted sums of |terms|
    of m x m blocks G (H bordered by u and the length), stacked one raveled
    block per row.  Entries that cancel far below these carry rounding noise
    of that size, so it sets their floor."""
    d = np.abs(vals[:, :: m + 1].real)
    return np.sqrt(d[:, :, None] * d[:, None, :]).reshape(vals.shape)


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

    Disks under an all-simple-pole basis use the Hardy split (opposite-side
    pole pairs are exactly zero), with the outside pairs of all the
    disks from one Hermitian product of their multipole moments, accurate to
    eps/2 of sqrt(H_aa H_bb) plus rounding (:func:`_disk_blocks`); every
    other boundary goes through node-and-weight quadrature at
    ``settings.abs_tol``.  The disks are accumulated first, then the other
    shapes in index order.  Only the upper triangle is computed; here the
    lower is filled with its conjugate mirror, so H is Hermitian exactly.
    The same pass can also give the Grams of a split of the scene, as upper
    triangles (:func:`_assemble_grams`).
    """
    bs = basis if isinstance(basis, BasisSet) else BasisSet(basis)
    g = _assemble_grams(sc, bs, settings)[0]
    np.copyto(g.H, g.H.T.conj(), where=np.tri(bs.n, k=-1, dtype=bool))
    return g


def _assemble_grams(sc: Scene, bs: BasisSet, settings: QuadratureSettings | None,
                    split: tuple[int, int] | None = None) -> list[GramData]:
    """``[assemble_gram(sc, bs)]`` with each H its upper triangle over an
    exactly zero lower one, the part the solver reads, and with
    ``split = (m, k)`` also the Grams of the first m shapes on the first k
    basis functions (theirs) and of the other shapes on the other
    functions, from the same pass.

    The disk kernel takes each group's moments from its own disks and its own
    indices only (:func:`_disk_blocks`), so with disks the group Grams are
    bitwise those of the groups assembled alone.  A quadrature shape's block
    is computed once over the whole basis and summed into each group that
    holds it, on the group's indices (the adaptive rule then refines for the
    whole basis, which moves a group's entries by rounding only); the sums
    are finished by :func:`_gram_data` and added to the disks' Grams.
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
    quad = [i for i, cf in enumerate(closed_form) if not cf]
    # a group's disks, counted among the closed-form disks
    before = np.cumsum([0, *closed_form])
    grams = _disk_blocks(bs._sa, disks, [(before[s0], before[s1], j0, j1)
                                         for s0, s1, j0, j1 in groups]) if disks else None
    if disks and not quad:
        return grams
    blocks = [(np.zeros((j1 - j0, j1 - j0), complex), np.zeros(j1 - j0, complex))
              for _, _, j0, j1 in groups]
    lengths = [0.0] * len(groups)
    for i, G in zip(quad, _quad_blocks(bs, [sc.shapes[i] for i in quad], settings)):
        for g, (s0, s1, j0, j1) in enumerate(groups):
            if s0 <= i < s1:
                H, u = blocks[g]
                H += G[j0:j1, j0:j1]
                u += G[j0:j1, n]
                lengths[g] += float(G[n, n].real)
    quads = [_gram_data(H, u, L) for (H, u), L in zip(blocks, lengths)]
    return [GramData(g.H + q.H, g.u + q.u, g.c0 + q.c0)
            for g, q in zip(grams, quads)] if disks else quads


def _gram_data(H: np.ndarray, u: np.ndarray, length: float) -> GramData:
    """Finish summed quadrature blocks in place: real diagonal, everything
    over 2 pi, the units the disk kernel forms.  H's lower triangle is not
    read or mirrored: the summed blocks leave it zero, and zero it stays."""
    di = np.arange(u.size)
    H[di, di] = H[di, di].real  # Gram diagonal is real; drop rounding residue
    # dividing a complex array by 2 pi gives x * fl(1/2pi) in each finite
    # component (it may drop the sign of a zero real part); the product on
    # the float64 view gives that without NumPy's complex division loop
    for a in (H, u):
        a_re = a.view(np.float64)
        a_re *= 1.0 / TWO_PI
    return GramData(H, u, length / TWO_PI)
