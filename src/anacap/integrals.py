"""Boundary integrals of basis-function products against arclength.

The Gram data of a scene consists of

* ``H[j, k] = (1/2pi) \\oint g_j(z) conj(g_k(z)) |dz|`` (Hermitian),
* ``u[j]   = (1/2pi) \\oint g_j(z) |dz|``,
* ``c0     = (boundary length) / 2pi``.

For a circle, a boundary (``Scene.boundaries``) of one whole-turn piece with
d = 0, under a basis of first-order poles Gram assembly uses the Hardy-space
split: 1/(z - a) is in H^2 of the disk for a outside and in its orthogonal
complement for a inside, so a pair on opposite sides contributes exactly
zero, a pair inside keeps its closed form, and a pair outside is a
geometric series in kappa = r/(a - c), a sum of products of multipole
moments.  The moments of all the disks of a scene, as many per disk as an
a priori bound asks (the dropped tail of each entry is within eps/2 of
sqrt(H_aa H_bb)), give the upper triangle from Hermitian products
(``zherk``) of their rows, a block of whole moment levels at a time, and
every disk value is formed over 2 pi already (:func:`_disk_gram`).  The
same call can also give the Grams of a split of the scene into its first m
shapes (on their basis functions) and the rest, the E u F, E and F of a
subadditivity record, one at a time: the kernel runs once per group, when
its Gram is requested, on the group's own disks and poles, so each is
bitwise what it would be assembled alone.
Every other boundary goes through one call of the node-and-weight
quadrature of :mod:`anacap.quadrature` over all its pieces, which climb
one ladder together: the basis values V of an integrand call, with the
constant 1 appended as a last row and scaled by sqrt(w), give the upper
triangle of ``(V w) V^H`` from one ``zherk`` per piece's node set, and
that bordered block carries u and the length too; its convergence test
reads the diagonal first (:func:`_gram_converged`).  The same split gives ``circle_pair_integral`` and
``circle_mean_integral`` in closed form for poles of any order; they are on
no Gram path and stay public as exact references.

The quadrature blocks are summed shape by shape in index order, then
divided by 2 pi and added to the disks' part, so assembled matrices are
bitwise reproducible.  The disks' H is not summed disk by disk: BLAS sums
the moments of all of them at once.

A Gram is its upper triangle, from the ``zherk`` that makes it to the
Cholesky factorization that reads it (:mod:`anacap.solver`); its lower
triangle is not part of it and is never read, and only the public
:func:`assemble_gram` mirrors it, so that the H it returns is Hermitian.
The solver factors a Gram where it lies and keeps a copy of the upper
triangle in the lower one.  Every array belongs to the call that makes it:
an assembly with disks makes one n x n Gram, and E's and F's are views of
its leading entries; the moment rows are made in blocks of whole moment
levels (at most ``_ROW_BLOCK`` rows unless one level has more), each added
into the Gram, and each integrand call makes its own values.  So the n^2
memory of a disk bracket, or of a ratio record's three, is one Gram, and
none of it outlives the call.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._lapack import zherk
from .basis import BasisFunction, BasisSet, PowerPole
from .errors import NonRationalBasisError, PoleOnContourError
from .geometry import ParametricArc, Scene
from .quadrature import QuadratureSettings, _within, integrate_arc

TWO_PI = 2.0 * math.pi
_HALF_EPS = 0.5 * np.finfo(float).eps
# most multipole moments one disk takes in _disk_gram
_K_MAX = 64
# most moment rows in a block of _disk_gram, unless one level has more, so
# that a block holds about 128 n values.  On two cores, the seed-1
# 18-disk ratio records took 3.2, 3.0 and 2.8 ms of warm assembly at 64,
# 128 and 256 rows (2.8 in one block; 3.2-3.3 at each on one BLAS thread),
# and a process of 40 of them peaked at 63.7, 64.2 and 64.8 MiB (64.8 in
# blocks of n rows)
_ROW_BLOCK = 128
# the strict lower triangle of a diagonal block of _mirror, which also sets
# its block size: in blocks of 64 columns a mirror took 82 us at n = 306 and
# 4.5 ms at n = 1,088, against 88 us and 7.1 ms in blocks of 32 and 87 us
# and 5.8 ms in blocks of 128 (a copy of the whole Gram took 133 us and 3.2 ms)
_LOWER = np.tri(64, k=-1, dtype=bool)


# ---------------------------------------------------------------------------
# exact circle integrals


def _rational_parts(b: BasisFunction, c: complex) -> tuple[complex, int]:
    """(pole - c, order) of a rational basis function, for a circle about c."""
    if isinstance(b, PowerPole):
        return b.c - c, b.k
    raise NonRationalBasisError(
        f"{type(b).__name__} is not rational; use the quadrature path")


def _inside(w, r):
    """Whether the poles w (from the centre) lie inside the circles |w| = r,
    for scalars or for arrays that broadcast; a pole on its circle, |w|
    within 1e-12 max(|w|, r) of r, is an error."""
    d = np.abs(w)
    if np.any(np.abs(d - r) <= 1e-12 * np.maximum(r, d)):
        raise PoleOnContourError("a pole lies on the circle of a disk")
    return d < r


def circle_pair_integral(b1: BasisFunction, b2: BasisFunction, circle) -> complex:
    """Exact value of \\oint_{|z-c|=r} b1(z) * conj(b2(z)) |dz| in closed form,
    c and r the ``center`` and ``radius`` of ``circle``.

    With x = a - c and y = b - c for the poles a of b1 and b of b2, the
    Hardy split of :func:`_disk_gram` gives a pair of simple poles as
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


def circle_mean_integral(b: BasisFunction, circle) -> complex:
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


def _disk_gram(circles: list[ParametricArc], poles: np.ndarray, H: np.ndarray) -> GramData:
    """Gram data of the disks inside circles p0 + b e(t) (centre p0, radius
    |b|) for a basis of first-order poles, H written into the C-ordered array
    H as its upper triangle, over whatever H held; its lower one is not written.

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

    and the mean (1/2pi) \\oint 1/(z - a) |dz| is r / (c - a) = -kappa
    outside, 0 inside; c0 is the sum of the radii.  Pairs inside one disk
    keep the closed form; a pole lies inside at most one disk, so each of
    them is one entry.  Outside, with kappa = r / w (|kappa| < 1), the pair
    integral is the series (1/r) sum_{k >= 1} kappa_a^k conj(kappa_b^k): on
    each disk a sum of products of multipole moments.  Disk d takes K_d
    moments, the least K with rho^(2K) / (1 - rho^2) <= eps/2, rho the
    largest |kappa| on d, so by Cauchy-Schwarz each dropped tail is within
    eps/2 of sqrt(H_aa H_bb).  With the disks in a stable order of K_d, most
    first, those that take a k-th moment are a prefix, so one recurrence of
    slice products builds the moment rows r^(-1/2) conj(kappa)^k, zero at
    the poles inside the disk, in k-major order, and a Hermitian product
    (``zherk``) of them gives the upper triangle of every outside pair on
    every disk at once; a mixed pair meets a zero row.  The rows are made in
    blocks of whole moment levels, at most max(``_ROW_BLOCK``, disks) rows
    each, in one array of the call, and each block is added into H
    (``beta = 1`` after the first), so they take about ``_ROW_BLOCK`` n
    values, not n^2; when all the rows fit one block, H has the bits of a
    single product.  K_d is capped at ``_K_MAX``; a capped
    disk adds the exact tail p^K times the closed form, p = kappa_a
    conj(kappa_b), to its pairs with both |kappa|^K / (1 - |kappa|) above
    eps/2, the only ones whose tail can exceed that bound.  No entry of H is
    summed disk by disk; the means are, from conj(kappa), in disk order.

    w and conj(kappa) are the only disks x poles arrays held, and the inside
    pairs' closed forms are made before the K-sorted copy of conj(kappa).
    All of it comes from these disks and poles, so a group of a split gets
    bitwise the Gram data that it gives assembled alone.
    """
    radii = [abs(pc.b) for pc in circles]
    c = np.array([pc.p0 for pc in circles], complex)[:, None]
    r = np.array(radii)[:, None]
    w = poles - c  # disks x poles
    inside = _inside(w, r)
    ck = np.divide(r, np.conj(w), out=np.zeros_like(w), where=~inside)  # conj(kappa)
    _, a_in, b_in, term_in = _closed_form_pairs(w, r, inside, 1.0)
    n = w.shape[1]
    k_d, capped = _moment_counts(np.abs(ck).max(axis=1, initial=0.0))
    order = np.argsort(-k_d, kind="stable")
    # live[k - 1] disks, the first of that order, take a k-th moment
    live = np.count_nonzero(k_d[:, None] > np.arange(k_d.max(initial=0)), axis=0)
    cap = max(_ROW_BLOCK, live[0]) if live.size else 0
    rows = np.empty((cap, n), complex)
    prev, ck_sorted, at, beta = 1.0 / np.sqrt(r[order]), ck[order], 0, 0.0
    for k, m in enumerate(live, 1):
        # a block's first level reads the last level of the block before:
        # the same rows if that block held one level (no level outgrows the
        # one before it), rows past those it writes if it held more
        prev = np.multiply(prev[:m], ck_sorted[:m], out=rows[at:at + m])
        at += m
        if k == live.size or at + live[k] > cap:
            # A = rows[:at].T is n x at in Fortran order, and H.T is H's
            # memory there; BLAS adds A A^H, conj(H) = H^T, to its lower
            # triangle, H's upper one (beta = 0 overwrites it at the first)
            zherk(1.0, rows[:at].T, beta=beta, c=H.T, trans=0, lower=1, overwrite_c=1)
            at, beta = 0, 1.0
    if not live.size:  # no pole outside any disk
        H.fill(0.0)
    H[a_in, b_in] += term_in
    if capped.any():
        # past _K_MAX moments a pair's tail is within eps/2 of its scale unless
        # both poles have |kappa|^K / (1 - |kappa|) above eps/2 (|kappa| > 0.556)
        rho = np.abs(ck)
        tail = capped[:, None] & (rho ** _K_MAX > _HALF_EPS * (1.0 - rho))
        d, a, b, term = _closed_form_pairs(w, r, tail, -1.0)
        np.add.at(H, (a, b), (np.conj(ck[d, a]) * ck[d, b]) ** _K_MAX * term)
    # zherk's diagonal is real; the closed forms added to it may not be
    np.fill_diagonal(H.imag, 0.0)
    # the means r / (c - a) = -kappa, summed as conj(kappa); 0.0 - keeps +0
    # at an inside pole of a one-disk Gram, where a bare minus gives -0
    u = 0.0 - np.conj(np.add.reduce(ck, axis=0))
    return GramData(H, u, sum(radii))


def _closed_form_pairs(w: np.ndarray, r: np.ndarray, mask: np.ndarray, sign: float):
    """(d, a, b, value) of the closed form sign r / (r^2 - w_a conj(w_b)) on
    disk d, for every pair a <= b of poles that mask marks on d, sorted by
    (d, a, b)."""
    f = np.flatnonzero(mask)
    d, j = np.divmod(f, mask.shape[1])
    # entry p is paired with itself and the entries after it on its disk,
    # up to the disk's last entry, cumsum(count)[d] - 1
    rep = np.cumsum(np.bincount(d, minlength=mask.shape[0]))[d] - np.arange(d.size)
    p = np.repeat(np.arange(d.size), rep)
    q = p + np.arange(p.size) - np.repeat(np.cumsum(rep) - rep, rep)
    d, fa, fb = d[p], f[p], f[q]
    rd, wf = r[d, 0], w.ravel()
    return d, j[p], j[q], sign * rd / (rd * rd - wf[fa] * np.conj(wf[fb]))


# ---------------------------------------------------------------------------
# Gram assembly


@dataclass(frozen=True)
class GramData:
    """Boundary inner-product data: Hermitian H, mean vector u, length/2pi."""

    H: np.ndarray
    u: np.ndarray
    c0: float


def _quad_blocks(bs: BasisSet, boundaries: list[list[ParametricArc]],
                 settings: QuadratureSettings) -> list[np.ndarray]:
    """Bordered Gram blocks of boundaries (``Scene.boundaries``) by
    node-and-weight quadrature, one (n+1) x (n+1) block per boundary, from
    one ladder over all their pieces.

    Each integrand call makes one array A (n+1 x nodes) for all the parts
    it gets: ``bs.eval_parts`` writes the basis values into A[:n], row n is
    the constant 1, and A is scaled in place by complex sqrt(w) (w >= 0;
    NumPy would cast a float in buffers).
    One Hermitian rank-k update (``zherk``) per part, on the part's columns,
    then gives the upper triangle of the bordered block G = (A w) A^H: H in
    G[:n, :n], u in G[:n, n] and the length in G[n, n], with an exactly real
    diagonal; the lower triangle stays zero.  Corner endpoints need no flag:
    the open-piece rule of ``integrate_arc`` integrates their singular
    products, and ``bs.eval_parts`` gives each corner member the exact
    displacement of its piece end.  A basis value does not depend on the
    other nodes of its call, so each piece's sums, and the blocks summed
    from them piece by piece in order, have the bits of a piece-by-piece
    assembly.  A shape's block is its first piece's sum, the others added in
    place: a -0 entry vanishes in the sums of :func:`_assemble_grams`.

    The update runs on SciPy's BLAS (its compiled wrapper, which
    :mod:`anacap._lapack` loads), like the solver's factorization: NumPy
    and SciPy each bundle an OpenBLAS with its own thread pool, and
    alternating between the two leaves one pool's workers spinning while the
    other's run, which on a two-core machine stalled a 20 ms job by up to
    0.2 s.  Even so, a call that OpenBLAS threads stalls for about 4 ms
    right after threaded work in NumPy's pool, and a single-threaded one
    does not.  With SciPy's OpenBLAS 0.3.30 on two cores, ``zherk`` runs on
    one thread up to 31 rows, at 64, 128 and 512 nodes, and is threaded from
    32; a ``zgemm`` at 31 by 128 and a ``zgemv`` at 21 by 512 are threaded,
    which is why u and the length come through the bordered row.  The update
    stays per part, so bases of up to 30 functions (the bench's corner
    bases, whose parts are of 64 or 128 nodes) make no threaded call here;
    the four ellipses under ``Rings(4)`` (n = 68) do.
    """
    n = bs.n
    per_shape = [bs.corner_ends(pieces) for pieces in boundaries]
    ends = [e for shape_ends in per_shape for e in shape_ends]
    owner = [k for k, shape_ends in enumerate(per_shape) for _ in shape_ends]

    def f(spans, t, z, s1, w):
        A = np.empty((n + 1, z.size), complex)
        bs.eval_parts(ends, spans, t, z, s1, out=A[:n])
        A[n] = 1.0
        A *= np.sqrt(w).astype(complex)
        # A[:, c].T is a part's A in Fortran order (copied unless the part
        # fills the call); BLAS returns conj(G) = G^T in its lower triangle,
        # whose transpose is G's upper triangle in C order
        return [zherk(1.0, A[:, c].T, trans=2, lower=1).T.ravel() for _, c in spans]

    vals = integrate_arc(f, [arc for arc, _, _ in ends], settings, rows=n + 1,
                         converged=_gram_converged)
    blocks = [None] * len(boundaries)
    for k, v in zip(owner, vals):
        v = v.reshape(n + 1, n + 1)
        blocks[k] = v if blocks[k] is None else np.add(blocks[k], v, out=blocks[k])
    return blocks


def _gram_converged(new: np.ndarray, old: np.ndarray, tol: float) -> np.ndarray:
    """Whether each of two successive estimates of m x m blocks G (H
    bordered by u and the length), stacked one raveled block per row, has
    converged: every entry within max(tol, 64 eps sqrt(G_jj G_kk)) of the
    last, real and imaginary parts separately, G_jj the |Re| of the new
    diagonal, a Cauchy-Schwarz bound on the weighted sum of |terms|.  Most
    blocks that have not converged fail on the diagonal, so it is tested
    first, and only the blocks that pass it take the whole test."""
    m = math.isqrt(new.shape[1])
    d = np.abs(new[:, :: m + 1].real)
    ok = _within(new[:, :: m + 1], old[:, :: m + 1], np.sqrt(d * d), tol)
    if ok.any():
        rows = slice(None) if ok.all() else np.flatnonzero(ok)
        size = np.sqrt(d[rows, :, None] * d[rows, None, :])
        ok[rows] = _within(new[rows], old[rows], size.reshape(len(size), -1), tol)
    return ok


def _mirror(A: np.ndarray, conj: bool = False) -> None:
    """Copy A's strict upper triangle onto its strict lower one, transposed
    (and conjugated with ``conj``), in place and a column block at a time;
    with A = H.T it is H's strict upper triangle that takes its lower one."""
    n, m = len(A), len(_LOWER)
    for i in range(0, n, m):
        j = min(i + m, n)
        low = _LOWER[:j - i, :j - i]
        # the block below the diagonal block and the one right of it share no
        # memory; the diagonal block is copied through a temporary
        np.copyto(A[j:, i:j], A[i:j, j:].T)
        np.copyto(A[i:j, i:j], A[i:j, i:j].T, where=low)
        if conj:
            np.conjugate(A[j:, i:j], out=A[j:, i:j])
            np.conjugate(A[i:j, i:j], out=A[i:j, i:j], where=low)


def assemble_gram(sc: Scene, basis: list[BasisFunction],
                  settings: QuadratureSettings = QuadratureSettings()) -> GramData:
    """Assemble H, u, c0 for the scene boundary and the given basis.

    Circles under a basis of first-order poles use the Hardy split
    (opposite-side pole pairs are exactly zero), with the outside pairs of all
    the disks from Hermitian products of their multipole moments, accurate to
    eps/2 of sqrt(H_aa H_bb) plus rounding (:func:`_disk_gram`); every
    other boundary goes through node-and-weight quadrature at
    ``settings.abs_tol``.  The disks are accumulated first, then the other
    shapes in index order.  Only the upper triangle is computed; this call
    owns the Gram and mirrors its conjugate in place, so H is Hermitian
    exactly.  The same pass can also give the Grams of a split of the
    scene, as upper triangles (:func:`_assemble_grams`).
    """
    bs = basis if isinstance(basis, BasisSet) else BasisSet(basis)
    g = next(_assemble_grams(sc, bs, settings))
    _mirror(g.H, conj=True)
    return g


def _assemble_grams(sc: Scene, bs: BasisSet, settings: QuadratureSettings,
                    split: tuple[int, int] | None = None) -> Iterator[GramData]:
    """The Gram of ``assemble_gram(sc, bs)`` with H its upper triangle, the
    part the solver reads (the lower one is not part of the Gram: it may
    hold anything), then with ``split = (m, k)`` those of the first m
    shapes on the first k basis functions (theirs) and of the other shapes
    on the other functions, handed out one at a time: a quadrature ladder
    runs for all of them before the first, a group's disk kernel when its
    Gram is requested.  With disks the call makes one n x n array: with no
    other shapes the union's H is that array, and E's and F's are C-ordered
    views of its leading entries, so each H is overwritten by the next:
    read it, or copy it, first.  A bracket factors its Gram in place, so it
    consumes it.

    With disks the kernel runs once per group on the group's own disks and
    basis functions only (:func:`_disk_gram`), a group without such disks
    getting an empty one, so the group Grams are bitwise those of the groups
    assembled alone.  A quadrature shape's block is computed once over the
    whole basis and summed into each group that holds it, on the group's
    indices (the adaptive rule then refines for the whole basis, which
    moves a group's entries by rounding only); the sums are finished by
    :func:`_gram_data` and added to the disks' Grams.
    """
    n = bs.n
    groups = [(0, len(sc.shapes), 0, n)]
    if split is not None:
        m, k = split
        groups += [(0, m, 0, k), (m, len(sc.shapes), k, n)]
    boundaries = sc.boundaries
    closed_form = [bs.all_simple and len(b) == 1 and abs(b[0].turns) == 1 and b[0].d == 0
                   for b in boundaries]
    quad = [i for i, cf in enumerate(closed_form) if not cf]
    quads = [None] * len(groups)
    if quad:
        blocks = [(np.zeros((j1 - j0, j1 - j0), complex), np.zeros(j1 - j0, complex))
                  for _, _, j0, j1 in groups]
        lengths = [0.0] * len(groups)
        for i, G in zip(quad, _quad_blocks(bs, [boundaries[i] for i in quad], settings)):
            for g, (s0, s1, j0, j1) in enumerate(groups):
                if s0 <= i < s1:
                    H, u = blocks[g]
                    H += G[j0:j1, j0:j1]
                    u += G[j0:j1, n]
                    lengths[g] += float(G[n, n].real)
        quads = [_gram_data(H, u, L) for (H, u), L in zip(blocks, lengths)]
    buf = np.empty((n, n), complex) if any(closed_form) else None
    for (s0, s1, j0, j1), q in zip(groups, quads):
        if buf is not None:
            size = j1 - j0
            H = buf if size == n else buf.reshape(-1)[:size * size].reshape(size, size)
            g = _disk_gram([b[0] for b, cf in zip(boundaries[s0:s1], closed_form[s0:s1]) if cf],
                           bs._sa[j0:j1], H)
            q = g if q is None else GramData(np.add(g.H, q.H, out=q.H), g.u + q.u, g.c0 + q.c0)
        yield q


def _gram_data(H: np.ndarray, u: np.ndarray, length: float) -> GramData:
    """Finish summed quadrature blocks in place: everything over 2 pi, the
    units the disk kernel forms.  Their diagonal is real (``zherk`` writes it
    so, and sums keep it) and their lower triangle zero, and both stay so."""
    # dividing a complex array by 2 pi gives x * fl(1/2pi) in each finite
    # component (it may drop the sign of a zero real part); the product on
    # the float64 view gives that without NumPy's complex division loop
    for a in (H, u):
        a_re = a.view(np.float64)
        a_re *= 1.0 / TWO_PI
    return GramData(H, u, length / TWO_PI)
