"""Certified upper and lower bounds for analytic capacity.

Garabedian duality gives two quadratic programs over functions vanishing at
infinity, spanned by the basis ``g_1 .. g_n`` with Gram data (H, u, c0) and
derivative-at-infinity vector d:

* upper bound:  min over g in the span of  (1/2pi) \\oint |1 + g|^2 |dz|
                = c0 - <H^{-1} u, u>,
* lower bound:  max over h in the span of  2 Re h'(inf) - (1/2pi) \\oint |h|^2 |dz|
                = <H^{-1} d, d>,

where <x, y> = y^H x.  Both come from one Cholesky factorization of the
Gram (:func:`_objectives`, which ``upper_bound`` and ``lower_bound`` also
read), each evaluated as the objective at its computed solution vector, so
an inexact linear solve can only loosen the bracket, never invalidate it.
The bounds are rigorous up to quadrature error; the reported ``slack``
(10 * abs_tol * n_basis) budgets for it.

The solver reads only the upper triangle of H, in the factorization and in
the products H x, so it takes the triangle that assembly makes
(``integrals._assemble_grams``) and the mirrored H of ``assemble_gram``
alike, with the same bits.  LAPACK factors a copy of the Gram as
assembled, with no equilibration, in a per-thread buffer that the next
factorization reuses, and solves for both objectives in one call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zhemm
from scipy.linalg.lapack import zpotrf, zpotrs

from .basis import BasisSet, CornerAdapted, SimplePole, _require_star_shaped, build_basis
from .errors import SceneConfigError, SingularGramError, SolveError
from .geometry import Scene, _winding_number, arcs, corners, validate_scene
from .integrals import GramData, _matching_corner, _scratch, assemble_gram
from .quadrature import QuadratureSettings


@dataclass(frozen=True)
class GramSystem:
    gram: GramData
    d: np.ndarray

    def __post_init__(self):
        n = len(self.d)
        if self.gram.H.shape != (n, n) or len(self.gram.u) != n:
            raise SolveError("Gram data and d-vector dimensions disagree")


@dataclass(frozen=True)
class BoundsResult:
    lower: float
    upper: float
    n_basis: int
    solve_residual: float
    wall_time: float
    slack: float

    def to_json_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "n_basis": self.n_basis,
                "slack": self.slack, "wall_time_s": self.wall_time}


_JITTERS = (0.0, 4e-15, 1e-13, 1e-11, 1e-9)


def _factor(H: np.ndarray):
    """Cholesky factor of conj(H) in Fortran order (its lower triangle) and
    the jitter used.  Only H's upper triangle is read.

    H is factored as assembled: Cholesky's success and backward error depend
    on H only through D^-1 H D^-1, D = diag(H)^(1/2) (Demmel, LAPACK Working
    Note 14, 1989; Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., sec. 10.1), so it needs no equilibration.  A large basis can be
    singular to working precision although positive definite; a bounded
    ladder of jitters, each adding jit H_jj to the diagonal (jit to that of
    D^-1 H D^-1), recovers a usable factorization.  Bound validity is
    unaffected: the objectives are evaluated at the computed point with the
    true H, and any point yields a valid bound.
    """
    diag = H.diagonal().real
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise SingularGramError("Gram diagonal not strictly positive")
    n = len(diag)
    # the C-ordered copy of H is, in Fortran order, H^T = conj(H), whose
    # lower triangle holds H's upper one; it is factored in place as
    # conj(H) = L L^H, the conjugate of H's factor bit for bit, so a solve
    # with conjugated right-hand side and result gives H's solution.  A
    # failed attempt overwrites the buffer, this thread's, so each step of
    # the ladder copies H again.
    buf = _scratch("factor", (n, n))
    info = 0
    for jit in _JITTERS:
        np.copyto(buf, H)
        if jit:
            buf.ravel()[:: n + 1] += jit * diag
        c, info = zpotrf(buf.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return c, jit
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    raise SingularGramError(
        f"Gram factorization failed ({info}-th leading minor of the array is not "
        "positive definite); the basis is numerically dependent -- use a smaller schedule")


def _objectives(gram: GramData, d: np.ndarray) -> tuple[float, float, float]:
    """(upper, lower, residual) from one factorization of the Gram: each
    objective at its own column of the solution of H X = [-u, d], and the
    larger relative residual max|H x - rhs| / max|rhs| of the two columns.

    Only H's upper triangle is read.  The factor is that of conj(H), so one
    ``zpotrs`` on the conjugated right-hand sides gives conj(X).  For a
    C-ordered H, H.T is the same memory in Fortran order, the matrix conj(H)
    with H's upper triangle as its lower one, so H X = conj(conj(H) conj(X))
    is one ``zhemm`` on that lower triangle, and nothing is copied.  H X runs
    on SciPy's BLAS, the one library that assembly (its ``zherk``) and the
    factorization use (see ``integrals._quad_blocks``).  With SciPy's
    OpenBLAS on two cores, at n = 306 one ``zhemm`` of both columns takes
    about 147 us against 188 us for two ``zhemv``, and one two-column
    ``zpotrs`` 243 us against 391 us for two one-column solves.
    """
    c, _ = _factor(gram.H)
    rhs = np.array([-gram.u, d], complex)
    # rows of a C-ordered 2 x n array are the columns of its n x 2 transpose
    xc = zpotrs(c, np.conj(rhs).T, lower=1, overwrite_b=1)[0]
    (xu, xd), (hu, hd) = np.conj(xc.T), np.conj(zhemm(1.0, gram.H.T, xc, lower=1).T)
    res = max(float(np.max(np.abs(hx - b))) / (float(np.max(np.abs(b))) or 1.0)
              for hx, b in zip((hu, hd), rhs))
    up = gram.c0 + 2.0 * np.vdot(xu, gram.u).real + np.vdot(xu, hu).real
    lo = 2.0 * np.vdot(xd, d).real - np.vdot(xd, hd).real
    return float(up), float(lo), res


def upper_bound(sys: GramSystem) -> float:
    """Least boundary energy of 1 + (span member); an upper bound for gamma."""
    return _objectives(sys.gram, sys.d)[0]


def lower_bound(sys: GramSystem) -> float:
    """Best dual objective over the span; a lower bound for gamma."""
    return _objectives(sys.gram, sys.d)[1]


def _bracket(gram: GramData, d: np.ndarray, settings: QuadratureSettings,
             t0: float) -> BoundsResult:
    """Both bounds from :func:`_objectives`; a crossing within the slack is
    clamped, a larger one is a :class:`SolveError`.  ``wall_time`` runs from
    ``t0``."""
    up, lo, res = _objectives(gram, d)
    slack = 10.0 * settings.abs_tol * len(d)
    if lo > up:
        if lo - up <= max(1e-10, slack) * max(1.0, abs(up)):
            lo = up
        else:
            raise SolveError(f"bounds crossed: lower {lo} > upper {up}")
    return BoundsResult(lower=lo, upper=up, n_basis=len(d), solve_residual=res,
                        wall_time=time.perf_counter() - t0, slack=slack)


def bounds_for_basis(sc: Scene, basis, settings: QuadratureSettings | None = None
                     ) -> BoundsResult:
    """Capacity bracket from an explicit basis-function list.

    Every pole must lie strictly inside a shape of the scene, every corner
    member's branch point must be a corner of that shape with the shape
    star-shaped about the pole, and every member must vanish at infinity;
    otherwise the bracket would not be a bracket, and this is a
    :class:`SceneConfigError`.
    """
    if settings is None:
        settings = QuadratureSettings()
    t0 = time.perf_counter()
    bs = basis if isinstance(basis, BasisSet) else BasisSet(basis)
    sc = validate_scene(sc)
    _require_poles_inside(sc, bs.funcs)
    return _bracket(assemble_gram(sc, bs, settings), bs.d_vector(), settings, t0)


def _require_poles_inside(sc: Scene, funcs) -> None:
    """Exact test that each member's pole is strictly inside a shape of sc and
    that a corner member's branch cut (a, c) stays in that shape: a is one of
    its corners and it is star-shaped about c, as under ``Powers``."""
    boundaries = [arcs(s) for s in sc.shapes]
    for b in funcs:
        pole = b.a if isinstance(b, SimplePole) else b.c
        i = next((i for i, pieces in enumerate(boundaries) if _winding_number(pieces, pole)),
                 None)
        if i is None:
            raise SceneConfigError(
                f"the pole of basis member {b!r} is not strictly inside a shape of the scene")
        if isinstance(b, CornerAdapted):
            pts = np.array([k.location for k in corners(sc.shapes[i])], complex)
            if _matching_corner(pts, b.a, max(1.0, abs(boundaries[i][0].start))) is None:
                raise SceneConfigError(f"the branch point of basis member {b!r} is not a "
                                       "corner of the shape that holds its pole")
            try:
                _require_star_shaped(sc.shapes[i], b.c)
            except SceneConfigError as exc:
                raise SceneConfigError(f"basis member {b!r}: {exc}") from None


def gamma_bounds(sc: Scene, schedule, settings: QuadratureSettings | None = None) -> BoundsResult:
    """Validate, build the scheduled basis, assemble, and solve both programs;
    ``wall_time`` covers all of it.  A schedule places its poles inside their
    shapes, so they are not checked again."""
    if settings is None:
        settings = QuadratureSettings()
    t0 = time.perf_counter()
    sc = validate_scene(sc)
    bs = BasisSet(build_basis(sc, schedule))
    return _bracket(assemble_gram(sc, bs, settings), bs.d_vector(), settings, t0)


def refine(sc: Scene, ladder, settings: QuadratureSettings | None = None) -> list[BoundsResult]:
    """Run a ladder of nested schedules; brackets tighten monotonically."""
    return [gamma_bounds(sc, sched, settings) for sched in ladder]
