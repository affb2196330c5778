"""Certified upper and lower bounds for analytic capacity.

Garabedian duality gives two quadratic programs over functions vanishing at
infinity, spanned by the basis ``g_1 .. g_n`` with Gram data (H, u, c0) and
derivative-at-infinity vector d:

* upper bound:  min over g in the span of  (1/2pi) \\oint |1 + g|^2 |dz|
                = c0 - <H^{-1} u, u>,
* lower bound:  max over h in the span of  2 Re h'(inf) - (1/2pi) \\oint |h|^2 |dz|
                = <H^{-1} d, d>,

where <x, y> = y^H x.  Both come from one Cholesky factorization of the
Gram, pivoted on members kept where the plain one fails (:func:`_objectives`,
which ``upper_bound`` and ``lower_bound`` also read), each evaluated as the
objective at its computed solution vector, so an inexact linear solve, or a
dropped member, can only loosen the bracket, never invalidate it.
So the bounds are exact duality for the computed Gram data.  Rounding and
quadrature error in that data are not budgeted yet, and a bound can lie on
the wrong side of gamma by them (ROADMAP items 2, 3 and 25, and its Known
defects).  The reported ``slack`` (10 * abs_tol * n_basis) is a fixed
allowance, not a derived bound: :func:`_bracket` clamps a crossing of the
two bounds within it and adds it to neither.

The solver reads only the upper triangle of H, so it takes the triangle
that assembly makes (``integrals._assemble_grams``) and the mirrored H of
``assemble_gram`` alike, with the same bits.  It factors the Gram where it
lies: H's strict lower triangle takes a copy of its upper one (transposed),
LAPACK overwrites the upper one and the diagonal with the factor, and the
products H x read the copy.  One loop (:func:`_brackets`) drives assembly
for ``gamma_bounds``, ``bounds_for_basis`` and ``sublab.ratio_bounds``: it
brackets each Gram, and so consumes it, before it asks for the next, which
for disks is assembled into the same memory, the one Gram that the assembly
call makes.  So a disk bracket's memory of size n^2, or a ratio record's,
is one Gram, and one scaled copy if the pivoted fallback is taken, and
none of it outlives the call.
``upper_bound`` and ``lower_bound`` factor a copy, so the caller's
``GramData`` is left as it was.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ._lapack import zhemm, zherk, zpotrf, zpotrs, zpstrf
from .basis import BasisSet, _require_poles_inside, build_basis
from .errors import SingularGramError, SolveError
from .geometry import Scene, validate_scene
# assemble_gram is not called here; bench/tracing.py swaps solver.assemble_gram
from .integrals import GramData, _assemble_grams, _mirror, assemble_gram  # noqa: F401
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


# pivots of the equilibrated Gram (unit diagonal) at most this are dropped
_RANK_TOL = 1e-15


def _factor(H: np.ndarray):
    """(factor, kept, scale, diag): a Cholesky factor of conj(D^-1 H D^-1) on
    the kept members, their index, D^-1 and H's real diagonal as it was.
    Only H's upper triangle is read; on return H's strict lower triangle
    holds the transpose of that as it was (``_mirror``).

    H is factored as assembled, in place, all kept and D = 1: Cholesky's
    success and backward error depend on H only through D^-1 H D^-1,
    D = diag(H)^(1/2) (Demmel, LAPACK Working Note 14, 1989; Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., sec. 10.1).
    If that fails, the basis is singular to working precision, and any
    coefficient vector gives valid bounds: H is restored, and a copy of
    A = D^-1 H D^-1 is factored by the pivoted ``zpstrf`` (Higham, "Analysis
    of the Cholesky decomposition of a semi-definite matrix", 1990), which
    stops at rank r once no pivot left exceeds ``_RANK_TOL``, or on an
    indefinite A.  For a semidefinite A, S = A22 - L21 L21^H is semidefinite
    with diagonal at most tol, so |S_ij| <= tol; L's rows have norm at most
    about 1, so the r steps and ``zherk``'s S each add at most gamma_(r+1)
    ~ (r + 1)u to an entry (sec. 10.1).  An entry of S beyond
    tol + 2(r + 1) eps (eps = 2u covers complex arithmetic) rejects the Gram.
    """
    diag = H.diagonal().real.copy()
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise SingularGramError("Gram diagonal not strictly positive")
    # for a C-ordered H, H.T is the same memory in Fortran order, conj(H)
    # with H's upper triangle as its lower one; it is factored in place as
    # conj(H) = L L^H, the conjugate of H's factor bit for bit, so a solve
    # with conjugated right-hand side and result gives H's solution.  LAPACK
    # writes only that triangle and the diagonal, so the mirror keeps H's
    # upper triangle, and a failed attempt is undone from it and from diag
    _mirror(H)
    c, info = zpotrf(H.T, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        return c, slice(None), np.ones(len(diag)), diag
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    _mirror(H.T)
    np.fill_diagonal(H, diag)
    s = 1.0 / np.sqrt(diag)
    c, piv, r, _ = zpstrf((H * s[:, None] * s).T, tol=_RANK_TOL, lower=1, overwrite_a=1)
    drop = piv[r:] - 1
    # the factored conj(H) is the array below its diagonal, its conjugate above
    U = H[np.ix_(drop, drop)] * s[drop, None] * s[drop]
    S = zherk(-1.0, c[r:, :r], beta=1.0, c=np.where(drop[:, None] > drop, U, U.conj()), lower=1)
    if (rem := np.abs(np.tril(S)).max(initial=0.0)) > _RANK_TOL + 2 * (r + 1) * np.finfo(float).eps:
        raise SingularGramError(
            f"Gram factorization failed ({info}-th leading minor of the array is not positive "
            f"definite) and the Gram is not semidefinite (Schur complement entry {rem:.3g})")
    return c[:r, :r], piv[:r] - 1, s, diag


def _objectives(gram: GramData, d: np.ndarray) -> tuple[float, float, float]:
    """(upper, lower, residual) from one factorization of the Gram: each
    objective at its own column of the solution of H X = [-u, d] on the
    kept members (0 on the others), and the larger relative residual
    max|H x - rhs| / max|rhs| of the two columns.

    Only H's upper triangle is read, and H is factored in place
    (:func:`_factor`), so it is consumed: its upper triangle becomes the
    factor.  The factor is that of conj(D^-1 H D^-1), so one ``zpotrs`` on
    the scaled conjugated right-hand sides gives conj(D X).  With H's
    diagonal restored, the upper triangle of H.T in Fortran order is the
    mirror, H's upper triangle as it was, so H X is one ``zhemm`` on that
    triangle, and nothing is copied.  H X runs on SciPy's BLAS, from the
    compiled wrappers of :mod:`anacap._lapack`, the one library that
    assembly (its ``zherk``) and the factorization use (see
    ``integrals._quad_blocks``); one ``zhemm`` of both columns, and one
    two-column ``zpotrs``, take less time than two one-column calls.
    """
    c, keep, s, diag = _factor(gram.H)
    rhs = np.array([-gram.u, d], complex)
    # rhs.T's columns are rhs's rows; X keeps zpotrs's Fortran order, bit for bit
    xc = np.zeros((len(d), 2), complex, order="F")
    xc[keep] = s[keep, None] * zpotrs(c, s[keep, None] * np.conj(rhs).T[keep], lower=1)[0]
    np.fill_diagonal(gram.H, diag)
    x = np.conj(xc)
    (xu, xd), (hu, hd) = x.T, zhemm(1.0, gram.H.T, x, lower=0).T
    res = max(float(np.max(np.abs(hx - b))) / (float(np.max(np.abs(b))) or 1.0)
              for hx, b in zip((hu, hd), rhs))
    up = gram.c0 + 2.0 * np.vdot(xu, gram.u).real + np.vdot(xu, hu).real
    lo = 2.0 * np.vdot(xd, d).real - np.vdot(xd, hd).real
    return float(up), float(lo), res


def upper_bound(sys: GramSystem) -> float:
    """Least boundary energy of 1 + (span member); an upper bound for gamma.
    A copy of the Gram is factored, so ``sys`` is left as it was."""
    return _objectives(replace(sys.gram, H=sys.gram.H.copy()), sys.d)[0]


def lower_bound(sys: GramSystem) -> float:
    """Best dual objective over the span; a lower bound for gamma.  A copy of
    the Gram is factored, so ``sys`` is left as it was."""
    return _objectives(replace(sys.gram, H=sys.gram.H.copy()), sys.d)[1]


def _bracket(gram: GramData, d: np.ndarray, settings: QuadratureSettings,
             t0: float) -> BoundsResult:
    """Both bounds from :func:`_objectives`, which consumes the Gram; a
    crossing within the slack is clamped, a larger one is a
    :class:`SolveError`.  ``wall_time`` runs from ``t0``."""
    up, lo, res = _objectives(gram, d)
    slack = 10.0 * settings.abs_tol * len(d)
    if lo > up:
        if lo - up <= max(1e-10, slack) * max(1.0, abs(up)):
            lo = up
        else:
            raise SolveError(f"bounds crossed: lower {lo} > upper {up}")
    return BoundsResult(lower=lo, upper=up, n_basis=len(d), solve_residual=res,
                        wall_time=time.perf_counter() - t0, slack=slack)


def _brackets(sc: Scene, bs: BasisSet, settings: QuadratureSettings, t0: float,
              split: tuple[int, int] | None = None) -> list[BoundsResult]:
    """Brackets of the Grams that ``integrals._assemble_grams`` hands out for
    the validated scene and basis under ``settings``, the scene's
    and, with ``split = (m, k)``, its two groups', each against its slice of
    d and bracketed, which consumes it, before the next is assembled into
    the same memory.  ``wall_time`` runs from ``t0``, then from the end of
    the bracket before, so it includes the group's own disk kernel."""
    d = bs.d_vector()
    ds = [d] if split is None else [d, d[:split[1]], d[split[1]:]]
    out = []
    for gram, dg in zip(_assemble_grams(sc, bs, settings, split), ds):
        out.append(_bracket(gram, dg, settings, t0))
        t0 = time.perf_counter()
    return out


def bounds_for_basis(sc: Scene, basis, settings: QuadratureSettings = QuadratureSettings()
                     ) -> BoundsResult:
    """Capacity bracket from an explicit basis-function list.

    Every pole must lie strictly inside a shape of the scene, every corner
    member's branch point must be a corner of that shape with the shape
    star-shaped about the pole, and every member must vanish at infinity
    with an integer k and finite fields (:class:`BasisSet`); otherwise the
    bracket would not be a bracket, and this is a :class:`SceneConfigError`.
    """
    t0 = time.perf_counter()
    bs = basis if isinstance(basis, BasisSet) else BasisSet(basis)
    sc = validate_scene(sc)
    _require_poles_inside(sc, bs.funcs)
    return _brackets(sc, bs, settings, t0)[0]


def gamma_bounds(sc: Scene, schedule,
                 settings: QuadratureSettings = QuadratureSettings()) -> BoundsResult:
    """Validate, build the scheduled basis, assemble, and solve both programs;
    ``wall_time`` covers all of it.  A schedule places its poles inside their
    shapes, so they are not checked again."""
    t0 = time.perf_counter()
    sc = validate_scene(sc)
    return _brackets(sc, BasisSet(build_basis(sc, schedule)), settings, t0)[0]
