"""Certified upper and lower bounds for analytic capacity.

Garabedian duality gives two quadratic programs over functions vanishing at
infinity, spanned by the basis ``g_1 .. g_n`` with Gram data (H, u, c0) and
derivative-at-infinity vector d:

* upper bound:  min over g in the span of  (1/2pi) \\oint |1 + g|^2 |dz|
                = c0 - <H^{-1} u, u>,
* lower bound:  max over h in the span of  2 Re h'(inf) - (1/2pi) \\oint |h|^2 |dz|
                = <H^{-1} d, d>,

where <x, y> = y^H x.  Both optima are evaluated as the objective at the
computed solution vector, so an inexact linear solve can only loosen the
bracket, never invalidate it.  The bounds are rigorous up to quadrature
error; the reported ``slack`` (10 * abs_tol * n_basis) budgets for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgemv

from .basis import BasisSet, SimplePole, build_basis
from .errors import SceneConfigError, SingularGramError, SolveError
from .geometry import Scene, point_in_shape, validate_scene
from .integrals import GramData, assemble_gram
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


def _hmul(H: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H @ x on SciPy's BLAS, the one library that assembly and the
    factorization use (see ``integrals._quad_block``); for a C-ordered H,
    H.T is the same memory in Fortran order, so nothing is copied."""
    return zgemv(1.0, H.T, x, trans=1)


class _Factorization:
    """Cholesky of H after symmetric diagonal equilibration.

    For large bases the equilibrated matrix can be singular to working
    precision although positive definite in exact arithmetic; a bounded
    ladder of diagonal jitters recovers a usable factorization.  Bound
    validity is unaffected: the objectives are evaluated at the computed
    point with the true H, and any point yields a valid bound.
    """

    _JITTERS = (0.0, 4e-15, 1e-13, 1e-11, 1e-9)

    def __init__(self, H: np.ndarray):
        diag = np.ascontiguousarray(H.diagonal().real)
        if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
            raise SingularGramError("Gram diagonal not strictly positive")
        self.s = 1.0 / np.sqrt(diag)
        n = len(diag)
        # LAPACK takes the equilibrated A[j, k] = (H[j, k] s_j) s_k in Fortran
        # order, i.e. as the C-ordered buffer B = A^T.  H is Hermitian, so
        # B[k, j] = (conj(H[k, j]) s_j) s_k: contiguous passes over conj(H)
        # fill B with the same numbers, and it is factored in place.  A failed
        # attempt overwrites it, so each step of the ladder rebuilds it.
        buf = np.empty((n, n), complex)
        err = None
        for jit in self._JITTERS:
            np.conjugate(H, out=buf)
            buf *= self.s[None, :]
            buf *= self.s[:, None]
            if jit:
                buf.ravel()[:: n + 1] += jit
            try:
                self.cf = scipy.linalg.cho_factor(buf.T, lower=True, overwrite_a=True,
                                                  check_finite=False)
                self.jitter = jit
                break
            except scipy.linalg.LinAlgError as exc:
                err = exc
        else:
            raise SingularGramError(
                f"Gram factorization failed ({err}); the basis is numerically "
                "dependent -- use a smaller schedule") from err
        self.H = H

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        y = scipy.linalg.cho_solve(self.cf, rhs * self.s, check_finite=False)
        x = y * self.s
        norm = float(np.max(np.abs(rhs))) or 1.0
        residual = float(np.max(np.abs(_hmul(self.H, x) - rhs))) / norm
        return x, residual


def upper_bound(sys: GramSystem) -> float:
    """Least boundary energy of 1 + (span member); an upper bound for gamma."""
    return _upper(_Factorization(sys.gram.H), sys.gram)[0]


def lower_bound(sys: GramSystem) -> float:
    """Best dual objective over the span; a lower bound for gamma."""
    return _lower(_Factorization(sys.gram.H), sys.gram, sys.d)[0]


def _upper(fact: _Factorization, gram: GramData) -> tuple[float, float]:
    u = gram.u
    x, res = fact.solve(-u)
    # objective evaluated at x stays a valid upper bound under solve error
    val = gram.c0 + 2.0 * np.vdot(x, u).real + np.vdot(x, _hmul(fact.H, x)).real
    return float(val), res


def _lower(fact: _Factorization, gram: GramData, d: np.ndarray) -> tuple[float, float]:
    x, res = fact.solve(d.astype(complex))
    val = 2.0 * np.vdot(x, d).real - np.vdot(x, _hmul(fact.H, x)).real
    return float(val), res


def _bracket(gram: GramData, d: np.ndarray, settings: QuadratureSettings,
             t0: float) -> BoundsResult:
    """Both bounds from one factorization of the Gram; a crossing within the
    slack is clamped, a larger one is a :class:`SolveError`.  ``wall_time``
    runs from ``t0``."""
    fact = _Factorization(gram.H)
    up, res_u = _upper(fact, gram)
    lo, res_l = _lower(fact, gram, d)
    slack = 10.0 * settings.abs_tol * len(d)
    if lo > up:
        if lo - up <= max(1e-10, slack) * max(1.0, abs(up)):
            lo = up
        else:
            raise SolveError(f"bounds crossed: lower {lo} > upper {up}")
    return BoundsResult(lower=lo, upper=up, n_basis=len(d),
                        solve_residual=max(res_u, res_l),
                        wall_time=time.perf_counter() - t0, slack=slack)


def bounds_for_basis(sc: Scene, basis, settings: QuadratureSettings | None = None,
                     *, _validated: bool = False) -> BoundsResult:
    """Capacity bracket from an explicit basis-function list.

    Every pole must lie strictly inside a shape of the scene, and every
    member must vanish at infinity; otherwise the bracket would not be a
    bracket, and this is a :class:`SceneConfigError`.  ``_validated`` says
    that the scene is validated and the basis comes from a schedule, which
    places its poles inside their shapes, so neither is checked again.
    """
    if settings is None:
        settings = QuadratureSettings()
    t0 = time.perf_counter()
    bs = basis if isinstance(basis, BasisSet) else BasisSet(basis)
    if not _validated:
        sc = validate_scene(sc)
        _require_poles_inside(sc, bs.funcs)
    return _bracket(assemble_gram(sc, bs, settings), bs.d_vector(), settings, t0)


def _require_poles_inside(sc: Scene, funcs) -> None:
    """Exact test that each member's pole is strictly inside a shape of sc."""
    for b in funcs:
        pole = b.a if isinstance(b, SimplePole) else b.c
        if not any(point_in_shape(s, pole) for s in sc.shapes):
            raise SceneConfigError(
                f"the pole of basis member {b!r} is not strictly inside a shape of the scene")


def gamma_bounds(sc: Scene, schedule, settings: QuadratureSettings | None = None) -> BoundsResult:
    """Validate, build the scheduled basis, assemble, and solve both programs."""
    sc = validate_scene(sc)
    basis = build_basis(sc, schedule)
    return bounds_for_basis(sc, basis, settings, _validated=True)


def refine(sc: Scene, ladder, settings: QuadratureSettings | None = None) -> list[BoundsResult]:
    """Run a ladder of nested schedules; brackets tighten monotonically."""
    return [gamma_bounds(sc, sched, settings) for sched in ladder]
