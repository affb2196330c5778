"""Discrete analytic capacity of equal-radius disk configurations.

For centers Z = (z_1 .. z_n) and radius r, with C the Cauchy matrix
(c_jk = 1/(z_j - z_k) off the diagonal) and D = r*I, the discrete capacity is

    lambda(Z, r) = < (D^{-1} + C D C^H)^{-1} 1, 1 >,

which sandwiches the true capacity gamma(Z, r) of the disk union between
gamma/(1 + 4N) and (1 + 2M)*gamma whenever the doubled disks are disjoint.
The quadratic forms

    alpha = < C C^H 1, 1 >,    beta = < (C C^H)^2 1, 1 >

control the polynomial bracket n r - alpha r^3 <= lambda <= n r - alpha r^3
+ beta r^5 and the small-r ratio expansion R = 1 - (delta/n) r^2 + O(r^3)
with delta = alpha(Z) - alpha(Z') - alpha(Z'') > 0.  alpha also has a purely
geometric expression: the inverse-square pair distances plus the inverse
squares of circumscribed-circle radii over all triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import zpocon, zposv
from .errors import (
    DuplicateCenterError,
    PreconditionError,
    SolveError,
    SplitError,
)

_IMAG_TOL = 1e-12
# least reciprocal condition estimate of a discrete capacity solve
_RCOND_MIN = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class DiskConfiguration:
    """Equal-radius disk centers with an optional split into a leading block
    Z' = Z[:m] and trailing block Z'' = Z[m:]."""

    centers: tuple[complex, ...]
    radius: float
    m: int | None = None

    def __post_init__(self):
        if not self.centers:
            raise DuplicateCenterError("need at least one center")
        _check_radius(self.radius)
        if self.m is not None:
            _check_split(self.m, len(self.centers))

    def min_center_distance(self) -> float:
        return float(_pair_distances(np.asarray(self.centers, complex)).min())


@dataclass(frozen=True)
class DiscreteReport:
    lam: float
    M: float
    N: float
    alpha: float
    beta: float
    delta: float | None
    poly_lower: float
    poly_upper: float

    def to_json_dict(self) -> dict:
        out = {"lambda": self.lam, "M": self.M, "N": self.N, "alpha": self.alpha,
               "beta": self.beta, "poly_lower": self.poly_lower,
               "poly_upper": self.poly_upper}
        if self.delta is not None:
            out["delta"] = self.delta
        return out


def _pair_distances(z: np.ndarray) -> np.ndarray:
    """|z_j - z_k| for all pairs, with an infinite diagonal."""
    d = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(d, np.inf)
    return d


def _check_radius(r: float) -> None:
    if not (math.isfinite(r) and r > 0):
        raise PreconditionError(f"radius must be finite and positive, got {r}")


def _check_split(m, n: int) -> None:
    """A split of n centers is an integer m with 1 <= m <= n - 1; a float or
    a bool is no split index."""
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= n - 1:
        raise SplitError(f"split m={m} invalid for n={n}")


def _centers_array(Z) -> np.ndarray:
    z = np.asarray(list(Z), complex)
    if not z.size:
        raise DuplicateCenterError("need at least one center")
    if _pair_distances(z).min() == 0.0:
        raise DuplicateCenterError("coincident centers")
    return z


def cauchy_matrix(Z) -> np.ndarray:
    """C with c_jk = 1/(z_j - z_k) for j != k and zero diagonal."""
    z = _centers_array(Z)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    C = 1.0 / diff
    np.fill_diagonal(C, 0.0)
    return C


def lambda_discrete(Z, r: float) -> float:
    """lambda(Z, r) via the Hermitian positive-definite matrix form.

    A = (1/r) I + r C C^H is solved by Cholesky (``zposv``); a failed
    factorization, or a reciprocal condition estimate (``zpocon``, from the
    factor and A's 1-norm) below sqrt(eps), is a :class:`SolveError`, since
    lambda's relative error grows as eps over that estimate.  With C
    singular (an odd number of centers) it falls as 1/r^2: about 4e-5 at
    r = 100 for the centers 0, 1 and 2i, and below sqrt(eps) from r = 1e4.
    """
    _check_radius(r)
    C = cauchy_matrix(Z)
    n = C.shape[0]
    A = (1.0 / r) * np.eye(n) + r * (C @ C.conj().T)
    ones = np.ones(n, complex)
    c, x, info = zposv(A, ones)
    if info > 0:
        raise SolveError(f"discrete capacity solve failed: the leading minor of order "
                         f"{info} is not positive definite")
    rcond = zpocon(c, np.abs(A).sum(axis=0).max())[0]
    if rcond < _RCOND_MIN:
        raise SolveError(f"discrete capacity solve failed: the reciprocal condition "
                         f"estimate {rcond:.3g} is below sqrt(eps)")
    val = np.vdot(ones, x)
    if abs(val.imag) > _IMAG_TOL * max(1.0, abs(val.real)):
        raise SolveError(f"lambda has non-negligible imaginary part {val.imag}")
    return float(val.real)


def melnikov_M(Z, r: float) -> float:
    """M = r^4 sum_k sum_{j != k} |z_k - z_j|^{-4}."""
    _check_radius(r)
    d = _pair_distances(_centers_array(Z))
    return float(r ** 4 * np.sum(d ** -4.0))


def melnikov_N(Z, r: float) -> float:
    """N = r (sum |z_k - z_j|^{-2})^{1/2} M^{1/2}."""
    _check_radius(r)
    z = _centers_array(Z)
    s2 = float(np.sum(_pair_distances(z) ** -2.0))
    return r * math.sqrt(s2) * math.sqrt(melnikov_M(z, r))


def alpha(Z) -> float:
    """alpha = <C C^H 1, 1> = |C^H 1|^2 (real and non-negative)."""
    C = cauchy_matrix(Z)
    v = C.conj().T @ np.ones(C.shape[0], complex)
    return float(np.vdot(v, v).real)


def beta(Z) -> float:
    """beta = <(C C^H)^2 1, 1> = |C C^H 1|^2."""
    C = cauchy_matrix(Z)
    w = C @ (C.conj().T @ np.ones(C.shape[0], complex))
    return float(np.vdot(w, w).real)


def alpha_geometric(Z) -> float:
    """alpha as pair distances plus circumradius terms:

        alpha = sum_{j != l} |z_j - z_l|^{-2} + sum_{j<k<l} R(z_j,z_k,z_l)^{-2},

    with R the circumscribed-circle radius, infinite for collinear triples.
    """
    z = _centers_array(Z)
    n = len(z)
    d = _pair_distances(z)
    total = float(np.sum(d ** -2.0))
    diam = float(np.max(np.where(np.isfinite(d), d, 0.0))) or 1.0
    area_floor = 1e-14 * diam * diam
    for j in range(n):
        for k in range(j + 1, n):
            for l in range(k + 1, n):
                a = abs(z[k] - z[j])
                b = abs(z[l] - z[j])
                c = abs(z[l] - z[k])
                S = 0.5 * abs(((z[k] - z[j]).conjugate() * (z[l] - z[j])).imag)
                if S < area_floor:
                    continue  # collinear: R = infinity
                total += (4.0 * S / (a * b * c)) ** 2  # = 1/R^2 with R = abc/(4S)
    return total


def delta(Z, m: int) -> float:
    """delta = alpha(Z) - alpha(Z[:m]) - alpha(Z[m:]); strictly positive."""
    Z = list(Z)
    _check_split(m, len(Z))
    val = alpha(Z) - alpha(Z[:m]) - alpha(Z[m:])
    if val <= 0:
        raise SolveError(f"delta must be positive, got {val}")
    return val


def lambda_poly_bounds(Z, r: float) -> tuple[float, float]:
    """(n r - alpha r^3,  n r - alpha r^3 + beta r^5)."""
    _check_radius(r)
    z = _centers_array(Z)
    lo = z.size * r - alpha(z) * r ** 3
    return lo, lo + beta(z) * r ** 5


def predicted_slope(Z, m: int) -> float:
    """The coefficient delta/n in R(Z, r, m) = 1 - (delta/n) r^2 + O(r^3)."""
    z = _centers_array(Z)
    return delta(z, m) / z.size


def sandwich_check(Z, r: float, gamma_lower: float, gamma_upper: float,
                   slack: float = 0.0) -> bool:
    """Check gamma/(1+4N) <= lambda <= (1+2M) gamma against a certified
    bracket [gamma_lower, gamma_upper]; requires 4r-separated centers."""
    _check_radius(r)
    z = _centers_array(Z)
    d = _pair_distances(z)
    if d.min() <= 4.0 * r:
        raise PreconditionError(
            f"doubled disks overlap: min center distance {d.min()} <= 4r = {4 * r}")
    lam = lambda_discrete(z, r)
    M = melnikov_M(z, r)
    N = melnikov_N(z, r)
    return (gamma_lower / (1.0 + 4.0 * N) <= lam + slack
            and lam <= (1.0 + 2.0 * M) * gamma_upper + slack)


def discrete_report(cfg: DiskConfiguration) -> DiscreteReport:
    Z, r = cfg.centers, cfg.radius
    lo, hi = lambda_poly_bounds(Z, r)
    return DiscreteReport(
        lam=lambda_discrete(Z, r),
        M=melnikov_M(Z, r),
        N=melnikov_N(Z, r),
        alpha=alpha(Z),
        beta=beta(Z),
        delta=delta(Z, cfg.m) if cfg.m is not None else None,
        poly_lower=lo,
        poly_upper=hi,
    )
