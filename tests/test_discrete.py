import math

import mpmath as mp
import numpy as np
import pytest

from anacap import discrete
from anacap.discrete import (
    DiskConfiguration,
    alpha,
    alpha_geometric,
    beta,
    cauchy_matrix,
    delta,
    discrete_report,
    lambda_discrete,
    lambda_poly_bounds,
    melnikov_M,
    melnikov_N,
    predicted_slope,
    sandwich_check,
)
from anacap.errors import DuplicateCenterError, PreconditionError, SolveError, SplitError
from anacap.basis import Rings
from anacap.geometry import Disk, scene
from anacap.solver import gamma_bounds
from conftest import random_points, same_bits


def two_disk_lambda(c, r):
    return 2 * r / (1 + r * r / (4 * c * c))


# --- Cauchy matrix ----------------------------------------------------------

def test_cauchy_singleton():
    assert np.array_equal(cauchy_matrix([1 + 2j]), np.zeros((1, 1)))


def test_cauchy_two_points():
    C = cauchy_matrix([1, -1])
    assert np.allclose(C, [[0, 0.5], [-0.5, 0]])


def test_cauchy_elementwise(rng):
    Z = [0, 1, 1j]
    C = cauchy_matrix(Z)
    for j in range(3):
        for k in range(3):
            expect = 0 if j == k else 1 / (Z[j] - Z[k])
            assert C[j, k] == pytest.approx(expect, abs=1e-15)


def test_cauchy_duplicate_rejected():
    with pytest.raises(DuplicateCenterError):
        cauchy_matrix([1, 1])


def test_empty_disk_configuration_rejected():
    with pytest.raises(DuplicateCenterError, match="at least one center"):
        DiskConfiguration((), 1.0)


@pytest.mark.parametrize("call", [
    cauchy_matrix, alpha, beta, alpha_geometric,
    lambda Z: lambda_discrete(Z, 0.5),
    lambda Z: melnikov_M(Z, 0.5),
    lambda Z: melnikov_N(Z, 0.5),
    lambda Z: lambda_poly_bounds(Z, 0.5),
    lambda Z: sandwich_check(Z, 0.5, 0.1, 0.2),
], ids=["cauchy_matrix", "alpha", "beta", "alpha_geometric", "lambda_discrete",
        "melnikov_M", "melnikov_N", "lambda_poly_bounds", "sandwich_check"])
def test_empty_configuration_rejected(call):
    # no centers must not pass for one center (lambda = r, a 1 x 1 zero C)
    with pytest.raises(DuplicateCenterError, match="at least one center"):
        call([])


@pytest.mark.parametrize("call", [
    cauchy_matrix, alpha, beta, alpha_geometric,
    lambda Z: lambda_discrete(Z, 0.1),
    lambda Z: melnikov_M(Z, 0.1),
    lambda Z: melnikov_N(Z, 0.1),
    lambda Z: lambda_poly_bounds(Z, 0.1),
    lambda Z: delta(Z, 1),
    lambda Z: predicted_slope(Z, 1),
    lambda Z: sandwich_check(Z, 0.1, 0.2, 0.3),
], ids=["cauchy_matrix", "alpha", "beta", "alpha_geometric", "lambda_discrete",
        "melnikov_M", "melnikov_N", "lambda_poly_bounds", "delta", "predicted_slope",
        "sandwich_check"])
def test_iterator_and_list_give_equal_values(call):
    # each function reads Z once: a second read of an iterator sees no centers
    Z = [0j, 2 + 0j, 5j]
    assert np.array_equal(call(iter(Z)), call(Z))


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda r: DiskConfiguration((0j, 2 + 0j), r),
    lambda r: lambda_discrete([0j, 2 + 0j], r),
    lambda r: melnikov_M([0j, 2 + 0j], r),
    lambda r: melnikov_N([0j, 2 + 0j], r),
    lambda r: lambda_poly_bounds([0j, 2 + 0j], r),
    lambda r: sandwich_check([0j, 5 + 0j], r, 0.1, 0.2),
], ids=["DiskConfiguration", "lambda_discrete", "melnikov_M", "melnikov_N",
        "lambda_poly_bounds", "sandwich_check"])
def test_radius_not_finite_and_positive_rejected(call, r):
    # inf gave lambda 0.0, -1 gave M = 0.125 and crossed polynomial bounds
    with pytest.raises(PreconditionError, match="finite and positive"):
        call(r)


# --- discrete capacity ------------------------------------------------------

def test_lambda_single_point():
    assert lambda_discrete([3 + 4j], 0.7) == pytest.approx(0.7, abs=1e-14)


def test_lambda_two_points_closed_form(rng):
    for _ in range(10):
        c = rng.uniform(0.5, 5)
        r = rng.uniform(0.05, 2.0)
        assert lambda_discrete([c, -c], r) == pytest.approx(
            two_disk_lambda(c, r), abs=1e-12)


def test_lambda_sup_form_oracle(rng):
    # lambda is the sup of |sum a_j|^2 over the quadratic-form unit ball;
    # random feasible points never beat it, and the solver's maximizer
    # attains it
    Z = [1.5, -1.5]
    r = 0.4
    C = cauchy_matrix(Z)
    A = (1 / r) * np.eye(2) + r * (C @ C.conj().T)
    lam = lambda_discrete(Z, r)
    best = 0.0
    for _ in range(4000):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        quad = np.vdot(a, A @ a).real
        best = max(best, abs(np.sum(a)) ** 2 / quad)
    assert best <= lam + 1e-9
    a_star = np.linalg.solve(A, np.ones(2))
    attained = abs(np.sum(a_star)) ** 2 / np.vdot(a_star, A @ a_star).real
    assert attained == pytest.approx(lam, rel=1e-12, abs=0)


def test_lambda_solve_has_the_bits_of_scipy_positive_definite_solve(monkeypatch):
    # zposv gives the solution vector of scipy.linalg.solve(assume_a="pos") bit for bit
    from scipy.linalg import solve

    solutions, zposv = [], discrete.zposv

    def recorded(*args):
        out = zposv(*args)
        solutions.append(out[1])
        return out

    monkeypatch.setattr(discrete, "zposv", recorded)
    for seed in range(40):
        Z = random_points(np.random.default_rng(seed), 3 + seed % 16)
        C = cauchy_matrix(Z)
        ones = np.ones(len(Z), complex)
        for r in (0.05, 0.2, 0.8):
            A = (1.0 / r) * np.eye(len(Z)) + r * (C @ C.conj().T)
            want = solve(A, ones, assume_a="pos", check_finite=False)
            assert lambda_discrete(Z, r) == float(np.vdot(ones, want).real)
            assert same_bits(solutions.pop(), want)


def test_lambda_solve_failure_is_a_solve_error():
    # an odd number of centers makes C singular, so at r = 1e12 the matrix
    # 1/r I + r C C^H is positive definite only in exact arithmetic
    with pytest.raises(SolveError, match="discrete capacity solve failed"):
        lambda_discrete([0j, 1 + 0j, 2j], 1e12)


def test_lambda_at_a_large_radius_against_mpmath():
    # the same singular C at r = 100: the condition number of A is about
    # 2.6e4, and lambda keeps every digit but the last two
    Z = [0j, 1 + 0j, 2j]
    with mp.workdps(60):
        r = mp.mpf(100)
        C = mp.matrix([[0 if j == k else 1 / (mp.mpc(a) - mp.mpc(b)) for k, b in enumerate(Z)]
                       for j, a in enumerate(Z)])
        x = mp.lu_solve(mp.eye(3) / r + r * C * C.H, mp.matrix([1, 1, 1]))
        want = float(mp.re(sum(x)))
    assert lambda_discrete(Z, 100.0) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("r", [1e6, 1e8, 1e14])
def test_lambda_ill_conditioned_solve_is_a_solve_error(r):
    # the factorization succeeds, but A's reciprocal condition estimate is
    # 3.9e-13 at r = 1e6 and 2e-17 at 1e8, where lambda came out as 4.4824e5
    # (relative error 9e-5) and 8.72e7 (against 4.48e7); at 1e14 as 83.2
    with pytest.raises(SolveError, match="reciprocal condition estimate"):
        lambda_discrete([0j, 1 + 0j, 2j], r)


def test_lambda_monotone_in_radius():
    Z = [0, 3, 7 + 2j]
    vals = [lambda_discrete(Z, r) for r in np.linspace(0.05, 1.2, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# --- M and N ----------------------------------------------------------------

def test_melnikov_singleton():
    assert melnikov_M([0j], 1.0) == 0.0
    assert melnikov_N([0j], 1.0) == 0.0


def test_melnikov_two_points():
    assert melnikov_M([2, -2], 1.0) == pytest.approx(2 / 256, abs=1e-16)
    expect_N = 1.0 * math.sqrt(2 / 16) * math.sqrt(2 / 256)
    assert melnikov_N([2, -2], 1.0) == pytest.approx(expect_N, abs=1e-16)


def test_melnikov_scale_invariance(rng):
    Z = random_points(rng, 4)
    r = 0.2
    for s in (0.5, 3.0):
        assert melnikov_M([s * z for z in Z], s * r) == pytest.approx(
            melnikov_M(Z, r), rel=1e-12, abs=0)


# --- alpha, beta, delta -----------------------------------------------------

def test_alpha_two_points():
    for d in (1.0, 2.5, 7.0):
        assert alpha([0, d]) == pytest.approx(2 / d ** 2, rel=1e-14, abs=0)


def test_alpha_equilateral():
    s = 1.7
    w = s * np.exp(2j * np.pi * np.arange(3) / 3)
    assert alpha(list(w * 1j)) == pytest.approx(9 / (abs(w[1] - w[0])) ** 2, rel=1e-12, abs=0)


def test_alpha_singleton():
    assert alpha([0j]) == 0.0
    assert beta([0j]) == 0.0


def test_alpha_geometric_collinear():
    # pairs only: 2*(1 + 1 + 1/4)
    assert alpha_geometric([0, 1, 2]) == pytest.approx(4.5, rel=1e-14, abs=0)
    assert alpha([0, 1, 2]) == pytest.approx(4.5, rel=1e-12, abs=0)


def test_alpha_geometric_equilateral():
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    s = abs(w[1] - w[0])
    # circumradius s/sqrt(3) contributes 3/s^2 beyond the 6/s^2 pair sum
    assert alpha_geometric(list(w)) == pytest.approx(9 / s ** 2, rel=1e-12, abs=0)


def test_alpha_identity_randomized(rng):
    for _ in range(30):
        n = int(rng.integers(2, 13))
        Z = random_points(rng, n, box=5.0, min_sep=0.3)
        a1 = alpha(Z)
        a2 = alpha_geometric(Z)
        assert a2 == pytest.approx(a1, rel=1e-10, abs=0)


def test_delta_examples():
    assert delta([2, -2], 1) == pytest.approx(2 / 16, rel=1e-13, abs=0)
    w = list(np.exp(2j * np.pi * np.arange(3) / 3))
    s = abs(w[1] - w[0])
    assert delta(w, 1) == pytest.approx(9 / s ** 2 - 2 / s ** 2, rel=1e-12, abs=0)


def test_delta_equals_alpha_for_pairs(rng):
    Z = random_points(rng, 2)
    assert delta(Z, 1) == pytest.approx(alpha(Z), rel=1e-14, abs=0)


def test_delta_positive_randomized(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        Z = random_points(rng, n, box=5.0, min_sep=0.3)
        m = int(rng.integers(1, n))
        assert delta(Z, m) > 0


def test_split_errors():
    with pytest.raises(SplitError):
        delta([0, 1], 2)
    with pytest.raises(SplitError):
        delta([0, 1], 0)
    with pytest.raises(SplitError):
        DiskConfiguration((0j, 1 + 0j), 0.1, m=5)
    # a float or a bool is no split index, though it compares within range
    with pytest.raises(SplitError):
        DiskConfiguration((0j, 1 + 0j, 2 + 0j), 0.1, m=2.0)
    with pytest.raises(SplitError):
        DiskConfiguration((0j, 1 + 0j), 0.1, m=True)
    with pytest.raises(SplitError):
        delta([0, 1, 2], 1.0)


# --- polynomial bracket -----------------------------------------------------

def test_poly_bounds_singleton():
    lo, hi = lambda_poly_bounds([5j], 0.8)
    assert lo == hi == pytest.approx(0.8)
    assert lambda_discrete([5j], 0.8) == pytest.approx(0.8)


def test_poly_bounds_two_points():
    Z, r = [2, -2], 0.5
    lo, hi = lambda_poly_bounds(Z, r)
    lam = two_disk_lambda(2, r)
    assert lo <= lam <= hi


def test_poly_bounds_randomized(rng):
    for _ in range(100):
        n = int(rng.integers(1, 7))
        Z = random_points(rng, n, box=4.0, min_sep=1.0)
        r = float(rng.uniform(0.01, 0.2))
        lo, hi = lambda_poly_bounds(Z, r)
        lam = lambda_discrete(Z, r)
        assert lo - 1e-12 <= lam <= hi + 1e-12


# --- predicted slope --------------------------------------------------------

def test_predicted_slope_reference_pair():
    assert predicted_slope([2, -2], 1) == pytest.approx(1 / 16, rel=1e-13, abs=0)


def test_predicted_slope_scaling(rng):
    Z = random_points(rng, 4)
    m = 2
    for s in (0.5, 2.0):
        assert predicted_slope([s * z for z in Z], m) == pytest.approx(
            predicted_slope(Z, m) / s ** 2, rel=1e-12, abs=0)


def test_slope_matches_exact_ratio_expansion():
    # 1 - f(q(r)) ~ (1/16) r^2 for the +-2 pair at small radius
    from anacap.exact import nome_from_geometry, ratio_f

    r = 1e-3
    lhs = (1 - ratio_f(nome_from_geometry(2, r))) / r ** 2
    assert lhs == pytest.approx(1 / 16, rel=1e-4, abs=0)


# --- sandwich ---------------------------------------------------------------

def test_sandwich_two_disks():
    Z, r = (2, -2), 0.4
    gb = gamma_bounds(scene([Disk(z, r) for z in Z]), Rings(3))
    assert sandwich_check(Z, r, gb.lower, gb.upper, slack=gb.slack)


def test_sandwich_singleton_equality():
    # lambda = gamma = r for one disk, up to the reciprocal rounding in the
    # 1x1 solve
    r = 0.9
    assert sandwich_check([0j], r, r, r, slack=1e-12)


def test_sandwich_precondition():
    with pytest.raises(PreconditionError):
        sandwich_check([0, 1], 0.3, 0.1, 0.2)  # centers 1 apart, 4r = 1.2


def test_sandwich_randomized(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        Z = random_points(rng, n, box=4.0, min_sep=1.5)
        r = 0.3
        gb = gamma_bounds(scene([Disk(z, r) for z in Z]), Rings(3))
        assert sandwich_check(Z, r, gb.lower, gb.upper, slack=gb.slack)


# --- report -----------------------------------------------------------------

def test_discrete_report_fields():
    rep = discrete_report(DiskConfiguration((2, -2), 0.5, m=1))
    obj = rep.to_json_dict()
    assert obj["delta"] == pytest.approx(0.125)
    assert obj["lambda"] == pytest.approx(two_disk_lambda(2, 0.5), abs=1e-12)
    assert obj["poly_lower"] <= obj["lambda"] <= obj["poly_upper"]
    rep2 = discrete_report(DiskConfiguration((2, -2), 0.5))
    assert "delta" not in rep2.to_json_dict()


def test_configuration_validation():
    with pytest.raises(PreconditionError):
        DiskConfiguration((0j,), -1.0)
    cfg = DiskConfiguration((0, 4, 8), 1.0)
    assert cfg.min_center_distance() == pytest.approx(4.0)


def test_b_matrix_identity_random(rng):
    # B with b_jk = sum_{m != j,k} r/((z_j - z_m) conj(z_k - z_m)) is never
    # formed directly in the solver; check it equals C D_r C^H on random
    # 4-point configurations
    for _ in range(10):
        Z = random_points(rng, 4, box=3.0, min_sep=0.4)
        r = float(rng.uniform(0.05, 0.5))
        C = cauchy_matrix(Z)
        B = C @ (r * np.eye(4)) @ C.conj().T
        direct = np.zeros((4, 4), complex)
        for j in range(4):
            for k in range(4):
                for m in range(4):
                    if m != j and m != k:
                        direct[j, k] += r / ((Z[j] - Z[m]) * np.conj(Z[k] - Z[m]))
        assert np.allclose(B, direct, atol=1e-13)
