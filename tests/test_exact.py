import math

import mpmath as mp
import numpy as np
import pytest

from anacap.errors import DomainError
from anacap.exact import (
    GAMMA_QUARTER,
    log_deriv_u,
    log_deriv_u_upper,
    murai_capacity,
    nome_from_geometry,
    ratio_f,
    square_capacity,
    theta2,
    theta3,
    theta4,
    two_disk_capacity,
)

Q21 = 7 - 4 * math.sqrt(3)  # the nome of the (c, r) = (2, 1) configuration
TWO_DISK_GAMMA = 1.8755950190971197289


# --- theta functions --------------------------------------------------------

def test_theta3_small_q_leading_terms():
    q = 1e-4
    assert theta3(q) == pytest.approx(1 + 2 * q + 2 * q ** 4, abs=1e-15)
    assert theta3(1e-20) == pytest.approx(1.0, abs=1e-19)


def test_theta2_reproduces_two_disk_value():
    gamma = math.sqrt(3) * theta2(Q21) ** 2
    assert gamma == pytest.approx(TWO_DISK_GAMMA, abs=1e-14)


def test_modular_fixed_point():
    q = math.exp(-math.pi)
    assert theta2(q) == pytest.approx(theta4(q), abs=1e-14)


@pytest.mark.parametrize("x", np.linspace(0.5, 20.0, 40).tolist())
def test_modular_identity(x):
    lhs = theta2(math.exp(-math.pi / x))
    rhs = math.sqrt(x) * theta4(math.exp(-math.pi * x))
    assert lhs == pytest.approx(rhs, abs=1e-12)


# relative errors of (theta2, theta3, theta4) measured against 120-digit
# mpmath, the same up to q = 0.3; at 0.9 and 0.99 theta4 is on its modular
# side, which loses digits as q -> 1 (it bounds murai_capacity's k')
SMALL_Q_THETA_ERRORS = (1.2e-16, 5.8e-17, 6.4e-17)
THETA_ERRORS = {0.6: (4.1e-17, 2.9e-16, 4.7e-16), 0.9: (5.3e-17, 5.3e-17, 4.0e-15),
                0.99: (1.2e-16, 1.2e-16, 5.5e-14)}


@pytest.mark.parametrize("q", [1e-6, 1e-3, 0.05, 0.3, 0.6, 0.9, 0.99])
def test_series_and_product_forms_agree(q):
    # mpmath's jtheta is the second path.  theta4(0.99) = 8.46e-106 is the
    # sum of O(1) terms, so mpmath needs more than 106 digits for it: at 40
    # digits it returns -7.9e-46, while 120 and 300 digits agree
    errors = THETA_ERRORS.get(q, SMALL_Q_THETA_ERRORS)
    for k, theta, err in zip((2, 3, 4), (theta2, theta3, theta4), errors):
        with mp.workdps(120):
            want = mp.jtheta(k, 0, mp.mpf(q))
            assert abs(theta(q) - want) <= 2 * err * want


@pytest.mark.parametrize("q", [0.8000001, 0.81, 0.85, 0.9, 0.95, 0.99, 0.995])
def test_theta4_modular_side_within_its_exponent_rounding(q):
    # theta4 = 2 sqrt(x) e^{-y}, x = pi / -ln q and y = pi x/4, is off by the
    # rounding of y, which e^{-y} turns into a relative error: within
    # 2 y eps of the modular reference sqrt(x) theta2(e^{-pi x}) at 60 digits
    # (the measured errors are 0.21-1.002 y eps).  mpmath's jtheta(4, 0, q)
    # is no reference here: at 120 digits it returns -1.6e-125 at q = 0.995,
    # where theta4 is 8.3e-213
    with mp.workdps(60):
        x = mp.pi / -mp.log(mp.mpf(q))
        want = mp.sqrt(x) * mp.jtheta(2, 0, mp.exp(-mp.pi * x))
        assert abs(theta4(q) - want) <= 2 * float(mp.pi * x / 4) * np.finfo(float).eps * want


def test_theta_domain_errors():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            theta2(bad)


# --- nome -------------------------------------------------------------------

def test_nome_of_reference_geometry():
    assert nome_from_geometry(2, 1) == pytest.approx(Q21, abs=1e-15)


def test_nome_satisfies_defining_equation(rng):
    for _ in range(25):
        c = rng.uniform(0.5, 10)
        r = rng.uniform(0.05, 0.95) * c
        q = nome_from_geometry(c, r)
        assert 0 < q < 1
        assert 0.5 * (1 / math.sqrt(q) + math.sqrt(q)) == pytest.approx(c / r, rel=1e-14, abs=0)


def test_nome_matches_textbook_expression():
    # same value as the unrationalized form away from the cancellation regime
    c, r = 2.0, 1.3
    direct = (2 * c * c - r * r - 2 * c * math.sqrt(c * c - r * r)) / (r * r)
    assert nome_from_geometry(c, r) == pytest.approx(direct, rel=1e-12, abs=0)


def test_nome_scale_invariance():
    assert nome_from_geometry(1, 0.5) == pytest.approx(Q21, abs=1e-15)


def test_nome_touching_limit():
    assert nome_from_geometry(1, 1 - 1e-9) > 0.99
    with pytest.raises(DomainError):
        nome_from_geometry(1, 1)
    with pytest.raises(DomainError):
        nome_from_geometry(1, 2)


# --- two-disk capacity ------------------------------------------------------

def test_two_disk_reference_value():
    assert two_disk_capacity(2, 1) == pytest.approx(TWO_DISK_GAMMA, abs=1e-14)


def test_two_disk_vanishes_with_radius():
    assert two_disk_capacity(2, 1e-8) < 1e-7


def test_two_disk_homogeneity():
    for s in (0.5, 2.0, 7.3):
        assert two_disk_capacity(2 * s, s) == pytest.approx(
            s * two_disk_capacity(2, 1), rel=1e-14, abs=0)


def test_two_disk_at_extreme_scales():
    # nothing forms c^2, so pairs at 1e+-300 scale like the reference pair
    for s in (1e-300, 1e300, 1e305):
        assert nome_from_geometry(2 * s, s) == pytest.approx(Q21, abs=1e-15)
        assert two_disk_capacity(2 * s, s) == pytest.approx(s * TWO_DISK_GAMMA, rel=1e-14, abs=0)
    # far pairs tend to the sum 2r of the two capacities, also where the nome
    # underflows: gamma = 4 r y / (1 + y) (1 + O(q^2)), y = sqrt(1 - (r/c)^2)
    for c, r in ((1e4, 1.0), (1e300, 1.0), (1.7e308, 1e-300)):
        y = math.sqrt(1 - (r / c) ** 2)
        assert two_disk_capacity(c, r) == pytest.approx(4 * r * y / (1 + y), rel=1e-15, abs=0)
    assert two_disk_capacity(1e300, 1.0) == 2.0


def test_two_disk_keeps_its_digits_as_the_disks_touch():
    # on the modular side -ln q comes from y and (c - r)/c, not from a q
    # rounded near 1: every digit holds from 1 - r/c = 1e-5 down to 1e-12
    for gap in 10.0 ** -np.arange(5, 12.5, 0.5):
        for c in (1.0, 0.37, 3e5):
            r = c * (1.0 - gap)
            with mp.workdps(50):
                cm, rm = mp.mpf(c), mp.mpf(r)
                y = mp.sqrt(cm * cm - rm * rm)
                want = float(y * mp.jtheta(2, 0, ((cm - y) / rm) ** 2) ** 2)
            assert two_disk_capacity(c, r) == pytest.approx(want, rel=1e-14, abs=0)


def test_modular_side_keeps_every_digit_from_q_of_point_eight():
    # from q = 0.8 the transformed nome is below 6.3e-20, so theta2, theta3 and
    # the capacity take the modular form; the series there lose digits to
    # 1.1e-15 (theta2, theta3) and 1.7e-14 (capacity) up to q = 0.99
    for q in np.linspace(0.8, 0.99, 39):
        with mp.workdps(50):
            qm = mp.mpf(float(q))
            assert theta2(q) == pytest.approx(float(mp.jtheta(2, 0, qm)), rel=1e-15, abs=0)
            assert theta3(q) == pytest.approx(float(mp.jtheta(3, 0, qm)), rel=1e-15, abs=0)
        for c in (1.0, 3.0, 0.37):
            r = c * 2.0 / (q ** -0.5 + q ** 0.5)
            with mp.workdps(50):
                cm, rm = mp.mpf(c), mp.mpf(r)
                y = mp.sqrt(cm * cm - rm * rm)
                want = float(y * mp.jtheta(2, 0, ((cm - y) / rm) ** 2) ** 2)
            assert two_disk_capacity(c, r) == pytest.approx(want, rel=1e-15, abs=0)


def test_two_disk_rejects_values_that_are_not_finite():
    for c, r in ((math.inf, 1.0), (math.nan, 1.0), (2.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(DomainError):
            two_disk_capacity(c, r)
        with pytest.raises(DomainError):
            nome_from_geometry(c, r)
    # a capacity above the float range is no value
    with pytest.raises(DomainError, match="overflows"):
        two_disk_capacity(1.7e308, 1.6e308)


def test_murai_reference_value():
    assert murai_capacity(2, 1) == pytest.approx(1.875595019097120, abs=1e-12)


def test_murai_agrees_with_theta_form_on_grid():
    ratios = np.linspace(0.05, 0.95, 20)
    scales = np.linspace(0.5, 8.0, 20)
    for rho in ratios:
        for c in scales:
            r = rho * c
            assert murai_capacity(c, r) == pytest.approx(
                two_disk_capacity(c, r), abs=1e-10)
    # nearly touching disks, where sqrt(1 - k^2) loses all of k'
    for rho in (0.99, 0.999, 0.9999):
        for c in (0.5, 1.0, 7.3):
            assert murai_capacity(c, rho * c) == pytest.approx(
                two_disk_capacity(c, rho * c), rel=1e-13, abs=0)


def test_murai_rejects_underflowing_complementary_modulus():
    with pytest.raises(DomainError, match="underflows"):
        murai_capacity(1.0, 1.0 - 1e-9)


# --- square -----------------------------------------------------------------

def test_square_reference_value():
    assert square_capacity(1.0) == pytest.approx(0.83462684167407318630, rel=1e-15, abs=0)


def test_square_homogeneity():
    assert square_capacity(2.0) == pytest.approx(2 * square_capacity(1.0), rel=1e-15, abs=0)
    with pytest.raises(DomainError):
        square_capacity(0.0)


def test_square_at_extreme_scales():
    # s times the precomputed constant: finite for every finite s, and only
    # a finite positive s is a half-diagonal
    for s in (1e-300, 1e300, 1e307, 1e308, 1.7976931348623157e308):
        val = square_capacity(s)
        assert math.isfinite(val)
        assert val == pytest.approx(s * square_capacity(1.0), rel=1e-15, abs=0)
    for bad in (math.inf, math.nan, -math.inf, -1e300):
        with pytest.raises(DomainError):
            square_capacity(bad)


def test_gamma_quarter_constant():
    from scipy.special import gamma as spgamma

    assert GAMMA_QUARTER == pytest.approx(float(spgamma(0.25)), rel=1e-15, abs=0)


# --- ratio function ---------------------------------------------------------

def test_ratio_f_small_q_limit():
    assert ratio_f(1e-12) == pytest.approx(1.0, abs=1e-11)


def test_ratio_f_series_side_against_mpmath():
    # up to q = 0.8 the theta2 series form keeps every digit but one: 8.5e-16
    # at most on this grid
    for q in np.linspace(1e-4, 0.8, 400):
        with mp.workdps(60):
            qm = mp.mpf(float(q))
            want = float((1 / mp.sqrt(qm) - mp.sqrt(qm)) * mp.jtheta(2, 0, qm) ** 2 / 4)
        assert ratio_f(q) == pytest.approx(want, rel=1e-15, abs=0)


def test_ratio_f_matches_capacity_ratio():
    # f(q(c, r)) = gamma(two disks)/(2 r) along the whole family
    for c, r in ((2.0, 1.0), (2.0, 0.3), (5.0, 4.0), (1.0, 0.9)):
        q = nome_from_geometry(c, r)
        assert ratio_f(q) == pytest.approx(two_disk_capacity(c, r) / (2 * r), rel=1e-12, abs=0)


def test_ratio_f_monotone_decreasing():
    grid = np.linspace(1e-3, 0.999, 400)
    vals = [ratio_f(q) for q in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_ratio_f_modular_branch_continuity():
    # the series form and the modular form must agree near the switch point
    for q in (0.78, 0.7999, 0.8001, 0.83):
        series = 0.25 * (1 / math.sqrt(q) - math.sqrt(q)) * theta2(q) ** 2
        assert ratio_f(q) == pytest.approx(series, rel=1e-12, abs=0)


def test_ratio_f_modular_side_against_mpmath():
    # from q = 0.8 the modular form keeps every digit; the product form lost
    # up to 5.6e-15 between 0.8 and 0.9
    for q in np.linspace(0.8, 0.9, 101)[1:]:
        with mp.workdps(50):
            qm = mp.mpf(float(q))
            want = float((1 / mp.sqrt(qm) - mp.sqrt(qm)) * mp.jtheta(2, 0, qm) ** 2 / 4)
        assert ratio_f(q) == pytest.approx(want, rel=1e-15, abs=0)


# --- logarithmic derivative -------------------------------------------------

def test_u_negative_on_grid():
    for q in np.linspace(1e-3, 0.8, 200):
        assert log_deriv_u_upper(q) < 0


def test_u_small_q_behaviour():
    q = 1e-6
    assert log_deriv_u(q) == pytest.approx(-q, rel=1e-3, abs=0)


def test_u_matches_finite_differences():
    # oracle: centered differences of log f
    q = 0.3
    h = 1e-6
    numeric = q * (math.log(ratio_f(q + h)) - math.log(ratio_f(q - h))) / (2 * h)
    assert log_deriv_u(q) == pytest.approx(numeric, abs=1e-8)


def test_u_tail_bound_is_upper_bound():
    for q in (0.1, 0.5, 0.8):
        assert log_deriv_u_upper(q, terms=8) >= log_deriv_u(q, terms=200)


def test_u_domain_errors():
    with pytest.raises(DomainError):
        log_deriv_u(1.5)
    with pytest.raises(DomainError):
        log_deriv_u(0.5, terms=0)


@pytest.mark.parametrize("terms", [True, False, 2.5, 8.0, "8"])
def test_u_term_count_is_an_integer(terms):
    # True would sum one term, and 2.5 would stop range with an untyped TypeError
    for f in (log_deriv_u, log_deriv_u_upper):
        with pytest.raises(DomainError, match="terms must be an integer"):
            f(0.5, terms)
