"""Closed-form reference values: Jacobi theta functions, the two-disk
capacity, the square constant, and the ratio functions of the two-disk
subadditivity analysis.

Theta functions are evaluated by their rapidly convergent q-series

    theta2(q) = sum_n q^{(n+1/2)^2},   theta3(q) = sum_n q^{n^2},
    theta4(q) = sum_n (-1)^n q^{n^2}.

Near q = 1 (q > 0.8, ``_MODULAR_SWITCH``) the series converge slowly and
lose digits, and evaluation is routed through the Jacobi modular identities

    theta2(e^{-pi/x}) = sqrt(x) theta4(e^{-pi x}),
    theta3(e^{-pi/x}) = sqrt(x) theta3(e^{-pi x}),
    theta4(e^{-pi/x}) = sqrt(x) theta2(e^{-pi x}).

For two disks of radius r centered at +-c (0 < r < c) the capacity is exactly

    gamma = sqrt(c^2 - r^2) * theta2(q)^2,
    c/r   = (q^{-1/2} + q^{1/2}) / 2.
"""

from __future__ import annotations

import itertools
import math
import numbers

from .errors import DomainError

# Gamma(1/4) to 20 significant digits
GAMMA_QUARTER = 3.6256099082219083119
# capacity of the square of half-diagonal 1
_SQUARE_UNIT = math.sqrt(2.0) * GAMMA_QUARTER ** 2 / (4.0 * math.pi ** 1.5)

# above this nome every theta function and the two-disk capacity take the
# modular side: there the transformed nome qq = e^{-pi x}, x = pi / -ln q, is
# below 6.3e-20, so theta3(qq) and theta4(qq) are 1 and theta2(qq) is
# 2 qq^{1/4} to rounding
_MODULAR_SWITCH = 0.8
_REL = 1e-16


def _check_q(q: float) -> None:
    if not (0.0 < q < 1.0):
        raise DomainError(f"nome q must lie in (0, 1), got {q}")


def _series(q: float, s: float, n: int, power, coef) -> float:
    """s + sum of coef(m) q^power(m) over m = n, n + 1, ..., stopped once a
    term falls below _REL relative to the partial sum (from m = 2 on)."""
    for n in itertools.count(n):
        t = q ** power(n)
        s += coef(n) * t
        if n > 1 and t < _REL * abs(s):
            return s


def theta2(q: float) -> float:
    _check_q(q)
    if q > _MODULAR_SWITCH:
        # theta2(q) = sqrt(x) theta4(e^{-pi x}), and theta4 there is 1 to
        # rounding (the transformed nome is below 6.3e-20)
        return math.sqrt(math.pi / (-math.log(q)))
    return 2.0 * _series(q, 0.0, 0, lambda n: (n + 0.5) ** 2, lambda n: 1.0)


def theta3(q: float) -> float:
    _check_q(q)
    if q > _MODULAR_SWITCH:
        # theta3(e^{-pi x}) = 1 to rounding here
        return math.sqrt(math.pi / (-math.log(q)))
    return _series(q, 1.0, 1, lambda n: n * n, lambda n: 2.0)


def theta4(q: float) -> float:
    """theta4(q).  Above q = 0.8, by the modular side 2 sqrt(x) e^{-pi x/4}
    with x = pi / -ln q, it is within 1.002 (pi x/4) eps relative of the
    60-digit value (5.5e-14 at q = 0.99): e^{-y} turns the absolute rounding
    error of y = pi x/4 into a relative one.  It is subnormal from
    q = 0.99654 and 0 from 0.99669; the true value is 1.0e-1069 at 0.999."""
    _check_q(q)
    if q > _MODULAR_SWITCH:
        # the alternating series cancels catastrophically as q -> 1 (the
        # value decays like e^{-pi x/4} while the terms stay O(1)), so take
        # the modular side: theta4(q) = sqrt(x) theta2(e^{-pi x}) with
        # theta2(qq) = 2 qq^{1/4} to rounding here, written in log form since
        # qq itself can underflow
        x = math.pi / (-math.log(q))
        return math.sqrt(x) * 2.0 * math.exp(-0.25 * math.pi * x)
    return _series(q, 1.0, 1, lambda n: n * n, lambda n: -2.0 if n % 2 else 2.0)


def _nome_root(c: float, r: float) -> tuple[float, float]:
    """(sqrt(1 - x^2), sqrt q) for x = r/c.

    c/r = (q^{-1/2} + q^{1/2})/2 has the root q^{1/2} = x / (1 + y) in
    (0, 1), y = sqrt(1 - x^2), free of cancellation for x << 1.  y comes from
    (1 - x)(1 + x) with 1 - x = (c - r)/c, which keeps every digit as the
    disks touch (c - r is exact there), and nothing forms c^2, which
    overflows at valid scales.
    """
    if not (0.0 < r < c and math.isfinite(c)):
        raise DomainError(f"need 0 < r < c with c finite, got r={r}, c={c}")
    x = r / c
    y = math.sqrt((c - r) / c * (1.0 + x))
    return y, x / (1.0 + y)


def nome_from_geometry(c: float, r: float) -> float:
    """The nome q in (0,1) with c/r = (q^{-1/2} + q^{1/2})/2.

    Algebraically q = (2c^2 - r^2 - 2c sqrt(c^2 - r^2))/r^2; computed from
    x = r/c as the square of q^{1/2} = x / (1 + sqrt(1 - x^2)), which is
    identical, avoids cancellation for r << c and never forms c^2.  It
    underflows to 0 for r/c below about 1e-154 (a DomainError wherever a
    theta function reads it).
    """
    return _nome_root(c, r)[1] ** 2


def two_disk_capacity(c: float, r: float) -> float:
    """Exact capacity of two radius-r disks centered at -c and +c:
    c sqrt(1 - x^2) theta2(q)^2 with x = r/c, which is
    sqrt(c^2 - r^2) theta2(q)^2 without forming c^2.

    theta2(q)^2 = 4 q^{1/2} (1 + q^2 + q^6 + ...)^2 is 4 q^{1/2} to rounding
    once q^2 < eps/4, and c q^{1/2} = r / (1 + sqrt(1 - x^2)): so far pairs,
    whose nome may underflow, need neither.  A capacity above the float
    range is a DomainError.
    """
    y, root = _nome_root(c, r)
    q = root * root
    if q > _MODULAR_SWITCH:
        # theta2(q)^2 = pi / -ln q as in theta2, with -ln q taken as
        # 2 (ln(1 + y) - ln x) from y and 1 - x = (c - r)/c: q itself rounds
        # near 1 as the disks touch, and -ln q from it would lose its digits
        gamma = c * y * (0.5 * math.pi / (math.log1p(y) - math.log1p(-(c - r) / c)))
    elif q > 2.0 ** -27:
        gamma = c * y * theta2(q) ** 2
    else:
        gamma = 4.0 * (r / (1.0 + y)) * y
    if not math.isfinite(gamma):
        raise DomainError(f"capacity overflows at r={r}, c={c}")
    return gamma


def square_capacity(s: float = 1.0) -> float:
    """Capacity of the square with half-diagonal s: s*sqrt(2)*Gamma(1/4)^2/(4 pi^{3/2}).

    s times the precomputed constant, so it is finite for every finite s.
    """
    if not (s > 0 and math.isfinite(s)):
        raise DomainError(f"half-diagonal must be finite and positive, got {s}")
    return s * _SQUARE_UNIT


def ratio_f(q: float) -> float:
    """The two-disk capacity ratio f(q) = (q^{-1/2} - q^{1/2}) theta2(q)^2 / 4.

    Evaluated through the theta series, and above ``_MODULAR_SWITCH``
    through the modular form (x/2) sinh(pi/2x) theta4(e^{-pi x})^2, whose
    theta4 factor is 1 to rounding there.
    """
    _check_q(q)
    if q > _MODULAR_SWITCH:
        x = math.pi / (-math.log(q))
        return 0.5 * x * math.sinh(0.5 * math.pi / x)
    return 0.25 * (1.0 / math.sqrt(q) - math.sqrt(q)) * theta2(q) ** 2


def log_deriv_u(q: float, terms: int = 64) -> float:
    """u(q) = q f'(q)/f(q) as a partial sum of its Lambert-type series:

        u(q) = -q/(1-q) - sum 8 n q^{4n}/(1-q^{4n}) + sum 4 n q^{2n}/(1+q^{2n}).
    """
    _check_q(q)
    if isinstance(terms, bool) or not isinstance(terms, numbers.Integral):
        raise DomainError(f"terms must be an integer, got {terms!r}")
    if terms < 1:
        raise DomainError("terms must be >= 1")
    val = -q / (1.0 - q)
    for n in range(1, terms + 1):
        q4n = q ** (4 * n)
        q2n = q ** (2 * n)
        val += -8.0 * n * q4n / (1.0 - q4n) + 4.0 * n * q2n / (1.0 + q2n)
    return val


def log_deriv_u_upper(q: float, terms: int = 64) -> float:
    """A certified upper bound for u(q): the partial sum plus the geometric
    tail bound of the (positive) third series,

        sum_{n>=k} 4 n q^{2n} = 4 q^{2k} (k - (k-1) q^2) / (1-q^2)^2,

    while dropping the tail of the negative series only increases the value.
    """
    val = log_deriv_u(q, terms)
    k = terms + 1
    q2 = q * q
    tail = 4.0 * q2 ** k * (k - (k - 1) * q2) / (1.0 - q2) ** 2
    return val + tail
