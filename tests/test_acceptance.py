"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.  Run with ``pytest -v -s``.
"""

import cmath
import math
import time

import numpy as np
import pytest

import anacap.exact as exact
from anacap.basis import BasisSet, PowerPole, Powers, Rings, build_basis
from anacap.discrete import (
    alpha,
    alpha_geometric,
    delta,
    lambda_discrete,
    lambda_poly_bounds,
    sandwich_check,
)
from anacap.geometry import Disk, Ellipse, Polygon, arcs, scene, transform, validate_scene
from anacap.integrals import assemble_gram, circle_pair_integral
from anacap.quadrature import QuadratureSettings, integrate_arc
from anacap.solver import bounds_for_basis, gamma_bounds
from anacap.sublab import (
    CERTIFIED_DECREASE,
    asymptotic_check,
    fit_quadratic_slope,
    gap_report,
    monotonicity_verdict,
    sweep,
)
from conftest import each_piece, random_points

TWO_DISK_GAMMA = 1.8755950190971197289
TWO_DISKS = scene([Disk(2 + 0j, 1.0), Disk(-2 + 0j, 1.0)])
SQUARE = scene([Polygon((1 + 0j, 1j, -1 + 0j, -1j))])


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_two_disk_row_one_exact():
    t0 = time.perf_counter()
    res = gamma_bounds(TWO_DISKS, Rings(0))
    dt = time.perf_counter() - t0
    ok = (abs(res.lower - 1.875) <= 1e-12
          and abs(res.upper - 1.8828125) <= 1e-12
          and dt < 0.1)
    report("criterion 1 (two-disk single-pole row, exact)", ok,
           f"lower={res.lower!r} upper={res.upper!r} time={dt:.4f}s")


def test_criterion_2_two_disk_ladder_convergence():
    t0 = time.perf_counter()
    results = [gamma_bounds(TWO_DISKS, Rings(k)) for k in range(5)]
    dt = time.perf_counter() - t0
    lowers = [r.lower for r in results]
    uppers = [r.upper for r in results]
    monotone = (all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
                and all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:])))
    final = results[-1]
    ok = (monotone
          and final.lower <= TWO_DISK_GAMMA <= final.upper
          and final.upper - final.lower <= 1e-9
          and dt < 1.0)
    report("criterion 2 (two-disk ring ladder)", ok,
           f"final=[{final.lower!r}, {final.upper!r}] "
           f"gap={final.upper - final.lower:.2e} time={dt:.3f}s")


def test_criterion_3_theta_cross_validation():
    theta_val = exact.two_disk_capacity(2, 1)
    murai_val = exact.murai_capacity(2, 1)
    res = gamma_bounds(TWO_DISKS, Rings(4))
    mid = 0.5 * (res.lower + res.upper)
    agree = max(abs(theta_val - murai_val), abs(theta_val - mid)) <= 1e-9
    worst = 0.0
    for x in np.linspace(0.5, 20.0, 120):
        lhs = exact.theta2(math.exp(-math.pi / x))
        rhs = math.sqrt(x) * exact.theta4(math.exp(-math.pi * x))
        worst = max(worst, abs(lhs - rhs))
    ok = agree and worst <= 1e-12
    report("criterion 3 (theta/elliptic/solver cross-validation)", ok,
           f"theta={theta_val!r} murai={murai_val!r} mid={mid!r} "
           f"modular_worst={worst:.2e}")


def test_criterion_4_square_monomials():
    t0 = time.perf_counter()
    res2 = gamma_bounds(SQUARE, Powers(2), QuadratureSettings(1e-9))
    res40 = gamma_bounds(SQUARE, Powers(40), QuadratureSettings(1e-9))
    dt = time.perf_counter() - t0
    ok = (abs(res2.lower - 0.707106781186547) <= 1e-8
          and abs(res2.upper - 0.900316316157106) <= 1e-8
          and res40.upper <= 0.8662
          and res40.lower >= 0.7909
          and dt < 30.0)
    report("criterion 4 (square, plain monomials)", ok,
           f"n2=[{res2.lower!r}, {res2.upper!r}] "
           f"n40=[{res40.lower!r}, {res40.upper!r}] time={dt:.1f}s")


def test_criterion_5_square_corner_basis():
    t0 = time.perf_counter()
    res = gamma_bounds(SQUARE, Powers(6, with_corners=True), QuadratureSettings(1e-9))
    dt = time.perf_counter() - t0
    ref = exact.square_capacity(1.0)
    ok = (res.lower >= 0.834626584020641 - 1e-7
          and res.upper <= 0.834627152182154 + 1e-7
          and res.lower <= ref <= res.upper
          and dt < 60.0)
    report("criterion 5 (square, corner-adapted basis)", ok,
           f"bracket=[{res.lower!r}, {res.upper!r}] exact={ref!r} time={dt:.1f}s")


def test_criterion_6_four_ellipses():
    sc = scene([Ellipse(-3, 2.0, 1.0), Ellipse(3, 2.0, 1.0),
                Ellipse(10j, 2.0, 1.0), Ellipse(-10j, 2.0, 1.0)])
    band_lo, band_hi = 5.371995432221965, 5.371995878776166
    t0 = time.perf_counter()
    res = gamma_bounds(sc, Rings(8), QuadratureSettings(1e-9))
    dt = time.perf_counter() - t0
    gap = res.upper - res.lower
    ok = (res.lower <= band_lo and res.upper >= band_hi
          and gap <= 5e-6 and dt <= 600.0)
    report("criterion 6 (four ellipses)", ok,
           f"bracket=[{res.lower!r}, {res.upper!r}] gap={gap:.2e} time={dt:.1f}s")


def test_criterion_7_discrete_capacity(rng):
    worst_lambda = 0.0
    for _ in range(20):
        c = rng.uniform(0.5, 5)
        r = rng.uniform(0.05, 1.5)
        got = lambda_discrete([c, -c], r)
        expect = 2 * r / (1 + r * r / (4 * c * c))
        worst_lambda = max(worst_lambda, abs(got - expect))
    bracket_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 7))
        Z = random_points(rng, n, box=4.0, min_sep=1.0)
        r = float(rng.uniform(0.01, 0.2))
        lo, hi = lambda_poly_bounds(Z, r)
        lam = lambda_discrete(Z, r)
        bracket_ok &= lo - 1e-12 <= lam <= hi + 1e-12
    alpha_ok = True
    delta_ok = True
    worst_alpha = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        Z = random_points(rng, n, box=5.0, min_sep=0.3)
        m = int(rng.integers(1, n))
        a1, a2 = alpha(Z), alpha_geometric(Z)
        worst_alpha = max(worst_alpha, abs(a1 - a2) / a1)
        alpha_ok &= abs(a1 - a2) <= 1e-10 * a1
        delta_ok &= delta(Z, m) > 0
    ok = worst_lambda <= 1e-12 and bracket_ok and alpha_ok and delta_ok
    report("criterion 7 (discrete capacity quantities)", ok,
           f"lambda_err={worst_lambda:.2e} poly_bracket={bracket_ok} "
           f"alpha_rel={worst_alpha:.2e} delta_positive={delta_ok}")


def test_criterion_8_sandwich(rng):
    passes = 0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        Z = random_points(rng, n, box=4.0, min_sep=1.6)
        r = float(rng.uniform(0.1, 0.35))
        gb = gamma_bounds(scene([Disk(z, r) for z in Z]), Rings(3))
        if sandwich_check(Z, r, gb.lower, gb.upper, slack=gb.slack):
            passes += 1
    report("criterion 8 (discrete/continuous sandwich)", passes == 20,
           f"{passes}/20 random 4r-separated configurations")


def test_criterion_9_asymptotic_slope():
    rep = asymptotic_check((2 + 0j, -2 + 0j), 1, Rings(3), r0=0.4)
    radii = [0.4 * 2 ** (-k) for k in range(6)]
    mids = [exact.ratio_f(exact.nome_from_geometry(2, r)) for r in radii]
    slope_exact_curve = fit_quadratic_slope(radii, mids)
    dev_exact = abs(slope_exact_curve - 1 / 16) * 16
    ok = rep.predicted == pytest.approx(1 / 16) and rep.rel_deviation < 0.05 \
        and dev_exact < 0.05
    report("criterion 9 (small-radius ratio slope)", ok,
           f"solver_fit={rep.fitted_slope!r} exact_fit={slope_exact_curve!r} "
           f"target=0.0625 dev=({rep.rel_deviation:.3f}, {dev_exact:.3f})")


def test_criterion_10_conjecture_machinery():
    grid = np.linspace(0.03, 1.9, 50)
    records = sweep((2 + 0j, -2 + 0j), 1, grid, Rings(4))
    verdict = monotonicity_verdict(records)
    gap = gap_report(records)
    sweep_ok = (verdict.pair_verdicts == (CERTIFIED_DECREASE,) * 49
                and gap <= 1e-6)
    u_ok = all(exact.log_deriv_u_upper(q) < 0
               for q in np.linspace(0.8 / 1000, 0.8, 1000))
    report("criterion 10 (conjecture machinery)", sweep_ok and u_ok,
           f"verdicts={verdict.n_decrease}/49 decrease, gap={gap:.2e}, "
           f"u<0 on 1000 grid points: {u_ok}")


def test_criterion_11_randomized_property_suites(rng):
    cases = 0
    # closed-form pair integrals vs quadrature, 60 cases
    worst = 0.0
    for trial in range(30):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r = rng.uniform(0.5, 1.5)
        circle = Disk(c, r)
        (arc,) = arcs(circle)
        for _ in range(2):
            def rand_pole():
                rho = rng.uniform(0.1, 0.8) if rng.random() < 0.5 else rng.uniform(1.3, 2.5)
                return c + rho * r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))

            k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            b1 = PowerPole(rand_pole(), k1)
            b2 = PowerPole(rand_pole(), 1)
            val = circle_pair_integral(b1, b2, circle)
            ref = complex(integrate_arc(each_piece(
                lambda t, z, s1, w: (BasisSet([b1]).eval_all(z)[0]
                                     * np.conj(BasisSet([b2]).eval_all(z)[0])) @ w),
                [arc], QuadratureSettings(1e-12))[0])
            worst = max(worst, abs(val - ref))
            cases += 1
    pair_ok = worst <= 1e-9

    # bound nesting under basis growth, 50 cases
    nesting_ok = True
    for _ in range(5):
        pts = random_points(rng, int(rng.integers(1, 4)), box=3.0, min_sep=2.2)
        sc = validate_scene(scene([Disk(p, 1.0) for p in pts]))
        basis = build_basis(sc, Rings(0))
        prev = bounds_for_basis(sc, basis)
        for _ in range(10):
            disk = sc.shapes[int(rng.integers(0, len(sc.shapes)))]
            pole = disk.center + rng.uniform(0, 0.9) * disk.radius * cmath.exp(
                1j * rng.uniform(0, 2 * math.pi))
            if PowerPole(pole, 1) in basis:
                continue
            basis = basis + [PowerPole(pole, 1)]
            cur = bounds_for_basis(sc, basis)
            nesting_ok &= (cur.lower >= prev.lower - 1e-12
                           and cur.upper <= prev.upper + 1e-12)
            prev = cur
            cases += 1

    # affine equivariance, 40 cases
    equiv_ok = True
    for _ in range(40):
        pts = random_points(rng, 2, box=3.0, min_sep=2.4)
        sc = validate_scene(scene([Disk(p, 0.8) for p in pts]))
        basis = build_basis(sc, Rings(1))
        res = bounds_for_basis(sc, basis)
        a = complex(rng.normal(), rng.normal())
        if abs(a) < 0.3:
            a = 0.7 + 0.4j
        b = complex(rng.normal(), rng.normal())
        mres = bounds_for_basis(transform(sc, a, b),
                                [PowerPole(a * f.c + b, 1) for f in basis])
        equiv_ok &= abs(mres.lower - abs(a) * res.lower) <= 1e-9 * max(1, abs(a))
        equiv_ok &= abs(mres.upper - abs(a) * res.upper) <= 1e-9 * max(1, abs(a))
        cases += 1

    # Hermitian positive-definiteness of random Gram matrices, 50 cases
    gram_ok = True
    for _ in range(50):
        pts = random_points(rng, int(rng.integers(1, 4)), box=4.0, min_sep=2.2)
        sc = validate_scene(scene([Disk(p, 1.0) for p in pts]))
        basis = build_basis(sc, Rings(int(rng.integers(0, 4))))
        g = assemble_gram(sc, BasisSet(basis))
        gram_ok &= bool(np.array_equal(g.H, g.H.conj().T))
        ev_min = float(np.linalg.eigvalsh(g.H)[0])
        gram_ok &= ev_min > 0
        cases += 1

    ok = pair_ok and nesting_ok and equiv_ok and gram_ok and cases >= 200
    report("criterion 11 (randomized property suites)", ok,
           f"{cases} cases: pair_worst={worst:.2e} nesting={nesting_ok} "
           f"equivariance={equiv_ok} gram_pd={gram_ok}")
