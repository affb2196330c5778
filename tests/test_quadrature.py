import math

import numpy as np
import pytest

from anacap.errors import MaxDepthError, SceneConfigError
from anacap.geometry import Disk, Ellipse, Polygon, arcs
from anacap.quadrature import (
    _CHUNK,
    QuadratureSettings,
    _open_nodes,
    _trapezoid_levels,
    integrate_arc,
)

from conftest import each_piece

TIGHT = QuadratureSettings(abs_tol=1e-12)
DEFAULT = QuadratureSettings()


def test_settings_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(SceneConfigError):
            QuadratureSettings(abs_tol=bad)
    # the 2^16-node cap is the only stop rule: there is no depth setting
    with pytest.raises(TypeError):
        QuadratureSettings(max_depth=50)
    assert DEFAULT.abs_tol == 1e-9


@pytest.mark.parametrize("bad", [True, False, "x", 1e-9 + 0j, None])
def test_settings_tolerance_is_a_real_number(bad):
    # True would be a tolerance of 1, and a string would raise an untyped TypeError
    with pytest.raises(SceneConfigError, match="must be a real number"):
        QuadratureSettings(abs_tol=bad)


def test_settings_take_numpy_floats():
    assert QuadratureSettings(np.float64(1e-10)).abs_tol == 1e-10
    assert QuadratureSettings(np.float32(1e-6)).abs_tol == np.float32(1e-6)


def test_unit_circle_perimeter():
    (arc,) = arcs(Disk(0, 1.0))
    val = integrate_arc(each_piece(lambda t, z, s1, w: np.ones_like(z) @ w), [arc], TIGHT)[0]
    assert val == pytest.approx(2 * math.pi, abs=1e-12)


def test_ellipse_perimeter():
    (arc,) = arcs(Ellipse(0, 2.0, 1.0))
    val = integrate_arc(each_piece(lambda t, z, s1, w: np.ones_like(z) @ w), [arc], TIGHT)[0]
    assert val.real == pytest.approx(9.688448220547675, abs=1e-11)


def test_abs_z_squared_on_unit_circle():
    (arc,) = arcs(Disk(0, 1.0))
    val = integrate_arc(each_piece(lambda t, z, s1, w: (z * np.conj(z)) @ w), [arc], TIGHT)[0]
    assert complex(val) == pytest.approx(2 * math.pi, abs=1e-11)


def test_vector_integrand():
    (arc,) = arcs(Disk(0, 1.0))

    def f(t, z, s1, w):
        return np.stack([np.ones_like(z), z, z * np.conj(z)]) @ w

    vals = integrate_arc(each_piece(f), [arc], TIGHT)[0]
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(2 * math.pi, abs=1e-11)
    assert abs(vals[1]) < 1e-11
    assert vals[2] == pytest.approx(2 * math.pi, abs=1e-11)


def test_singular_endpoint_power():
    # integral of t^(-1/3) over a unit segment: exact value 3/2
    seg = arcs(Polygon((0j, 1 + 0j, 1 + 1j, 1j)))[0]

    val = integrate_arc(each_piece(lambda t, z, s1, w: t ** (-1 / 3) @ w), [seg],
                        QuadratureSettings(1e-10))[0]
    assert val.real == pytest.approx(1.5, abs=1e-9)


def test_singular_both_endpoints():
    # t^(-1/3) (1-t)^(-1/3): exact value Beta(2/3, 2/3)
    from scipy.special import beta as beta_fn

    seg = arcs(Polygon((0j, 1 + 0j, 1 + 1j, 1j)))[0]

    def f(t, z, s1, w):
        # the exact endpoint distances t, s1 never round to zero
        return (t ** (-1 / 3) * s1 ** (-1 / 3)) @ w

    val = integrate_arc(each_piece(f), [seg], QuadratureSettings(1e-10))[0]
    assert val.real == pytest.approx(beta_fn(2 / 3, 2 / 3), abs=1e-9)


def test_endpoint_powers_near_the_integrability_limit():
    # t^-0.49 (1-t)^-0.49, the strongest corner singularity the rule is
    # built for: exact value Beta(0.51, 0.51)
    from scipy.special import beta as beta_fn

    seg = arcs(Polygon((0j, 1 + 0j, 1 + 1j, 1j)))[0]
    val = integrate_arc(each_piece(lambda t, z, s1, w: (t * s1) ** -0.49 @ w), [seg],
                        QuadratureSettings(1e-13))[0]
    assert abs(val - beta_fn(0.51, 0.51)) <= 1e-12


def test_huge_magnitude_integrand_converges():
    # |z|^-80 along a square edge: magnitude ~1e12, so the absolute tolerance
    # sits below the rounding floor; the integral must still converge to
    # machine-relative accuracy instead of erroring out
    seg = arcs(Polygon((1 + 0j, 1j, -1 + 0j, -1j)))[0]
    val = integrate_arc(each_piece(lambda t, z, s1, w: np.abs(1 + t * (1j - 1)) ** -80.0 @ w),
                        [seg], DEFAULT)[0]
    from scipy.integrate import quad as spquad

    ref = spquad(lambda t: abs(1 + t * (1j - 1)) ** -80.0 * math.sqrt(2), 0, 1,
                 epsrel=1e-13, limit=500)[0]
    assert val.real == pytest.approx(ref, rel=1e-12, abs=0)


def test_max_depth_error():
    # a discontinuous integrand cannot satisfy the refinement acceptance test
    seg = arcs(Polygon((0j, 1 + 0j, 1 + 1j, 1j)))[0]

    def f(t, z, s1, w):
        return np.where(t < 1 / math.pi, 0.0, 1.0) @ w

    # the fixed node ceiling stops the refinement
    with pytest.raises(MaxDepthError, match="65536 nodes"):
        integrate_arc(each_piece(f), [seg], QuadratureSettings(1e-12))[0]


def test_max_depth_error_names_the_first_failing_piece():
    # the integrand jumps on the square's second and fourth edges only: the
    # other two converge, and the error names the second edge
    pieces = arcs(Polygon((0j, 1 + 0j, 1 + 1j, 1j)))

    def f(t, z, s1, w):
        return np.where(z.imag < 1 / math.pi, 0.0, 1.0) @ w

    with pytest.raises(MaxDepthError, match=r"65536 nodes on the arc from 1\+0j to 1\+1j"):
        integrate_arc(each_piece(f), pieces, QuadratureSettings(1e-12))


@pytest.mark.parametrize("rows", [1, 64, 1 << 13])
def test_pieces_integrated_together_keep_the_bits_they_have_alone(rows):
    # each piece keeps its own sum and its own convergence test, whatever the
    # pieces beside it in a call and the levels at which they stop
    pieces = (arcs(Polygon((2 + 0j, 3 + 0j, 3 + 1j, 2 + 1j))) + arcs(Ellipse(5 + 0j, 2.0, 0.3, 0.4))
              + arcs(Disk(-4j, 1.0)))

    def f(t, z, s1, w):
        return np.stack([np.ones_like(z), z ** -3, np.exp(2j * z.conj())]) @ w

    together = integrate_arc(each_piece(f), pieces, TIGHT, rows=rows)
    for arc, got in zip(pieces, together):
        (alone,) = integrate_arc(each_piece(f), [arc], TIGHT, rows=rows)
        assert got.tobytes() == alone.tobytes()


def ladder_reference(g, arc, tol):
    """One piece alone on a plain loop: 64 midpoint nodes, then each level
    adds the midpoints and keeps half the previous sum; a level's new nodes
    are summed in parts of ``_CHUNK`` in order, and the sums stop once two
    successive ones agree to max(tol, 64 eps |part|), real and imaginary
    parts separately.  Returns the integral and the new nodes per level."""
    shift, n = 0.5 / 64, 64
    u, wu, keep = shift + np.arange(n) / n, 1.0 / n, 0.0
    prev, levels = 0j, []
    while True:
        t, s1, jac = _open_nodes(u) if arc.start != arc.end else (u, 1.0 - u, 1.0)
        z, dz = arc._point_velocity(t)
        w = wu * jac * np.abs(dz)
        total = 0j
        for a in range(0, u.size, _CHUNK):
            c = slice(a, a + _CHUNK)
            total = total + np.asarray(g(t[c], z[c], s1[c], w[c]), complex)
        total = total + keep * prev
        levels.append(u.size)
        if len(levels) > 1:
            bound = np.maximum(tol, 64.0 * np.finfo(float).eps
                               * np.maximum(abs(total.real), abs(total.imag)))
            diff = total - prev
            if ((abs(diff.real) <= bound) & (abs(diff.imag) <= bound)).all():
                return total, levels
        u, wu, keep = (shift + (np.arange(n) + 0.5) / n) % 1.0, 0.5 / n, 0.5
        prev, n = total, 2 * n


# node counts of the integrand calls: at rows = 1 a call holds up to 2^13
# nodes, six pieces' first 64 at once; the disk alone goes on to 8,192 and
# then 16,384 new nodes a level, two 4,096-node parts to a call, and its test
# closes the second call of its last level.  At rows = 2 a call holds one
# such part, and at rows = 69 one part of any size
LADDER_CALLS = {
    1: [384, 384, 256, 512, 512, 1024, 2048, 4096, 8192, 8192, 8192],
    2: [384, 384, 256, 512, 512, 1024, 2048] + [4096] * 7,
    69: [64] * 12 + [128, 128, 256, 256, 512, 1024, 2048] + [4096] * 7,
}


@pytest.mark.parametrize("rows", sorted(LADDER_CALLS))
def test_ladder_matches_a_plain_loop_bit_for_bit(rows):
    # four open edges, an ellipse and a disk with a pole 3e-3 outside it,
    # which converges only at 32,768 nodes
    pieces = (arcs(Polygon((2 + 0j, 3 + 0j, 3 + 1j, 2 + 1j))) + arcs(Ellipse(5 + 0j, 2.0, 0.3, 0.4))
              + arcs(Disk(0j, 1.0)))

    def g(t, z, s1, w):
        return np.stack([np.ones_like(z), z ** -3, 1 / (z - 1.003)]) @ w

    sizes = []

    def f(spans, t, z, s1, w):
        sizes.append(t.size)
        return [g(t[c], z[c], s1[c], w[c]) for _, c in spans]

    got = integrate_arc(f, pieces, TIGHT, rows=rows)
    assert sizes == LADDER_CALLS[rows]
    for arc, val in zip(pieces, got):
        want, levels = ladder_reference(g, arc, TIGHT.abs_tol)
        assert val.tobytes() == want.tobytes()
    assert levels[-2:] == [8192, 16384]


def test_real_and_imaginary_parts_tested_separately():
    (arc,) = arcs(Disk(0, 1.0))
    val = integrate_arc(each_piece(lambda t, z, s1, w: (z ** 2 + 1j * (z * np.conj(z))) @ w),
                        [arc], TIGHT)[0]
    assert abs(complex(val) - 2j * math.pi) < 1e-10


def test_open_ladder_is_nested_and_exact_for_constants():
    # the double-exponential map on the midpoint ladder: every level adds new
    # nodes, both endpoint distances are positive and consistent, and the
    # weights integrate 1
    seen, total = set(), 0.0
    for _, (u, wu, keep, count) in zip(range(4), _trapezoid_levels()):
        t, s1, jac = _open_nodes(u)
        assert (t > 0).all() and (s1 > 0).all()
        assert np.abs(t + s1 - 1.0).max() <= 2 * np.finfo(float).eps
        # the distance from the nearer end names a node exactly
        keys = set(zip(t <= s1, np.minimum(t, s1)))
        assert len(keys) == u.size and not keys & seen
        seen |= keys
        total = math.fsum(wu * jac) + keep * total
        assert len(seen) == count and abs(total - 1.0) <= 1e-15
