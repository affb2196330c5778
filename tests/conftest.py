import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anacap
from anacap.basis import CornerAdapted, PowerPole
from anacap.errors import DomainError
from anacap.exact import nome_from_geometry, theta2, theta3, theta4
from anacap.geometry import ArcChain, CircularArc, Disk, Polygon, Scene, Segment, scene
from anacap.sublab import max_sweep_radius, random_configuration


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean, iterated to 1e-15 relative agreement."""
    while abs(a - b) > 1e-15 * abs(a):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def murai_capacity(c: float, r: float) -> float:
    """Two-disk capacity by Murai's formula (with the corrected factor c),
    a second closed form to check ``exact.two_disk_capacity`` against:

        gamma = (2/pi) c k F(k) tanh((pi/2) F(k') / F(k)),

    k = theta2(q)^2/theta3(q)^2 and F the complete elliptic integral of the
    first kind.  k' = theta4^2/theta3^2 rather than sqrt(1 - k^2), which
    loses k' as the disks touch, and F(k) = pi/(2 agm(1, k')),
    F(k') = pi/(2 agm(1, k)).  A k' below the normal range (1 - r/c under
    about 6e-6) is a DomainError.
    """
    q = nome_from_geometry(c, r)
    t3 = theta3(q) ** 2
    k = theta2(q) ** 2 / t3
    kp = theta4(q) ** 2 / t3
    if kp < sys.float_info.min:
        raise DomainError(f"complementary modulus underflows at r={r}, c={c}")
    F = 0.5 * math.pi / agm(1.0, kp)
    Fp = 0.5 * math.pi / agm(1.0, k)
    return (2.0 / math.pi) * c * k * F * math.tanh(0.5 * math.pi * Fp / F)


@pytest.fixture
def two_disks() -> Scene:
    return scene([Disk(2 + 0j, 1.0), Disk(-2 + 0j, 1.0)])


@pytest.fixture
def unit_square() -> Scene:
    return scene([Polygon((1 + 0j, 1j, -1 + 0j, -1j))])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def half_disk(center: complex, r: float = 0.5) -> ArcChain:
    """Half-disk over the diameter [center - r, center + r]: two corners."""
    return ArcChain((Segment(center - r, center + r), CircularArc(center, r, 0.0, math.pi)))


# disk plus two half-disks: power poles on the disk, corner groups on the chains
MIXED_SHAPES = (Disk(0j, 1.0), half_disk(3 + 0j), half_disk(3j))


def crescent(shift: float) -> ArcChain:
    """The unit circle's arc over [-80, 80] degrees, closed by an arc about
    ``shift`` through its two ends, turning back: 1 - shift - |e^{ia} - shift|
    thick on the real axis (0.040 at shift -0.05, 0.008 at -0.01)."""
    a = math.radians(80)
    top, bottom = cmath.exp(1j * a) - shift, cmath.exp(-1j * a) - shift
    return ArcChain((CircularArc(0j, 1.0, -a, a),
                     CircularArc(shift + 0j, abs(top), cmath.phase(top), cmath.phase(bottom))))


def eighteen_disks() -> list:
    """The 18 disks of a disk_sweep record, at 0.4 of the sweep's cap."""
    centers = random_configuration(18, 3)
    r = 0.4 * max_sweep_radius(centers)
    return [Disk(c, r) for c in centers]


def cantor_disks(generation: int) -> list:
    """The disks of generation g of the corner-quarter Cantor set: the unit
    square's four corner squares of a quarter its side, taken g times, each
    of the 4^g squares with its inscribed disk; each disk's three siblings
    come right after it."""
    corners, side = [0j], 1.0
    for _ in range(generation):
        side /= 4
        corners = [c + dx + 1j * dy for c in corners for dx in (0, 3 * side)
                   for dy in (0, 3 * side)]
    return [Disk(c + (0.5 + 0.5j) * side, side / 2) for c in corners]


def each_piece(g):
    """An ``integrate_arc`` integrand from g(t, z, s1, w), the weighted sum of
    one part's values: g runs on each part of a call alone."""
    return lambda spans, t, z, s1, w: [g(t[c], z[c], s1[c], w[c]) for _, c in spans]


def random_points(rng, n, box=4.0, min_sep=0.5):
    pts = []
    while len(pts) < n:
        cand = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(cand - p) > min_sep for p in pts):
            pts.append(cand)
    return pts


def principal_value(b, z: complex) -> complex:
    """A basis member's value at z by its principal-branch formula, written
    out in ``cmath``: (z - c)^-k, or exp(beta log((z - a)/(z - c))) (z - c)^-k
    for a corner member.  An independent reference for ``BasisSet.eval_all``,
    which computes the power in real arithmetic."""
    if isinstance(b, CornerAdapted):
        return cmath.exp(b.beta * cmath.log((z - b.a) / (z - b.c))) * (z - b.c) ** (-b.k)
    return (z - b.c) ** (-b.k)


def row_per_member_eval(funcs, z, corner_subs=None):
    """Basis values with one row per member and every factor recomputed for
    each member: the ungrouped expressions that ``BasisSet.eval_all`` must
    reproduce bit for bit.  ``corner_subs`` is ``eval_all``'s list of
    (anchor, cols, delta): each member anchored there takes z - a = delta at
    the flattened nodes cols."""
    z = np.asarray(z, complex)
    zf = z.reshape(-1)
    out = np.empty((len(funcs), zf.size), complex)
    pi = [i for i, b in enumerate(funcs) if isinstance(b, PowerPole)]
    ci = [i for i, b in enumerate(funcs) if isinstance(b, CornerAdapted)]
    if pi:
        pc = np.array([funcs[i].c for i in pi], complex)
        pk = np.array([funcs[i].k for i in pi], int)
        out[pi] = (zf[None, :] - pc[:, None]) ** (-pk[:, None])
    if ci:
        cc = np.array([funcs[i].c for i in ci], complex)
        ca = np.array([funcs[i].a for i in ci], complex)
        cb = np.array([funcs[i].beta for i in ci], float)
        ck = np.array([funcs[i].k for i in ci], int)
        zc = zf[None, :] - cc[:, None]
        num = zf[None, :] - ca[:, None]
        for pt, cols, delta in corner_subs or ():
            num[ca == pt, cols] = delta
        w = num / zc
        # exp(beta ln|w|) (cos + i sin)(beta arg w), arg w = arctan2(Im w, Re w)
        beta = cb[:, None]
        mod = np.exp(beta * np.log(np.abs(w)))
        theta = beta * np.arctan2(w.imag, w.real)
        vals = np.empty(w.shape, complex)
        vals.real = mod * np.cos(theta)
        vals.imag = mod * np.sin(theta)
        np.multiply(vals, zc ** (-ck[:, None]), out=vals)
        out[ci] = vals
    return out.reshape((len(funcs),) + z.shape)


def same_bits(x, y) -> bool:
    """True iff two complex arrays have the same shape and the same bits."""
    x, y = np.asarray(x, complex), np.asarray(y, complex)
    return x.shape == y.shape and np.array_equal(x.reshape(-1).view(np.uint64),
                                                 y.reshape(-1).view(np.uint64))


SRC = str(Path(anacap.__file__).resolve().parents[1])


def run_fresh(*argv: str, cwd=None) -> str:
    """The standard output of ``python *argv`` (``"-c", code``, say) in a
    fresh interpreter that imports this ``anacap``."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    out = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout
