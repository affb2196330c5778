import math

import numpy as np
import pytest

from anacap.basis import CornerAdapted, PowerPole, SimplePole
from anacap.geometry import ArcChain, CircularArc, Disk, Polygon, Scene, Segment, scene
from anacap.sublab import max_sweep_radius, random_configuration


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


def eighteen_disks() -> list:
    """The 18 disks of a disk_sweep record, at 0.4 of the sweep's cap."""
    centers = random_configuration(18, 3)
    r = 0.4 * max_sweep_radius(centers)
    return [Disk(c, r) for c in centers]


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


def row_per_member_eval(funcs, z, corner_subs=None):
    """Basis values with one row per member and every factor recomputed for
    each member: the ungrouped expressions that ``BasisSet.eval_all`` must
    reproduce bit for bit."""
    z = np.asarray(z, complex)
    zf = z.reshape(-1)
    out = np.empty((len(funcs), zf.size), complex)
    si = [i for i, b in enumerate(funcs) if isinstance(b, SimplePole)]
    pi = [i for i, b in enumerate(funcs) if isinstance(b, PowerPole)]
    ci = [i for i, b in enumerate(funcs) if isinstance(b, CornerAdapted)]
    if si:
        sa = np.array([funcs[i].a for i in si], complex)
        out[si] = 1.0 / (zf[None, :] - sa[:, None])
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
        for pt, delta in corner_subs or ():
            num[ca == pt] = np.reshape(delta, -1)
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
