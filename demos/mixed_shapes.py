"""A mixed scene: a disk plus two half-disks (piecewise-analytic boundary).

Half-disks have two corners each where the diameter meets the semicircle, so
the schedule combines interior-anchor power poles with corner-adapted
fractional-power functions.  The unit disk and the two half-unit-disks are
centered at 0, 3, and 3i.
"""

import math

import anacap as ac


def half_disk(center, r=0.5):
    return ac.ArcChain((
        ac.Segment(center - r, center + r),
        ac.CircularArc(center, r, 0.0, math.pi),
    ))


SCENE = ac.scene([ac.Disk(0j, 1.0), half_disk(3 + 0j), half_disk(3j)])

for shape in SCENE.shapes[1:2]:
    for c in ac.corners(ac.arcs(shape)):
        print(f"corner at {c.location:.3f} with complement angle "
              f"{c.omega_angle / math.pi:.3f} pi")

print(f"\n{'n':>3} {'lower':>20} {'upper':>20} {'gap':>10}")
for n in (2, 3, 4):
    res = ac.gamma_bounds(SCENE, ac.Powers(n, with_corners=True))
    print(f"{n:>3} {res.lower:>20.12f} {res.upper:>20.12f} "
          f"{res.upper - res.lower:>10.2e}")
