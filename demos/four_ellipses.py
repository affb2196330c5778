"""Four ellipses (semi-axes 2 and 1) centered at -3, 3, 10i, -10i.

No circles, so every Gram integral goes through the periodic trapezoid
rule, which converges geometrically on these analytic boundaries; convergence
in the ring-pole count is geometric too.  Pass ``--full`` for the
high-accuracy ladder (a few seconds).
"""

import sys

import anacap as ac

SCENE = ac.scene([
    ac.Ellipse(-3 + 0j, 2.0, 1.0),
    ac.Ellipse(3 + 0j, 2.0, 1.0),
    ac.Ellipse(10j, 2.0, 1.0),
    ac.Ellipse(-10j, 2.0, 1.0),
])

layer_ladder = (0, 1, 2) if "--full" not in sys.argv else (0, 2, 4, 6, 8)
print(f"{'poles/ellipse':>14} {'lower':>20} {'upper':>20} {'gap':>10} {'time':>8}")
for layers in layer_ladder:
    res = ac.gamma_bounds(SCENE, ac.Rings(layers))
    print(f"{4 * layers + 1:>14} {res.lower:>20.12f} {res.upper:>20.12f} "
          f"{res.upper - res.lower:>10.2e} {res.wall_time:>7.1f}s")

print("\nthe bracket converges to about 5.3719956")
