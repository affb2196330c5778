"""A 5x5 grid of disks of radius 0.4 on the integer lattice.

This is a reconstruction of a classic many-component example (the original
layout is known only from a figure, so the numbers below are properties of
*this* grid, not reference values).  It shows the solver scaling to 25
boundary components with closed-form disk blocks.
"""

import anacap as ac

shapes = [ac.Disk(complex(i, j), 0.4) for i in range(5) for j in range(5)]
SCENE = ac.scene(shapes)

print(f"{'poles/disk':>10} {'lower':>20} {'upper':>20} {'time':>8}")
for layers in (0, 1, 2):
    res = ac.gamma_bounds(SCENE, ac.Rings(layers))
    print(f"{4 * layers + 1:>10} {res.lower:>20.12f} {res.upper:>20.12f} "
          f"{res.wall_time:>7.2f}s")

print("\nmonotone tightening with the pole count, as for every nested ladder")
