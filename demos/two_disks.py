"""Capacity of two unit disks centered at -2 and +2.

This configuration has an exact answer through Jacobi theta functions, which
makes it the canonical convergence check: simple poles on interior rings give
brackets that tighten to thirteen digits within a few dozen poles per disk.
"""

import anacap as ac

SCENE = ac.scene([ac.Disk(2 + 0j, 1.0), ac.Disk(-2 + 0j, 1.0)])

exact_value = ac.two_disk_capacity(2, 1)
print(f"exact capacity (theta formula) : {exact_value:.19f}")
print()
print(f"{'poles/disk':>10} {'lower bound':>22} {'upper bound':>22} {'gap':>10}")
for layers in range(5):
    res = ac.gamma_bounds(SCENE, ac.Rings(layers))
    n = 4 * layers + 1
    print(f"{n:>10} {res.lower:>22.15f} {res.upper:>22.15f} "
          f"{res.upper - res.lower:>10.2e}")

res = ac.gamma_bounds(SCENE, ac.Rings(4))
assert res.lower <= exact_value <= res.upper
print()
print(f"final bracket contains the exact value: "
      f"{res.lower:.15f} <= {exact_value:.15f} <= {res.upper:.15f}")
