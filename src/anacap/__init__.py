"""anacap: certified bounds for the analytic capacity of plane compact sets.

The library computes upper and lower brackets for gamma(K) when K is a
disjoint union of disks, ellipses, polygons, and segment/arc chains, using
the dual boundary least-squares characterization of the capacity; they are
exact duality for the computed Gram data, whose rounding and quadrature
error are not budgeted yet (``anacap.solver``).  Exact
theta-function formulas, Melnikov's discrete capacity, and a sweep harness
for the subadditivity ratio round out the toolkit.
"""

from .basis import (
    BasisSet,
    CornerAdapted,
    Powers,
    PowerPole,
    Rings,
    build_basis,
)
from .discrete import (
    DiskConfiguration,
    DiscreteReport,
    alpha,
    alpha_geometric,
    beta,
    cauchy_matrix,
    delta,
    discrete_report,
    lambda_discrete,
    lambda_poly_bounds,
    melnikov_M,
    melnikov_N,
    predicted_slope,
    sandwich_check,
)
from .exact import (
    nome_from_geometry,
    ratio_f,
    square_capacity,
    theta2,
    theta3,
    theta4,
    two_disk_capacity,
)
from .geometry import (
    ArcChain,
    CircularArc,
    Corner,
    Disk,
    Ellipse,
    Polygon,
    Scene,
    Segment,
    arcs,
    corners,
    interior_anchor,
    scene,
    transform,
    validate_scene,
)
from .integrals import GramData, assemble_gram, circle_mean_integral, circle_pair_integral
from .quadrature import QuadratureSettings
from .solver import (
    BoundsResult,
    GramSystem,
    bounds_for_basis,
    gamma_bounds,
    lower_bound,
    upper_bound,
)
from .sublab import (
    SweepRecord,
    Verdict,
    asymptotic_check,
    gap_report,
    monotonicity_verdict,
    ratio_bounds,
    sweep,
)

__version__ = "0.1.0"
