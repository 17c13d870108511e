"""Discretized Seiberg-Witten energy on a flat periodic 4-torus.

The package splits along the objects of the problem: `lattice` holds the
mesh and the discrete exterior calculus, `clifford` the spinor algebra,
`fields` the configuration data model and gauge action, `operators` the
covariant first-order operators, `functional` the energy and its exact
gradient, `gaugefix` the Coulomb normal form and the spectral Sobolev
constants, `optimize` the descent loop, and `cli` the `swflow` command.
"""

from .lattice import (
    PLANES,
    Lattice,
    codiff1,
    codiff2,
    d0,
    d1,
    hodge_star2,
    l2_inner,
    l2_norm,
    laplacian0,
    linf_norm,
    poisson_solve,
    selfdual_project,
    sobolev12_norm,
)
from .clifford import BIVECTORS, SIGMA, quadratic_form
from .fields import (
    Configuration,
    GaugeField,
    GaugeTransform,
    apply_gauge,
    load_configuration,
    random_configuration,
    save_configuration,
)
from .operators import (
    covariant_diff,
    covariant_diff_adjoint,
    curvature,
    curvature_at_sites,
    dirac,
    dirac_adjoint,
    link_phases,
)
from .functional import (
    ExcessReport,
    Gradient,
    energy_first_order,
    energy_lower_bound,
    energy_weitzenbock,
    excess_report,
    gradient,
    sw_equation_residual,
)
from .gaugefix import (
    GaugeFixReport,
    HodgeConstants,
    full_gauge_fix,
    gauge_distance,
    hodge_constants,
)
from .optimize import (
    LineSearchFailure,
    MinimizeParams,
    NonDescentDirectionError,
    PSDiagnostics,
    Trajectory,
    TrajectoryRecord,
    descent_pairing,
    line_search,
    minimize,
    ps_diagnostics,
)
from .checks import CheckResult, run_checks, smooth_configuration

# every name imported above; the submodules themselves are not re-exported
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, type(lattice))]
