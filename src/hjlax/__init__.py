"""Fundamental solutions, Lax-Oleinik operators, and intrinsic regularization
for discounted Hamilton-Jacobi equations at desk scale."""

from .errors import (
    BoxExhausted,
    ConeViolation,
    ConfigError,
    HJLaxError,
    InsufficientSamples,
    InvalidHorizon,
    NonContraction,
    NonConvergence,
    NonUniqueMaximizer,
    NotSemiconcave,
    NotSingular,
    OutOfWindow,
)
from .lagrangian import (
    AnalyticKernel,
    GrowthRecord,
    Hamiltonian,
    LegendreResult,
    TonelliLagrangian,
    anisotropic_lagrangian,
    catalog,
    discount_lift,
    free_lagrangian,
    hamiltonian_for,
    legendre_transform,
    mechanical_lagrangian,
    verify_tonelli,
)
from .report import ProbeReport, dump_json
from .gridfn import GridFunction, GridSpec
from .action import (
    Curve,
    FundamentalSolution,
    action_values_batch,
    minimize_action,
    probe_compact_containment,
    probe_midpoint_defects,
    probe_velocity_bounds,
)
from .laxoleinik import (
    MaximizerRecord,
    OperatorResult,
    estimate_kappa0,
    lax_minus,
    lax_plus,
    require_unique_maximizer,
)
from .discounted import (
    DiscountedSolution,
    discounted_step,
    lift_to_evolution,
    solve_discounted,
)
from .lasrylions import (GradientComparison, RegularizationSweep,
                         RegularizedField, SingularTrace, aitken_extrapolants,
                         convergence_sweep, default_probe_points,
                         gradient_limit_vs_qx, intrinsic_regularize,
                         trace_singularity)
from .regularity import (
    SingularSet,
    SuperdiffSet,
    brute_force_H_min,
    grid_classification,
    limiting_differentials,
    min_H_over_superdiff,
    semiconcavity_constant,
    singular_set,
    superdifferential,
)

__version__ = "0.1.0"
