"""Preconditioned gradient eigensolvers with certified sharp bounds.

The package implements the solver hierarchy INVIT(1), PINVIT(1),
INVIT(2) (steepest descent) and PSD (preconditioned steepest descent)
for symmetric positive definite pencils, the closed-form per-step
convergence factors of each solver, a certification harness checking
every step against its factor, and the worst-case cone geometry that
attains the PSD factor.
"""

from .bounds import (
    BoundCheck,
    BoundFactors,
    SolverKind,
    certify_step,
    delta,
    factors,
    kappa,
    locate_interval,
    sigma,
)
from .conelab import (
    ConeSpec,
    WorstCaseResult,
    WorstCaseSetup,
    axis_ratio_closed_form,
    brute_force_cone_min,
    extremal_directions,
    ritz_gap,
    ritz_on_segment,
    t_star,
    three_d_concentration_check,
    worst_aligned_preconditioner,
    worst_case_instance,
    worst_direction,
)
from .errors import (
    DegenerateSubspaceError,
    IntervalError,
    MatrixMarketError,
    NumericFailure,
    StationaryPointError,
)
from .iterate import (
    IterationRecord,
    RunResult,
    StepResult,
    pinvit1_step,
    psd_step,
    run,
)
from .pencil import (
    DiagonalForm,
    RayleighValue,
    RitzPair,
    Spectrum,
    SymmetricPencil,
    diagonalize,
    generate_problem,
    orthonormalize,
    rayleigh,
    rayleigh_ritz,
    residual,
)
from .precond import (
    Preconditioner,
    PrecondQuality,
    estimate_quality,
    exact_inverse_preconditioner,
    identity_preconditioner,
    jacobi_preconditioner,
    rescale,
    synthetic_gamma_preconditioner,
)

__version__ = "0.1.0"
