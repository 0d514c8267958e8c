"""Workbench for recurrence of weighted backward shifts.

Exact rational orbits and return sets, arithmetic-progression structure
of integer sets, constructive recurrence witness searches, and the
iterated-logarithm growth table — all decisions exact unless a float
mode is explicitly requested.
"""

from .errors import (
    BudgetExceededError,
    DomainError,
    InvalidArgumentError,
    ModeMismatchError,
    MonotonicityError,
    PreconditionError,
    SchemaError,
    StageFailureError,
    WorkbenchError,
)
from .families import (
    APWitness,
    ColoringResult,
    DensityEstimate,
    HitSet,
    coloring_avoids_progressions,
    density_report,
    find_ap,
    longest_ap,
    szemeredi_r,
    szemeredi_r_naive,
    vdw_check,
    verify_witness,
)
from .gowers import (
    GowersRow,
    gowers_bound,
    gowers_row,
    gowers_table,
    growth_profile,
    guaranteed_ap_length,
    is_vacuous_length,
    power_identity_residual,
    profile_inverse,
)
from .recurrence import (
    CriterionReport,
    NestedRefinement,
    NestedStage,
    PairWitness,
    RecurrenceWitness,
    inverse_witness,
    joint_return_count,
    lift_vector,
    membership_gap,
    multirec_candidate,
    multirec_witness,
    nested_ball_refinement,
    pair_recurrence_search,
    return_set,
    shift_ap_criterion,
    universal_vector,
    verify_return_times,
    verify_universal,
)
from .spaces import (
    BILATERAL,
    INF,
    UNILATERAL,
    BackwardShift,
    Ball,
    ConstantWeights,
    DirectSum,
    DoubleScalars,
    DyadicSqrtScalars,
    ExplicitScalars,
    ExplicitWeights,
    ExpSqrtScalars,
    FiniteVector,
    ForwardShift,
    OneScalars,
    Power,
    Scaled,
    SpaceSpec,
    UnitWeights,
    ValleyWeights,
    apply,
    in_ball,
    invert,
    operator_space,
    walk,
)

__version__ = "0.1.0"
