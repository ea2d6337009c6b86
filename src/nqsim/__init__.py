"""Toolkit for neighbour-coupled sequential allocation on a cyclic lattice.

Simulates the min-potential, softmax and max-potential allocation chains,
solves the occupancy/potential linear systems exactly, enumerates the stable
limiting configurations of the symmetric dynamics, and verifies the model's
structural invariants at desk scale.
"""
from .algebra import (
    Family,
    Infeasible,
    SolveOutcome,
    Unique,
    mod3_invariant,
    parity_invariant,
    solve_occupancy_asym,
    solve_occupancy_sym,
)
from .dynamics import (
    AllocationRule,
    ChainState,
    MaxRule,
    MinRule,
    RandomStream,
    Softmax,
    TrajectoryRecord,
    parse_rule,
    run,
    step,
    transition_distribution,
)
from .ensemble import EnsembleRequest, EnsembleResult, run_ensemble
from .limits import (
    LimitConfiguration,
    RotationClass,
    brute_force_oracle,
    enumerate_limits,
    is_limit_configuration,
    rotation_classes,
    summary_counts,
    tag_achievability,
)
from .observers import (
    ConvergenceVerdict,
    LevelLog,
    ParityGapSeries,
    RenewalCounter,
    detect_convergence,
    parity_gap,
    pattern,
    pattern_str,
    stat_Q,
    stat_S,
    stat_W,
)
from .ring import (
    Neighborhood,
    neighborhood,
    potentials,
    reduce_potential,
)
from .scaling import (
    FreezeOutcome,
    SigmaEstimate,
    classify_freeze,
    estimate_sigma,
    total_variation,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"
