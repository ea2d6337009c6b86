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
)
from .ensemble import EnsembleRequest, EnsembleResult, run_ensemble
from .limits import (
    LimitConfiguration,
    RotationClass,
    brute_force_oracle,
    enumerate_limits,
    rotation_classes,
    summary_counts,
    tag_achievability,
)
from .observers import (
    ConvergenceVerdict,
    LevelLog,
    ParityGapSeries,
    detect_convergence,
    pattern_str,
)
from .ring import Neighborhood, potentials, reduce_potential
from .scaling import FreezeOutcome, SigmaEstimate, estimate_sigma
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"
