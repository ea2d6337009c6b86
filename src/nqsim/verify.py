"""Invariant batteries behind the `verify` subcommand and the acceptance suite.

Each suite runs a replica ensemble (or, for algebra, a batch of exact solves)
and turns the tracked violation counters into a flat list of pass/fail
invariant results with first-violation details.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Family, Infeasible, Unique, solve_occupancy_asym, solve_occupancy_sym
from .dynamics import MaxRule, MinRule
from .ensemble import (
    FLAG_NAMES, EnsembleRequest, EnsembleResult, final_half_flag_counts, run_ensemble,
)
from .limits import LimitConfiguration, enumerate_limits
from .observers import match_limit
from .ring import Neighborhood, potentials
from .scaling import classify_freeze

SUITE_NAMES = ("asym-odd", "asym-even", "sym", "appendix", "algebra")


@dataclass(frozen=True)
class InvariantResult:
    id: str
    passed: bool
    first_violation_step: int | None = None
    detail: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "passed": self.passed,
            "first_violation_step": self.first_violation_step,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    suite: str
    config: dict
    invariants: list[InvariantResult]

    @property
    def passed(self) -> bool:
        return all(inv.passed for inv in self.invariants)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "invariants": [inv.to_json_dict() for inv in self.invariants],
        }


def _count_invariant(id_: str, violations: np.ndarray, first_step=None, **extra) -> InvariantResult:
    total = int(violations.sum())
    detail = {"replicas_with_violations": int((violations > 0).sum()), **extra}
    step = None
    if first_step is not None:
        hits = first_step[first_step >= 0]
        step = int(hits.min()) if hits.size else None
    return InvariantResult(id_, total == 0, step, detail)


def fraction_bound(m: int, steps: int) -> float:
    """Tolerance for |xi_i(T)/T - 1/M| implied by the bounded-residual form."""
    return 2 * m * (m - 1) / steps + 1e-3


def _suite_asym(m: int, steps: int, replicas: int, seed: int, suite: str) -> VerificationReport:
    even = m % 2 == 0
    result = run_ensemble(
        EnsembleRequest(
            m=m,
            kind=Neighborhood.ASYMMETRIC,
            rule=MinRule(),
            steps=steps,
            replicas=replicas,
            seed=seed,
            track_levels=True,
            track_renewals=True,
            check_parity=even,
            check_comb_final_half=True,
            check_residual_final_half=True,
        )
    )
    invariants = [
        _count_invariant(
            "neighbour-difference-bound-final-half",
            result.comb_violations,
            max_seen=result.comb_max_seen,
        ),
        _count_invariant("residual-bound-final-half", result.residual_violations),
        _count_invariant("S-nonincreasing", result.s_violations, result.first_s_violation_step),
    ]
    frac_dev = np.abs(result.empirical_fractions - 1.0 / m).max(axis=1)
    bound = fraction_bound(m, steps)
    invariants.append(
        InvariantResult(
            "empirical-fraction-bound",
            bool((frac_dev <= bound).all()),
            None,
            {"bound": bound, "max_deviation": float(frac_dev.max())},
        )
    )
    min_renewals = int(result.renewal_counts.min())
    invariants.append(
        InvariantResult(
            "renewal-recurrence",
            min_renewals >= 10,
            None,
            {"min_renewals": min_renewals, "required": 10},
        )
    )
    if even:
        invariants.insert(
            0,
            InvariantResult(
                "even-odd-potential-sums-equal",
                result.parity_violations == 0,
                result.first_parity_violation_step,
                {"violations": result.parity_violations},
            ),
        )
    config = {"m": m, "steps": steps, "replicas": replicas, "seed": seed}
    return VerificationReport(suite, config, invariants)


def suite_asym_odd(m: int, steps: int, replicas: int, seed: int) -> VerificationReport:
    if m % 2 == 0:
        raise ValueError(f"asym-odd suite needs odd M, got {m}")
    return _suite_asym(m, steps, replicas, seed, "asym-odd")


def suite_asym_even(m: int, steps: int, replicas: int, seed: int) -> VerificationReport:
    if m % 2 == 1:
        raise ValueError(f"asym-even suite needs even M, got {m}")
    return _suite_asym(m, steps, replicas, seed, "asym-even")


def analyze_convergence(
    result: EnsembleResult,
    limits: tuple[LimitConfiguration, ...],
    stability_window: int = 25,
    tolerance: float = 0.02,
) -> list[dict]:
    """Per-replica stability and limit matching from an ensemble with levels."""
    fractions = result.empirical_fractions
    out = []
    for r in range(result.request.replicas):
        stable = int(result.run_length[r]) >= stability_window
        matched, dist = match_limit(fractions[r], limits, tolerance) if stable else (None, None)
        out.append(
            {
                "stable": stable,
                "run_length": int(result.run_length[r]),
                "matched": matched,
                "distance": dist,
            }
        )
    return out


def suite_sym(m: int, steps: int, replicas: int, seed: int) -> VerificationReport:
    result = run_ensemble(
        EnsembleRequest(
            m=m,
            kind=Neighborhood.SYMMETRIC,
            rule=MinRule(),
            steps=steps,
            replicas=replicas,
            seed=seed,
            track_levels=True,
            store_level_flags=True,
        )
    )
    tail_flags = final_half_flag_counts(result)
    invariants = [
        _count_invariant(f"no-{name.replace('_', '-')}-final-half", tail_flags[:, col])
        for col, name in enumerate(FLAG_NAMES)
    ]
    invariants.append(_count_invariant("Q-nondecreasing", result.q_violations))
    invariants.append(_count_invariant("W-nonincreasing", result.w_violations))
    invariants.append(
        _count_invariant("isolated-zero-persistence", result.persistence_violations)
    )
    limits = enumerate_limits(m)
    verdicts = analyze_convergence(result, limits)
    matched = [v for v in verdicts if v["matched"] is not None]
    starred_hits = sum(1 for v in matched if not v["matched"].achievable_from_empty)
    invariants.append(
        InvariantResult(
            "matched-limits-reachable-from-empty",
            starred_hits == 0,
            None,
            {
                "stable_replicas": sum(1 for v in verdicts if v["stable"]),
                "matched_replicas": len(matched),
                "starred_matches": starred_hits,
            },
        )
    )
    config = {"m": m, "steps": steps, "replicas": replicas, "seed": seed}
    return VerificationReport("sym", config, invariants)


def freeze_outcomes(result: EnsembleResult) -> list:
    return [
        classify_freeze(result.sites[r].tolist(), result.request.m)
        for r in range(result.request.replicas)
    ]


def suite_appendix(
    m: int, kind: Neighborhood, steps: int, replicas: int, seed: int
) -> VerificationReport:
    result = run_ensemble(
        EnsembleRequest(
            m=m,
            kind=kind,
            rule=MaxRule(),
            steps=steps,
            replicas=replicas,
            seed=seed,
            record_sites=True,
        )
    )
    outcomes = freeze_outcomes(result)
    tags = [o.tag for o in outcomes]
    counts = {tag: tags.count(tag) for tag in ("single", "pair", "unfrozen")}
    per_replica = [
        {"replica": r, "tag": o.tag, "sites": list(o.sites), "freeze_time": o.freeze_time}
        for r, o in enumerate(outcomes)
    ]
    invariants = [
        InvariantResult(
            "all-replicas-frozen",
            counts["unfrozen"] == 0,
            None,
            {"counts": counts, "outcomes": per_replica},
        )
    ]
    if kind is Neighborhood.ASYMMETRIC:
        invariants.append(
            InvariantResult(
                "asymmetric-freezes-to-single-site",
                counts["pair"] == 0 and counts["unfrozen"] == 0,
                None,
                {"counts": counts},
            )
        )
    else:
        worst = 0.0
        for r, outcome in enumerate(outcomes):
            if outcome.tag == "pair":
                for site in outcome.sites:
                    share = float(result.xi[r, site - 1]) / steps
                    worst = max(worst, abs(share - 0.5))
        invariants.append(
            InvariantResult(
                "adjacent-pair-shares-half",
                worst <= 0.05,
                None,
                {"max_share_deviation": worst, "tolerance": 0.05},
            )
        )
    config = {"m": m, "kind": kind.value, "steps": steps, "replicas": replicas, "seed": seed}
    return VerificationReport("appendix", config, invariants)


def _random_occupancy(rng: np.random.Generator, m: int, high: int = 20) -> tuple[int, ...]:
    return tuple(rng.integers(0, high, size=m).tolist())


def suite_algebra(m: int, seed: int, trials: int = 1000) -> VerificationReport:
    """Round-trip, family-substitution and infeasibility batteries.

    Uniqueness needs odd M (asymmetric) / M not divisible by 3 (symmetric);
    the family and infeasibility checks need the complementary parities.  The
    requested m is nudged to the nearest size of the right kind for each
    check, recorded in the detail.
    """
    if m < 4:
        raise ValueError(f"algebra suite needs M >= 4, got {m}")
    rng = np.random.default_rng(seed)
    solvers = {
        Neighborhood.ASYMMETRIC: solve_occupancy_asym,
        Neighborhood.SYMMETRIC: solve_occupancy_sym,
    }

    def round_trip(kind: Neighborhood, size: int) -> InvariantResult:
        failures = 0
        for _ in range(trials):
            xi = _random_occupancy(rng, size)
            outcome = solvers[kind](potentials(xi, kind))
            if not (isinstance(outcome, Unique) and outcome.xi == xi):
                failures += 1
        return InvariantResult(
            f"round-trip-unique-{kind.value}",
            failures == 0,
            None,
            {"trials": trials, "failures": failures, "m": size},
        )

    def family_substitution(kind: Neighborhood, size: int) -> InvariantResult:
        failures = 0
        for _ in range(trials):
            u = potentials(_random_occupancy(rng, size), kind)
            outcome = solvers[kind](u)
            if not (
                isinstance(outcome, Family)
                and potentials(outcome.base, kind) == u
            ):
                failures += 1
        return InvariantResult(
            f"family-base-reproduces-potentials-{kind.value}",
            failures == 0,
            None,
            {"trials": trials, "failures": failures, "m": size},
        )

    def infeasible_by_construction(kind: Neighborhood, size: int, condition: str) -> InvariantResult:
        failures = 0
        for _ in range(trials):
            # Potentials of an occupancy satisfy the sum condition; bumping a
            # single entry breaks it by exactly 1.
            u = list(potentials(_random_occupancy(rng, size, high=15), kind))
            u[int(rng.integers(0, size))] += 1
            outcome = solvers[kind](u)
            if not (isinstance(outcome, Infeasible) and outcome.condition == condition):
                failures += 1
        return InvariantResult(
            f"infeasible-{condition}-detected",
            failures == 0,
            None,
            {"trials": trials, "failures": failures, "m": size},
        )

    m_odd = m if m % 2 == 1 else m + 1
    m_even = m if m % 2 == 0 else m + 1
    m_non3 = m if m % 3 != 0 else m + 1
    m_div3 = m if m % 3 == 0 else m + (3 - m % 3)
    invariants = [
        round_trip(Neighborhood.ASYMMETRIC, m_odd),
        round_trip(Neighborhood.SYMMETRIC, m_non3),
        family_substitution(Neighborhood.ASYMMETRIC, m_even),
        family_substitution(Neighborhood.SYMMETRIC, m_div3),
        infeasible_by_construction(Neighborhood.ASYMMETRIC, m_even, "parity"),
        infeasible_by_construction(Neighborhood.SYMMETRIC, m_div3, "mod3"),
    ]
    config = {"m": m, "seed": seed, "trials": trials}
    return VerificationReport("algebra", config, invariants)


def run_suite(
    suite: str,
    m: int,
    steps: int = 50000,
    replicas: int = 50,
    seed: int = 0,
    kind: Neighborhood | None = None,
    trials: int = 1000,
) -> VerificationReport:
    if suite == "asym-odd":
        return suite_asym_odd(m, steps, replicas, seed)
    if suite == "asym-even":
        return suite_asym_even(m, steps, replicas, seed)
    if suite == "sym":
        return suite_sym(m, steps, replicas, seed)
    if suite == "appendix":
        if kind is None:
            raise ValueError("appendix suite needs a neighbourhood kind")
        return suite_appendix(m, kind, steps, replicas, seed)
    if suite == "algebra":
        return suite_algebra(m, seed, trials)
    raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
