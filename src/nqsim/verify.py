"""Invariant batteries behind the `verify` subcommand and the acceptance suite.

Each suite runs a replica ensemble (or, for algebra, a batch of exact solves)
and turns the tracked violation counters into a flat list of pass/fail
invariant results with first-violation details.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .algebra import Family, Infeasible, Unique, solve_occupancy_asym, solve_occupancy_sym
from .dynamics import MaxRule, MinRule
from .ensemble import FLAG_NAMES, EnsembleRequest, run_ensemble
from .limits import enumerate_limits
from .observers import STABILITY_WINDOW, limit_floats, nearest_limit
from .ring import Neighborhood, potentials
from .scaling import classify_final_ties, sign_test_p

SUITE_NAMES = ("asym-odd", "asym-even", "sym", "appendix", "algebra")
# The appendix pair-share check allows a deviation of at least this much, and
# more where R fair binomial shares of T steps exceed it with a larger chance
# than PAIR_SHARE_FALSE_ALARM.
PAIR_SHARE_TOLERANCE = 0.05
PAIR_SHARE_FALSE_ALARM = 1e-6


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


def pair_share_tolerance(steps: int, replicas: int) -> float:
    """max(0.05, d / T): d is the least integer with R P(|Bin(T, 1/2) - T/2| >= d) <= 1e-6.

    P(|X - T/2| >= d) = 2 P(X <= (T - 2d) // 2) for d >= 1, the sign test's
    two-sided p-value.  The first evaluation, at d = T // 20, decides whether
    0.05 stands; only where it does not are larger d bisected.
    """

    def alarm(d: int) -> bool:  # whether R P(|X - T/2| >= d) exceeds the false-alarm rate
        k = (steps - 2 * d) // 2
        return k >= 0 and replicas * sign_test_p(k, steps) > PAIR_SHARE_FALSE_ALARM

    lo = steps // 20  # the largest d with d / T <= 0.05
    if not alarm(lo):
        return PAIR_SHARE_TOLERANCE
    hi = steps // 2 + 1  # no deviation reaches it
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if alarm(mid) else (lo, mid)
    return hi / steps


def _check_steps(suite: str, steps: int) -> None:
    if steps < 1:  # an empty run checks nothing; fraction_bound divides by steps
        raise ValueError(f"{suite} suite needs steps >= 1, got {steps}")


def _suite_asym(m: int, steps: int, replicas: int, seed: int, suite: str) -> VerificationReport:
    parity = suite.removeprefix("asym-")
    even = m % 2 == 0
    if parity != ("even" if even else "odd"):
        raise ValueError(f"{suite} suite needs {parity} M, got {m}")
    _check_steps(suite, steps)
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
            check_bounds=True,
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


def suite_sym(m: int, steps: int, replicas: int, seed: int) -> VerificationReport:
    _check_steps("sym", steps)
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
    flags = result.final_half_flags
    invariants = [
        _count_invariant(f"no-{name.replace('_', '-')}-final-half", flags[:, col])
        for col, name in enumerate(FLAG_NAMES)
    ]
    invariants.append(_count_invariant("Q-nondecreasing", result.q_violations))
    invariants.append(_count_invariant("W-nonincreasing", result.w_violations))
    invariants.append(
        _count_invariant("isolated-zero-persistence", result.persistence_violations)
    )
    # The limit set grows fast with M; it is enumerated only if a replica is stable.
    stable = result.run_length >= STABILITY_WINDOW
    limits = enumerate_limits(m) if stable.any() else ()
    x = limit_floats(limits)
    fractions = result.empirical_fractions
    rows = (nearest_limit(fractions[r], x)[0] for r in np.flatnonzero(stable))
    matched = [limits[row] for row in rows if row is not None]
    starred_hits = sum(1 for c in matched if not c.achievable_from_empty)
    invariants.append(
        InvariantResult(
            "matched-limits-reachable-from-empty",
            starred_hits == 0,
            None,
            {
                "stable_replicas": int(stable.sum()),
                "matched_replicas": len(matched),
                "starred_matches": starred_hits,
            },
        )
    )
    config = {"m": m, "steps": steps, "replicas": replicas, "seed": seed}
    return VerificationReport("sym", config, invariants)


def suite_appendix(
    m: int, kind: Neighborhood, steps: int, replicas: int, seed: int
) -> VerificationReport:
    _check_steps("appendix", steps)
    result = run_ensemble(
        EnsembleRequest(
            m=m,
            kind=kind,
            rule=MaxRule(),
            steps=steps,
            replicas=replicas,
            seed=seed,
            track_last_seen=True,
        )
    )
    outcomes = classify_final_ties(result.u, result.last_seen, kind)
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
        tolerance = pair_share_tolerance(steps, replicas)
        invariants.append(
            InvariantResult(
                "adjacent-pair-shares-half",
                worst <= tolerance,
                None,
                {"max_share_deviation": worst, "tolerance": tolerance},
            )
        )
    config = {"m": m, "kind": kind.value, "steps": steps, "replicas": replicas, "seed": seed}
    return VerificationReport("appendix", config, invariants)


def _reproduces(base: tuple, u: tuple, kind: Neighborhood) -> bool:
    """Whether the Fraction occupancy `base` has potentials `u`.

    Integer potentials have integral bases, so the sums run on the numerators
    without building a Fraction; other bases fall back to Fraction sums.
    """
    if all(x.denominator == 1 for x in base):
        return potentials([x.numerator for x in base], kind) == u
    return potentials(base, kind) == u


# Cells (trials x columns) drawn at once by an algebra battery; bounds its arrays.
ALGEBRA_BATCH_CELLS = 2**14
# The suite refuses a ring whose estimated footprint (`algebra_bytes`) exceeds
# this, the limit of `simulate` and of the ensemble.
MAX_ALGEBRA_BYTES = 2**32
# `algebra_bytes` per cell of a batch: the drawn cases, their potentials and
# their lists, and one trial's solver lists and Fraction tuple.  Measured
# tracemalloc peaks of the whole suite: 146-220 bytes per site at M = 1e4,
# 1e5 and 1e6 (2 trials, one case per batch), 110 per cell at M = 7.
_ALGEBRA_CELL_BYTES = 256


def algebra_bytes(m: int) -> int:
    """Estimated peak bytes of `suite_algebra` on ring size m, whatever the trials.

    Its batteries run on rings of up to m + 2 sites, and a batch holds at
    most ALGEBRA_BATCH_CELLS cells, or one case of a larger ring.
    """
    return max(m + 2, ALGEBRA_BATCH_CELLS) * _ALGEBRA_CELL_BYTES


def suite_algebra(m: int, seed: int, trials: int = 1000) -> VerificationReport:
    """Round-trip, family-substitution and infeasibility batteries.

    Uniqueness needs odd M (asymmetric) / M not divisible by 3 (symmetric);
    the family and infeasibility checks need the complementary parities.  The
    requested m is nudged to the nearest size of the right kind for each
    check, recorded in the detail.

    Each battery draws its cases in batches of at most ALGEBRA_BATCH_CELLS
    cells, and takes the potentials of a whole batch at once.  A batch of n
    rows is the n cases that n draws of one case each would give, in order,
    so the report does not depend on the batch size.  A ring whose footprint
    exceeds MAX_ALGEBRA_BYTES is refused before anything is drawn.
    """
    if m < 4:
        raise ValueError(f"algebra suite needs M >= 4, got {m}")
    if trials < 1:  # zero trials would pass every invariant vacuously
        raise ValueError(f"algebra suite needs trials >= 1, got {trials}")
    need = algebra_bytes(m)
    if need > MAX_ALGEBRA_BYTES:
        raise ValueError(
            f"algebra suite at M={m} needs about {need / 2**20:.0f} MiB, "
            f"above the {MAX_ALGEBRA_BYTES / 2**20:.0f} MiB limit"
        )
    rng = np.random.default_rng(seed)
    asym, sym = Neighborhood.ASYMMETRIC, Neighborhood.SYMMETRIC
    solvers = {asym: solve_occupancy_asym, sym: solve_occupancy_sym}

    def battery(
        id_: str, kind: Neighborhood, size: int, passes: Callable, bumped: bool = False
    ) -> InvariantResult:
        """`trials` calls of `passes(kind, xi, u)` on drawn cases, counting the false ones.

        A case is `size` occupancies in [0, 20) and their potentials; in a
        bumped case the occupancies are in [0, 15) and a last drawn column
        names the potential raised by 1.
        """
        high = np.array([15] * size + [size]) if bumped else 20
        width = size + bumped
        per_batch = max(1, ALGEBRA_BATCH_CELLS // width)
        failures = 0
        for start in range(0, trials, per_batch):
            cases = rng.integers(0, high, size=(min(per_batch, trials - start), width))
            xi = cases[:, :size]
            u = sum(np.roll(xi, -d, axis=1) for d in kind.offsets)
            if bumped:
                u[np.arange(len(u)), cases[:, size]] += 1
            failures += sum(
                not passes(kind, tuple(x), tuple(v)) for x, v in zip(xi.tolist(), u.tolist())
            )
        return InvariantResult(
            id_, failures == 0, None, {"trials": trials, "failures": failures, "m": size}
        )

    def unique(kind: Neighborhood, xi: tuple, u: tuple) -> bool:
        outcome = solvers[kind](u)
        return isinstance(outcome, Unique) and outcome.xi == xi

    def family(kind: Neighborhood, xi: tuple, u: tuple) -> bool:
        outcome = solvers[kind](u)
        return isinstance(outcome, Family) and _reproduces(outcome.base, u, kind)

    def infeasible(condition: str, kind: Neighborhood, xi: tuple, u: tuple) -> bool:
        # Potentials of an occupancy satisfy the sum condition; bumping a
        # single entry breaks it by exactly 1.
        outcome = solvers[kind](u)
        return isinstance(outcome, Infeasible) and outcome.condition == condition

    m_odd = m if m % 2 == 1 else m + 1
    m_even = m if m % 2 == 0 else m + 1
    m_non3 = m if m % 3 != 0 else m + 1
    m_div3 = m if m % 3 == 0 else m + (3 - m % 3)
    invariants = [
        battery("round-trip-unique-asym", asym, m_odd, unique),
        battery("round-trip-unique-sym", sym, m_non3, unique),
        battery("family-base-reproduces-potentials-asym", asym, m_even, family),
        battery("family-base-reproduces-potentials-sym", sym, m_div3, family),
        battery("infeasible-parity-detected", asym, m_even, partial(infeasible, "parity"), True),
        battery("infeasible-mod3-detected", sym, m_div3, partial(infeasible, "mod3"), True),
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
    if suite in ("asym-odd", "asym-even"):
        return _suite_asym(m, steps, replicas, seed, suite)
    if suite == "sym":
        return suite_sym(m, steps, replicas, seed)
    if suite == "appendix":
        if kind is None:
            raise ValueError("appendix suite needs a neighbourhood kind")
        return suite_appendix(m, kind, steps, replicas, seed)
    if suite == "algebra":
        return suite_algebra(m, seed, trials)
    raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
