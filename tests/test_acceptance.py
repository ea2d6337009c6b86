"""Acceptance battery.

Each test runs one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with `pytest -s`).  The simulation-backed
criteria use fixed seeds; every command here is deterministic, so the suite
either passes reproducibly or fails reproducibly.
"""
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from nqsim.algebra import Infeasible, Unique, solve_occupancy_asym, solve_occupancy_sym
from nqsim.dynamics import ChainState, MaxRule, MinRule, Softmax
from nqsim.ensemble import EnsembleRequest, run_ensemble
from nqsim.limits import brute_force_oracle, enumerate_limits, summary_counts
from nqsim.observers import match_limit
from nqsim.ring import Neighborhood, potentials
from nqsim.scaling import estimate_sigma, zeta_sign_test
from nqsim.verify import suite_appendix
from oracles import total_variation, transition_distribution

ASYM = Neighborhood.ASYMMETRIC
SYM = Neighborhood.SYMMETRIC

TABLE_SMALL = {
    # m: (all sequences, sequences achievable from empty)
    4: (2, 2), 5: (10, 5), 6: (2, 2), 7: (14, 7), 8: (18, 2), 9: (18, 9), 10: (42, 7),
}
TABLE_LARGE = {
    # m: (classes from empty, classes total, sequences from empty, sequences total)
    11: (1, 4, 11, 44),
    12: (2, 7, 14, 74),
    13: (1, 8, 13, 104),
    14: (3, 12, 23, 142),
    15: (2, 16, 20, 220),
    16: (3, 20, 34, 290),
}


def report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_small_table_counts():
    t0 = time.perf_counter()
    got = {}
    for m in TABLE_SMALL:
        counts = summary_counts(enumerate_limits(m))
        got[m] = (counts["all_total"], counts["all_from_empty"])
    elapsed = time.perf_counter() - t0
    report(
        "criterion-01 limiting-configuration counts, M=4..10",
        got == TABLE_SMALL and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_02_large_table_counts():
    t0 = time.perf_counter()
    got = {}
    for m in TABLE_LARGE:
        c = summary_counts(enumerate_limits(m))
        got[m] = (c["classes_from_empty"], c["classes_total"], c["all_from_empty"], c["all_total"])
    elapsed = time.perf_counter() - t0
    report(
        "criterion-02 limiting-configuration counts, M=11..16",
        got == TABLE_LARGE and elapsed < 60.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    ok = all(
        {c.x for c in enumerate_limits(m)} == {c.x for c in brute_force_oracle(m)}
        for m in range(4, 13)
    )
    elapsed = time.perf_counter() - t0
    report("criterion-03 generator equals brute-force oracle, M=4..12", ok and elapsed < 60.0,
           f"{elapsed:.2f}s")


def test_criterion_04_symmetric_convergence_m5():
    replicas, steps = 500, 200_000
    result = run_ensemble(
        EnsembleRequest(
            m=5, kind=SYM, rule=MinRule(), steps=steps, replicas=replicas, seed=2024,
            track_levels=True,
        )
    )
    limits = enumerate_limits(5)
    fractions = result.empirical_fractions
    target = (Fraction(1, 4), Fraction(1, 4), Fraction(0), Fraction(1, 2), Fraction(0))
    rotations = {target[r:] + target[:r] for r in range(5)}
    matched_labels = []
    failures = []
    for r in range(replicas):
        if int(result.run_length[r]) < 25:
            failures.append(f"replica {r} unstable")
            continue
        config, dist = match_limit(fractions[r], limits, tolerance=0.02)
        if config is None:
            failures.append(f"replica {r} unmatched (distance {dist:.4f})")
        elif config.x not in rotations:
            failures.append(f"replica {r} matched {config.label}")
        elif not config.achievable_from_empty:
            failures.append(f"replica {r} matched starred {config.label}")
        else:
            matched_labels.append(config.x)
    freq = Counter(matched_labels)
    freq_ok = len(freq) == 5 and all(
        0.14 <= count / replicas <= 0.26 for count in freq.values()
    )
    report(
        "criterion-04 symmetric M=5 convergence to rotations of (1/4,1/4,0,1/2,0)",
        not failures and freq_ok,
        f"{len(matched_labels)}/{replicas} matched, rotation freqs "
        + ",".join(f"{c / replicas:.3f}" for _, c in sorted(freq.items())),
    )


def test_criterion_05_asymmetric_odd_m5():
    m, steps, replicas = 5, 100_000, 50
    result = run_ensemble(
        EnsembleRequest(
            m=m, kind=ASYM, rule=MinRule(), steps=steps, replicas=replicas, seed=505,
            check_bounds=True,
        )
    )
    comb_ok = int(result.comb_violations.sum()) == 0
    resid_ok = int(result.residual_violations.sum()) == 0
    bound = 2 * m * (m - 1) / steps + 1e-3
    dev = float(np.abs(result.empirical_fractions - 1.0 / m).max())
    report(
        "criterion-05 asymmetric odd M=5 neighbour, residual and fraction bounds",
        comb_ok and resid_ok and dev <= bound,
        f"max |xi_i - xi_(i+2)| = {result.comb_max_seen}, fraction dev {dev:.2e} <= {bound:.2e}",
    )


def test_criterion_06_asymmetric_even_m6():
    result = run_ensemble(
        EnsembleRequest(
            m=6, kind=ASYM, rule=MinRule(), steps=50_000, replicas=50, seed=606,
            track_levels=True, track_renewals=True, check_bounds=True,
        )
    )
    parity_ok = result.parity_violations == 0
    s_ok = int(result.s_violations.sum()) == 0
    renewals_ok = int(result.renewal_counts.min()) >= 10
    report(
        "criterion-06 asymmetric even M=6 parity, S-monotonicity, renewals",
        parity_ok and s_ok and renewals_ok,
        f"min renewals {int(result.renewal_counts.min())}",
    )


def test_criterion_07_symmetric_structural_battery():
    details = []
    ok = True
    for m, seed in ((5, 705), (7, 707), (10, 710)):
        result = run_ensemble(
            EnsembleRequest(
                m=m, kind=SYM, rule=MinRule(), steps=100_000, replicas=50, seed=seed,
                track_levels=True, store_level_flags=True,
            )
        )
        tail = int(result.final_half_flags.sum())
        q = int(result.q_violations.sum())
        w = int(result.w_violations.sum())
        p = int(result.persistence_violations.sum())
        ok = ok and tail == 0 and q == 0 and w == 0 and p == 0
        details.append(f"M={m}: tail-flags {tail}, Q {q}, W {w}, persist {p}")
    report("criterion-07 symmetric structural battery, M in {5,7,10}", ok, "; ".join(details))


def test_criterion_08_brownian_scaling_m4():
    checkpoints = tuple(2**k for k in range(10, 17))
    estimate, ensemble = estimate_sigma(4, 1000, checkpoints, seed=31337)
    sign_p = zeta_sign_test(ensemble.zeta_positive, ensemble.zeta_negative)
    ks = "skipped" if estimate.ks_p is None else f"{estimate.ks_p:.3f}"
    ok = estimate.r2 >= 0.98 and estimate.ks_p is not None and estimate.ks_p > 0.01 and sign_p > 0.01
    report(
        "criterion-08 parity-gap diffusive scaling, asymmetric M=4",
        ok,
        f"R2 {estimate.r2:.4f}, KS p {ks}, sign p {sign_p:.3f}, sigma {estimate.sigma_hat:.4f}",
    )


def test_criterion_09_max_rule_freeze():
    sym_report = suite_appendix(6, SYM, 10_000, 500, seed=909)
    asym_report = suite_appendix(5, ASYM, 10_000, 500, seed=910)
    report(
        "criterion-09 max-rule freeze outcomes (sym M=6, asym M=5)",
        sym_report.passed and asym_report.passed,
        "; ".join(
            f"{r.suite}/{inv.id}: {inv.detail.get('counts', inv.detail)}"
            for r in (sym_report, asym_report)
            for inv in r.invariants[:1]
        ),
    )


def test_criterion_10_exact_algebra_m7():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(1000):
        xi = tuple(int(x) for x in rng.integers(0, 25, size=7))
        out = solve_occupancy_asym(potentials(xi, ASYM))
        ok = ok and isinstance(out, Unique) and out.xi == tuple(Fraction(x) for x in xi)
        out = solve_occupancy_sym(potentials(xi, SYM))
        ok = ok and isinstance(out, Unique) and out.xi == tuple(Fraction(x) for x in xi)
    infeasible_ok = True
    for _ in range(1000):
        u8 = list(potentials(tuple(int(x) for x in rng.integers(0, 25, size=8)), ASYM))
        u8[int(rng.integers(0, 8))] += 1
        u9 = list(potentials(tuple(int(x) for x in rng.integers(0, 25, size=9)), SYM))
        u9[int(rng.integers(0, 9))] += 1
        infeasible_ok = (
            infeasible_ok
            and solve_occupancy_asym(u8) == Infeasible("parity")
            and solve_occupancy_sym(u9) == Infeasible("mod3")
        )
    report(
        "criterion-10 exact occupancy solves, M=7 round trips and broken conditions",
        ok and infeasible_ok,
    )


def test_criterion_11_kernel_limits():
    rng = np.random.default_rng(1111)
    worst_min = worst_max = 0.0
    uniform_exact = True
    for _ in range(100):
        kind = ASYM if rng.integers(0, 2) == 0 else SYM
        m = int(rng.integers(kind.min_sites, 9))
        xi = tuple(int(x) for x in rng.integers(0, 12, size=m))
        state = ChainState.from_occupancy(xi, kind)
        p_uniform = transition_distribution(state, Softmax(1.0))
        uniform_exact = uniform_exact and (p_uniform == 1.0 / m).all()
        if min(state.u) == max(state.u):
            continue  # gap < 1: bound not claimed
        worst_min = max(
            worst_min,
            total_variation(
                transition_distribution(state, Softmax(1e-4)),
                transition_distribution(state, MinRule()),
            ),
        )
        worst_max = max(
            worst_max,
            total_variation(
                transition_distribution(state, Softmax(1e4)),
                transition_distribution(state, MaxRule()),
            ),
        )
    report(
        "criterion-11 softmax kernel limits (TV to min/max rules)",
        worst_min <= 1e-3 and worst_max <= 1e-3 and uniform_exact,
        f"max TV to min {worst_min:.2e}, to max {worst_max:.2e}",
    )
