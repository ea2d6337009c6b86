import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nqsim import verify
from nqsim.algebra import (
    FAMILY,
    INFEASIBLE,
    UNIQUE,
    Family,
    Infeasible,
    Unique,
    mod3_invariant,
    parity_invariant,
    solve_asym_batch,
    solve_occupancy_asym,
    solve_occupancy_sym,
    solve_sym_batch,
)
from nqsim.ring import Neighborhood, potentials

ASYM = Neighborhood.ASYMMETRIC
SYM = Neighborhood.SYMMETRIC


def fr(*xs):
    return tuple(Fraction(x) for x in xs)


class TestAsymmetricSolve:
    def test_odd_unique_example(self):
        assert solve_occupancy_asym((2, 2, 2)) == Unique(fr(1, 1, 1))

    def test_even_infeasible_example(self):
        assert solve_occupancy_asym((1, 0, 0, 0)) == Infeasible("parity")

    def test_even_family_example(self):
        out = solve_occupancy_asym((1, 1, 1, 1))
        assert out == Family(fr(0, 1, 0, 1), free_parameters=1)

    def test_family_parameter_sweeps_solutions(self):
        out = solve_occupancy_asym((1, 1, 1, 1))
        for c in (Fraction(1, 3), Fraction(-2), Fraction(1)):
            xi = [b + (c if k % 2 == 0 else -c) for k, b in enumerate(out.base)]
            assert potentials(xi, ASYM) == fr(1, 1, 1, 1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            solve_occupancy_asym((1, 2))

    @given(st.lists(st.integers(0, 25), min_size=3, max_size=13).filter(lambda x: len(x) % 2 == 1))
    def test_round_trip_odd(self, xi):
        out = solve_occupancy_asym(potentials(xi, ASYM))
        assert isinstance(out, Unique)
        assert out.xi == fr(*xi)

    @given(st.lists(st.integers(0, 25), min_size=4, max_size=12).filter(lambda x: len(x) % 2 == 0))
    def test_even_family_reproduces_potentials(self, xi):
        u = potentials(xi, ASYM)
        out = solve_occupancy_asym(u)
        assert isinstance(out, Family) and out.free_parameters == 1
        assert potentials(out.base, ASYM) == fr(*u)

    @given(st.lists(st.integers(0, 25), min_size=4, max_size=12).filter(lambda x: len(x) % 2 == 0))
    def test_even_infeasible_iff_parity_broken(self, u):
        out = solve_occupancy_asym(u)
        if parity_invariant(u):
            assert not isinstance(out, Infeasible)
        else:
            assert out == Infeasible("parity")


class TestSymmetricSolve:
    def test_unique_example(self):
        assert solve_occupancy_sym((3, 3, 3, 3)) == Unique(fr(1, 1, 1, 1))

    def test_mod3_infeasible_example(self):
        assert solve_occupancy_sym((1, 0, 0, 0, 0, 0)) == Infeasible("mod3")

    def test_mod3_family_example(self):
        out = solve_occupancy_sym((1, 1, 1, 1, 1, 1))
        assert isinstance(out, Family) and out.free_parameters == 2
        assert potentials(out.base, SYM) == fr(1, 1, 1, 1, 1, 1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            solve_occupancy_sym((1, 2, 3))

    @given(st.lists(st.integers(0, 25), min_size=4, max_size=14).filter(lambda x: len(x) % 3 != 0))
    def test_round_trip_non_div3(self, xi):
        out = solve_occupancy_sym(potentials(xi, SYM))
        assert isinstance(out, Unique)
        assert out.xi == fr(*xi)

    @given(st.lists(st.integers(0, 25), min_size=6, max_size=12).filter(lambda x: len(x) % 3 == 0))
    def test_div3_family_reproduces_potentials(self, xi):
        u = potentials(xi, SYM)
        out = solve_occupancy_sym(u)
        assert isinstance(out, Family) and out.free_parameters == 2
        assert potentials(out.base, SYM) == fr(*u)

    @given(st.lists(st.integers(0, 25), min_size=6, max_size=12).filter(lambda x: len(x) % 3 == 0))
    def test_div3_infeasible_iff_mod3_broken(self, u):
        out = solve_occupancy_sym(u)
        if mod3_invariant(u):
            assert not isinstance(out, Infeasible)
        else:
            assert out == Infeasible("mod3")

    @given(st.lists(st.integers(0, 25), min_size=6, max_size=12).filter(lambda x: len(x) % 3 == 0),
           st.integers(-5, 5), st.integers(-5, 5))
    def test_family_parameters_sweep_solutions(self, xi, a, b):
        u = potentials(xi, SYM)
        base = solve_occupancy_sym(u).base
        m = len(u)
        # shifting (xi_1, xi_2) by (a, b) shifts the rest with period-3 pattern
        hom = {0: a, 1: b, 2: -a - b}
        shifted = [base[k] + hom[k % 3] for k in range(m)]
        assert potentials(shifted, SYM) == fr(*u)


class TestConditions:
    def test_parity_examples(self):
        assert parity_invariant((0, 0, 0, 0)) is True
        assert parity_invariant((1, 0, 1, 0)) is False

    def test_conditions_hold_along_simulations(self):
        # potentials of an occupancy always satisfy the solvability conditions,
        # so they stay true at every step of a chain
        from nqsim.dynamics import ChainState, MinRule, RandomStream, run

        out = run(
            ChainState.empty(6, SYM), MinRule(), 1500, RandomStream(4, 0), sample_every=1
        )
        assert all(mod3_invariant(rec.u) for rec in out.records)
        out = run(
            ChainState.empty(6, ASYM), MinRule(), 1500, RandomStream(4, 0), sample_every=1
        )
        assert all(parity_invariant(rec.u) for rec in out.records)
        assert all(parity_invariant(rec.v) for rec in out.records)

    def test_parity_rejects_odd_m(self):
        with pytest.raises(ValueError):
            parity_invariant((1, 2, 3))

    def test_mod3_examples(self):
        assert mod3_invariant((7, 7, 7, 7, 7, 7)) is True
        assert mod3_invariant((1, 0, 0, 1, 0, 0)) is False

    def test_mod3_rejects_other_m(self):
        with pytest.raises(ValueError):
            mod3_invariant((1, 2, 3, 4))


def literal_solve_asym(u):
    """u_k = xi_k + xi_{k+1} solved entry by entry in Fraction arithmetic."""
    m = len(u)
    uf = [Fraction(x) for x in u]
    if m % 2 == 1:
        xi = [sum(uf[j] if j % 2 == 0 else -uf[j] for j in range(m)) / 2]
        for k in range(1, m):
            xi.append(uf[k - 1] - xi[k - 1])
        return Unique(tuple(xi))
    if sum(uf[0::2]) != sum(uf[1::2]):
        return Infeasible("parity")
    base = [Fraction(0)]
    for k in range(1, m):
        base.append(uf[k - 1] - base[k - 1])
    return Family(tuple(base), free_parameters=1)


def literal_solve_sym(u):
    """u_k = xi_{k-1} + xi_k + xi_{k+1} solved by propagation and a 2x2 close, in Fractions."""
    m = len(u)
    uf = [Fraction(x) for x in u]

    def propagate(xi1, xi2):
        xi = [xi1, xi2]
        for k in range(2, m):
            xi.append(uf[k - 1] - xi[k - 1] - xi[k - 2])
        return xi

    if m % 3 == 0:
        sums = [sum(uf[j::3]) for j in range(3)]
        if not sums[0] == sums[1] == sums[2]:
            return Infeasible("mod3")
        return Family(tuple(propagate(Fraction(0), Fraction(0))), free_parameters=2)
    # xi is affine in (xi_1, xi_2): recover it from three propagations
    p = propagate(Fraction(0), Fraction(0))
    a = [x - y for x, y in zip(propagate(Fraction(1), Fraction(0)), p)]
    b = [x - y for x, y in zip(propagate(Fraction(0), Fraction(1)), p)]
    # close with equations 1 and M
    a11, a12, r1 = a[m - 1] + 1, b[m - 1] + 1, uf[0] - p[m - 1]
    a21, a22, r2 = a[m - 2] + a[m - 1] + 1, b[m - 2] + b[m - 1], uf[m - 1] - p[m - 2] - p[m - 1]
    det = a11 * a22 - a12 * a21
    xi1 = (r1 * a22 - r2 * a12) / det
    xi2 = (a11 * r2 - a21 * r1) / det
    return Unique(tuple(p[k] + a[k] * xi1 + b[k] * xi2 for k in range(m)))


def _fractions(rng, m, max_den):
    nums, dens = rng.integers(-40, 40, m).tolist(), rng.integers(1, max_den, m).tolist()
    return [Fraction(n, d) for n, d in zip(nums, dens)]


def _inputs(rng, kind, m):
    """Integer, negative, fractional and float potentials, feasible and just off it."""
    out = []
    for _ in range(6):
        out.append(tuple(rng.integers(0, 30, size=m).tolist()))
        out.append(tuple(rng.integers(-30, 30, size=m).tolist()))
        out.append(tuple(_fractions(rng, m, 12)))
        out.append(tuple(x / 4 for x in rng.integers(-20, 20, size=m).tolist()))
        out.append(tuple(rng.integers(0, 9, size=m)))  # numpy integers
        for xi in (rng.integers(-10, 30, size=m).tolist(), _fractions(rng, m, 9)):
            u = potentials(xi, kind)
            out.append(u)  # on the solvability boundary
            k = int(rng.integers(0, m))
            for delta in (1, -1, Fraction(1, int(rng.integers(2, 50)))):
                bumped = list(u)
                bumped[k] += delta  # just off it
                out.append(tuple(bumped))
                bumped[(k + 1) % m] += delta  # back on it for even asym M
                out.append(tuple(bumped))
    return out


SOLVERS = {ASYM: (solve_occupancy_asym, literal_solve_asym), SYM: (solve_occupancy_sym, literal_solve_sym)}


@pytest.mark.parametrize("kind, m", [(ASYM, m) for m in range(3, 17)] + [(SYM, m) for m in range(4, 17)])
def test_solver_matches_literal_fraction_solver(kind, m):
    solve, literal = SOLVERS[kind]
    rng = np.random.default_rng(m if kind is ASYM else 100 + m)
    outcomes = set()
    for u in _inputs(rng, kind, m):
        got = solve(u)
        assert got == literal(u), u
        outcomes.add(type(got))
        entries = got.xi if isinstance(got, Unique) else got.base if isinstance(got, Family) else ()
        assert all(type(x) is Fraction for x in entries)
    if kind is ASYM:
        assert outcomes == ({Unique} if m % 2 else {Family, Infeasible})
    else:
        assert outcomes == ({Family, Infeasible} if m % 3 == 0 else {Unique})


# --- the batch solvers ------------------------------------------------------

BATCH = {ASYM: solve_asym_batch, SYM: solve_sym_batch}
OUTCOME_TYPES = {UNIQUE: Unique, FAMILY: Family, INFEASIBLE: Infeasible}


def _windows(kind, v):
    return sum(np.roll(v, -d, axis=1) for d in kind.offsets)


def _int_rows(rng, kind, m):
    """Integer potentials with negative entries: arbitrary, feasible, and one entry off feasible."""
    feasible = _windows(kind, rng.integers(-20, 30, size=(12, m)))
    bumped = feasible.copy()
    bumped[np.arange(12), rng.integers(0, m, size=12)] += rng.choice((-1, 1), size=12)
    return np.concatenate([rng.integers(-60, 60, size=(12, m)), feasible, bumped])


@pytest.mark.parametrize("kind, m", [(ASYM, m) for m in range(3, 17)] + [(SYM, m) for m in range(4, 17)])
def test_batch_rows_match_the_one_row_object_solve_and_the_literal_solver(kind, m):
    solve, literal = BATCH[kind], SOLVERS[kind][1]
    n = _int_rows(np.random.default_rng(300 + m + 100 * (kind is SYM)), kind, m)
    got = solve(n)
    assert got.x.dtype == np.int64 and got.x.shape == n.shape
    for row, u in enumerate(n.tolist()):
        one = solve(np.array([u], dtype=object))
        code = int(got.outcome[row])
        assert (int(one.outcome[0]), one.den) == (code, got.den)
        expected = literal(u)
        assert type(expected) is OUTCOME_TYPES[code]
        if code != INFEASIBLE:
            assert one.x[0].tolist() == got.x[row].tolist()
            entries = expected.xi if code == UNIQUE else expected.base
            assert entries == tuple(Fraction(v, got.den) for v in got.x[row].tolist())
    assert set(got.outcome.tolist()) == ({UNIQUE} if m % (2 if kind is ASYM else 3) else {FAMILY, INFEASIBLE})


@pytest.mark.parametrize("kind, m", [(ASYM, 100_001), (SYM, 100_000)])
def test_large_ring_substitutes_back_exactly_in_int64(kind, m):
    u = np.random.default_rng(m).integers(0, 60, size=(1, m))
    got = BATCH[kind](u)
    assert got.outcome.tolist() == [UNIQUE] and got.x.dtype == np.int64
    assert np.array_equal(_windows(kind, got.x), got.den * u)


def test_int64_holds_every_value_up_to_the_largest_ring_the_suite_admits():
    # Arithmetic, not a run.  The suite draws occupancies below 20 and bumps
    # one potential by 1, so every numerator n has |n| <= 3 * 19 + 1 <= 60.
    bound = 60
    assert 3 * 19 + 1 <= bound
    # the largest battery ring, m + 2 sites for the largest m the suite admits
    m = verify.MAX_ALGEBRA_BYTES // verify._ALGEBRA_CELL_BYTES
    assert verify.algebra_bytes(m - 2) <= verify.MAX_ALGEBRA_BYTES < verify.algebra_bytes(m - 1)
    # asymmetric: |c_k| <= M |n|, and x_k = +-(x_0 + 2 c_k) with |x_0| <= M |n|
    prefix = m * bound
    x_asym = 3 * prefix
    # symmetric: |n_{k-1} - n_{k-2}| <= 2 |n| summed over one residue class
    # gives p; the closing coefficients are at most 2 in magnitude
    p = 2 * bound * -(-m // 3)
    r = bound + 2 * p
    x12 = 2 * r + 2 * r
    x_sym = 3 * p + 2 * x12
    # the batteries compare x with den * xi and the window sums of x with den * u
    largest = max(prefix, x_asym, 2 * x_asym, p, m * bound, x_sym, 3 * x_sym)
    assert largest < 2**62, largest


# --- the `verify --suite algebra` batteries --------------------------------

SUITE_SEEDS = (1, 6, 808, 2701)


@pytest.mark.parametrize("seed", SUITE_SEEDS)
@pytest.mark.parametrize("size", (4, 7, 8, 9, 12))
def test_batched_draws_are_the_per_trial_draws(seed, size):
    # The suite draws n cases at once; numpy must give the n cases that n
    # draws of one case each give, and leave the generator in the same state.
    n = 37
    one, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    per_trial = [one.integers(0, 20, size=size) for _ in range(n)]
    assert np.array_equal(batched.integers(0, 20, size=(n, size)), per_trial)
    assert batched.bit_generator.state == one.bit_generator.state
    # an infeasible case: occupancies in [0, 15), then the index to bump
    per_trial = [np.append(one.integers(0, 15, size=size), one.integers(0, size)) for _ in range(n)]
    high = np.array([15] * size + [size])
    assert np.array_equal(batched.integers(0, high, size=(n, size + 1)), per_trial)
    assert batched.bit_generator.state == one.bit_generator.state


def _sizes(m):
    """The ring each battery runs on, in the suite's order: (id, kind, size, check)."""
    odd, even = m + (m % 2 == 0), m + (m % 2)
    non3, div3 = m + (m % 3 == 0), m + (-m) % 3
    return [
        ("round-trip-unique-asym", ASYM, odd, "unique"),
        ("round-trip-unique-sym", SYM, non3, "unique"),
        ("family-base-reproduces-potentials-asym", ASYM, even, "family"),
        ("family-base-reproduces-potentials-sym", SYM, div3, "family"),
        ("infeasible-parity-detected", ASYM, even, "parity"),
        ("infeasible-mod3-detected", SYM, div3, "mod3"),
    ]


def replayed_failures(m, seed, trials, solve):
    """Failures per battery, one case drawn per trial, through the scalar solvers `solve[kind]`."""
    rng = np.random.default_rng(seed)
    failures = {}
    for id_, kind, size, check in _sizes(m):
        failures[id_] = 0
        for _ in range(trials):
            if check in ("unique", "family"):
                xi = tuple(int(x) for x in rng.integers(0, 20, size=size))
                u = potentials(xi, kind)
            else:
                u = list(potentials(tuple(int(x) for x in rng.integers(0, 15, size=size)), kind))
                u[int(rng.integers(0, size))] += 1
            out = solve[kind](u)
            if check == "unique":
                ok = isinstance(out, Unique) and out.xi == tuple(Fraction(x) for x in xi)
            elif check == "family":
                ok = isinstance(out, Family) and potentials(out.base, kind) == u
            else:
                ok = out == Infeasible(check)
            failures[id_] += not ok
    return failures


def _battery(report):
    return {inv.id: (inv.passed, inv.detail) for inv in report.invariants}


def test_suite_peak_stays_within_the_footprint_estimate():
    m = 100_000  # one case per batch, far above the ALGEBRA_BATCH_CELLS floor of the estimate
    tracemalloc.start()
    try:
        assert verify.suite_algebra(m, 5, 2).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= verify.algebra_bytes(m), (peak, verify.algebra_bytes(m))


@pytest.mark.parametrize("seed", (1, 6, 2701))
@pytest.mark.parametrize("m", (4, 7, 12))
def test_report_does_not_depend_on_the_batch(monkeypatch, seed, m):
    whole = _battery(verify.suite_algebra(m, seed, 120))
    for cells in (1, 50):  # one trial per batch; batches that split the trials unevenly
        monkeypatch.setattr(verify, "ALGEBRA_BATCH_CELLS", cells)
        assert _battery(verify.suite_algebra(m, seed, 120)) == whole


PLANTED = -1  # an outcome code that no battery accepts


@pytest.mark.parametrize("cells", (verify.ALGEBRA_BATCH_CELLS, 50))
@pytest.mark.parametrize("seed", (1, 6, 2701))
@pytest.mark.parametrize("m", (4, 7, 12))
def test_failures_are_counted_per_trial(monkeypatch, cells, seed, m):
    # each solver errs on a known part of its inputs: on rows of the batch
    # solvers that `verify` calls, and on calls of the scalar solvers that
    # the per-trial replay makes
    wrong = {ASYM: lambda u: u[0] % 2 != 0, SYM: lambda u: u[1] % 3 == 0}

    def erring_batch(solve, wrong):
        def solve_batch(n):
            out = solve(n)
            return out._replace(outcome=np.where(wrong(n.T), PLANTED, out.outcome))  # n.T[k]: entry k of each row

        return solve_batch

    def erring(solve, wrong):
        return lambda u: Infeasible("planted") if wrong(u) else solve(u)

    monkeypatch.setattr(verify, "solve_asym_batch", erring_batch(solve_asym_batch, wrong[ASYM]))
    monkeypatch.setattr(verify, "solve_sym_batch", erring_batch(solve_sym_batch, wrong[SYM]))
    monkeypatch.setattr(verify, "ALGEBRA_BATCH_CELLS", cells)
    trials = 150
    scalar = {ASYM: erring(solve_occupancy_asym, wrong[ASYM]), SYM: erring(solve_occupancy_sym, wrong[SYM])}
    expected = replayed_failures(m, seed, trials, scalar)
    assert all(0 < n < trials for n in expected.values()), expected
    report = verify.suite_algebra(m, seed, trials)
    assert {inv.id: inv.detail["failures"] for inv in report.invariants} == expected
    assert [(inv.id, inv.detail["m"]) for inv in report.invariants] == [(i, n) for i, _, n, _ in _sizes(m)]
    assert not any(inv.passed for inv in report.invariants)

