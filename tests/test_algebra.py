from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nqsim.algebra import (
    Family,
    Infeasible,
    Unique,
    mod3_invariant,
    parity_invariant,
    solve_occupancy_asym,
    solve_occupancy_sym,
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
