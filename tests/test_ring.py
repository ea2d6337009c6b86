import pytest
from hypothesis import given
from hypothesis import strategies as st

from nqsim.ring import (
    Neighborhood,
    check_ring_size,
    potentials,
    reduce_potential,
    validate_occupancy,
)
from oracles import neighborhood

ASYM = Neighborhood.ASYMMETRIC
SYM = Neighborhood.SYMMETRIC


def occupancies(min_m=4, max_m=12, max_count=30):
    return st.lists(st.integers(0, max_count), min_size=min_m, max_size=max_m)


class TestNeighborhood:
    def test_wraps_at_the_end_asym(self):
        assert neighborhood(ASYM, 5, 5) == frozenset({5, 1})

    def test_wraps_at_the_start_sym(self):
        assert neighborhood(SYM, 1, 6) == frozenset({6, 1, 2})

    def test_interior_sym(self):
        assert neighborhood(SYM, 3, 6) == frozenset({2, 3, 4})

    @given(st.integers(3, 20), st.data())
    def test_sizes_and_membership(self, m, data):
        kind = data.draw(st.sampled_from([ASYM, SYM]))
        if m < kind.min_sites:
            m = kind.min_sites
        i = data.draw(st.integers(1, m))
        nb = neighborhood(kind, i, m)
        assert len(nb) == kind.window
        for j in range(1, m + 1):
            wrapped_offsets = {(i - 1 + d) % m + 1 for d in kind.offsets}
            assert (j in nb) == (j in wrapped_offsets)

    def test_bad_site_rejected(self):
        with pytest.raises(ValueError):
            neighborhood(ASYM, 0, 5)
        with pytest.raises(ValueError):
            neighborhood(ASYM, 6, 5)

    def test_small_rings_rejected(self):
        with pytest.raises(ValueError):
            check_ring_size(2, ASYM)
        with pytest.raises(ValueError):
            check_ring_size(3, SYM)
        assert check_ring_size(3, ASYM) == 3
        assert check_ring_size(4, SYM) == 4


class TestPotentials:
    def test_symmetric_example(self):
        assert potentials((2, 0, 1, 0, 0), SYM) == (2, 3, 1, 1, 2)

    def test_asymmetric_example(self):
        assert potentials((1, 0, 1, 0), ASYM) == (1, 1, 1, 1)

    def test_zero_occupancy(self):
        assert potentials((0,) * 6, SYM) == (0,) * 6
        assert potentials((0,) * 6, ASYM) == (0,) * 6

    @given(occupancies(), st.sampled_from([ASYM, SYM]))
    def test_matches_window_sum_oracle(self, xi, kind):
        # independent route: sum xi over neighborhood() site sets
        m = len(xi)
        u = potentials(xi, kind)
        for i in range(1, m + 1):
            assert u[i - 1] == sum(xi[j - 1] for j in neighborhood(kind, i, m))

    @given(occupancies(), st.sampled_from([ASYM, SYM]), st.data())
    def test_linearity_in_single_site(self, xi, kind, data):
        m = len(xi)
        k = data.draw(st.integers(1, m))
        bumped = list(xi)
        bumped[k - 1] += 1
        before = potentials(xi, kind)
        after = potentials(bumped, kind)
        for i in range(1, m + 1):
            expected = before[i - 1] + (1 if k in neighborhood(kind, i, m) else 0)
            assert after[i - 1] == expected

    @given(occupancies(), st.sampled_from([ASYM, SYM]))
    def test_total_counted_window_times(self, xi, kind):
        assert sum(potentials(xi, kind)) == kind.window * sum(xi)


class TestReducePotential:
    def test_example(self):
        assert reduce_potential((2, 3, 1, 1, 2)) == (1, 2, 0, 0, 1)

    def test_constant(self):
        assert reduce_potential((4, 4, 4)) == (0, 0, 0)

    def test_below_ring_minimum_rejected(self):
        with pytest.raises(ValueError):
            reduce_potential((0, 1))

    @given(st.lists(st.integers(0, 100), min_size=3, max_size=15), st.integers(0, 50))
    def test_zero_min_and_shift_invariance(self, u, c):
        v = reduce_potential(u)
        assert min(v) == 0
        assert reduce_potential([x + c for x in u]) == v


class TestValidateOccupancy:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            validate_occupancy((1, -1, 0, 0), ASYM)

    def test_ok(self):
        assert validate_occupancy((1, 0, 2), ASYM) == (1, 0, 2)
