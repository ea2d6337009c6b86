import ast
import inspect
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nqsim import limits
from nqsim.limits import (
    FULL,
    HALF,
    MAX_ENUMERATE_M,
    ZERO,
    brute_force_oracle,
    enumerate_limits,
    rotation_classes,
    summary_counts,
    tag_achievability,
)
from oracles import is_limit_configuration


def F(a, b=1):
    return Fraction(a, b)


def by_x(configs):
    return {c.x: c for c in configs}


class TestEnumerateSmall:
    def test_m4_exact_set(self):
        got = {c.x for c in enumerate_limits(4)}
        assert got == {
            (F(1, 2), F(0), F(1, 2), F(0)),
            (F(0), F(1, 2), F(0), F(1, 2)),
        }

    def test_m5_counts(self):
        counts = summary_counts(enumerate_limits(5))
        assert counts["all_total"] == 10
        assert counts["all_from_empty"] == 5

    def test_m8_counts(self):
        counts = summary_counts(enumerate_limits(8))
        assert counts["all_total"] == 18
        assert counts["all_from_empty"] == 2

    def test_m5_unstarred_member(self):
        configs = by_x(enumerate_limits(5))
        c = configs[(F(1, 4), F(1, 4), F(0), F(1, 2), F(0))]
        assert c.achievable_from_empty
        assert c.alpha == F(1, 2)

    def test_m5_starred_member(self):
        configs = by_x(enumerate_limits(5))
        c = configs[(F(1, 2), F(0), F(0), F(1, 2), F(0))]
        assert not c.achievable_from_empty

    def test_m_too_small_rejected(self):
        with pytest.raises(ValueError):
            enumerate_limits(3)

    def test_refused_above_the_limit_before_any_configuration(self, monkeypatch):
        class Built(Exception):
            pass

        def build(symbols):
            raise Built

        monkeypatch.setattr(limits, "_config_from_symbols", build)
        with pytest.raises(ValueError, match=f"supported up to M={MAX_ENUMERATE_M}, got M=37"):
            enumerate_limits(MAX_ENUMERATE_M + 1)
        # at the limit the search runs, up to its first configuration
        with pytest.raises(Built):
            enumerate_limits(MAX_ENUMERATE_M)

    def test_m10_misprint_resolution(self):
        # the half pair must carry alpha/8 + alpha/8, not alpha/8 + alpha/4
        xs = {c.x for c in enumerate_limits(10)}
        corrected = (F(0), F(1, 4), F(0), F(1, 4), F(0), F(0), F(1, 4), F(0), F(1, 8), F(1, 8))
        misprinted = (F(0), F(1, 4), F(0), F(1, 4), F(0), F(0), F(1, 4), F(0), F(1, 8), F(1, 4))
        assert corrected in xs
        assert misprinted not in xs


class TestAchievability:
    def test_isolated_zeros_are_achievable(self):
        assert tag_achievability((HALF, HALF, ZERO, FULL, ZERO)) is True

    def test_adjacent_zeros_are_not(self):
        assert tag_achievability((FULL, ZERO, ZERO, FULL, ZERO)) is False

    def test_no_zeros_vacuously_true(self):
        # not a valid configuration for M >= 4; unit test of the predicate alone
        assert tag_achievability((FULL, FULL, HALF, HALF)) is True


class TestStructure:
    @pytest.mark.parametrize("m", range(4, 13))
    def test_every_config_passes_independent_validator(self, m):
        for c in enumerate_limits(m):
            assert sum(c.x) == 1
            assert is_limit_configuration(c.x), c.x

    @pytest.mark.parametrize("m", range(4, 13))
    def test_rotation_closure(self, m):
        xs = {c.symbols for c in enumerate_limits(m)}
        for s in xs:
            for r in range(m):
                assert s[r:] + s[:r] in xs

    @pytest.mark.parametrize("m", (6, 9, 12))
    def test_div3_rings_have_zero_in_each_residue_class(self, m):
        for c in enumerate_limits(m):
            for j in range(3):
                assert min(c.x[j::3]) == 0

    def test_validator_rejects_wrong_vectors(self):
        assert not is_limit_configuration((F(1, 2), F(1, 2), F(0), F(0)))  # adjacent fulls
        assert not is_limit_configuration((F(1, 4),) * 4)  # no zeros around fulls
        assert not is_limit_configuration((F(1, 2), F(0), F(1, 4), F(0), F(1, 4)))  # lone half
        assert not is_limit_configuration((F(1, 2), F(0), F(0), F(0), F(1, 2)))  # three zeros in a row

    def test_validator_accepts_starred_rotation(self):
        # starred (unreachable from empty) but still a valid limiting configuration
        assert is_limit_configuration((F(1, 2), F(0), F(1, 2), F(0), F(0)))

    @given(st.integers(4, 10))
    @settings(max_examples=7)
    def test_alpha_matches_positive_structure(self, m):
        for c in enumerate_limits(m):
            n_full = sum(1 for s in c.symbols if s == FULL)
            n_half = sum(1 for s in c.symbols if s == HALF)
            assert c.alpha * (2 * n_full + n_half) == 2


class TestOracle:
    @pytest.mark.parametrize("m", range(4, 15))
    def test_oracle_equivalence_small(self, m):
        # same strings in the same (lexicographic) order
        assert [c.symbols for c in enumerate_limits(m)] == [c.symbols for c in brute_force_oracle(m)]

    def test_oracle_m6_exact(self):
        xs = {c.x for c in brute_force_oracle(6)}
        third = F(1, 3)
        assert xs == {
            (third, F(0), third, F(0), third, F(0)),
            (F(0), third, F(0), third, F(0), third),
        }

    def test_oracle_budget(self):
        with pytest.raises(ValueError):
            brute_force_oracle(17)

    def test_oracle_reads_no_enumeration_table(self):
        tree = ast.parse(inspect.getsource(limits.brute_force_oracle))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert {"ZERO", "HALF", "FULL"} <= names
        assert names.isdisjoint(
            {"_SITE_OK", "_OPEN_OK", "_START_OK", "_site_ok", "_closes", "enumerate_limits"}
        )

    def test_oracle_memory_is_one_block_of_3_to_the_9(self):
        m, b = 13, 9
        brute_force_oracle(m)
        tracemalloc.start()
        try:
            brute_force_oracle(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A block of 3^b strings holds one byte per string in each row: a
        # symbol row and three mask rows per varying site, a window row per
        # site and a few working rows.  Twice that is less than a block of
        # 3^(b+1) strings takes.
        assert peak < 2 * (4 * b + m + 8) * 3**b


class TestRotationClasses:
    def test_m10_unstarred_orbit_sizes(self):
        unstarred = [c for c in enumerate_limits(10) if c.achievable_from_empty]
        classes = rotation_classes(unstarred)
        assert sorted(k.orbit_size for k in classes) == [2, 5]
        assert sum(k.orbit_size for k in classes) == 7

    def test_full_period_orbit(self):
        configs = [c for c in enumerate_limits(5) if c.achievable_from_empty]
        (cls,) = rotation_classes(configs)
        assert cls.orbit_size == 5

    def test_missing_rotation_rejected(self):
        configs = [c for c in enumerate_limits(4) if c.symbols[0] == FULL]
        with pytest.raises(ValueError):
            rotation_classes(configs)

    def test_orbit_size_divides_m(self):
        for m in range(4, 12):
            for cls in rotation_classes(enumerate_limits(m)):
                assert m % cls.orbit_size == 0
