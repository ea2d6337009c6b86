import json
import math
import random
from itertools import accumulate, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nqsim import dynamics
from nqsim.dynamics import (
    DRAW_BLOCK,
    ChainState,
    MaxRule,
    MinRule,
    RandomStream,
    Softmax,
    TrajectoryRecord,
    _distribution,
    _TieRows,
    parse_rule,
    run,
    sample_site,
)
from nqsim.ring import Neighborhood, potentials, reduce_potential
from oracles import step, total_variation, transition_distribution

ASYM = Neighborhood.ASYMMETRIC
SYM = Neighborhood.SYMMETRIC


def occupancy_states(data, kinds=(ASYM, SYM), max_m=8, max_count=12):
    kind = data.draw(st.sampled_from(list(kinds)))
    m = data.draw(st.integers(kind.min_sites, max_m))
    xi = data.draw(st.lists(st.integers(0, max_count), min_size=m, max_size=m))
    return ChainState.from_occupancy(xi, kind)


class TestRules:
    def test_parse(self):
        assert parse_rule("min") == MinRule()
        assert parse_rule("max") == MaxRule()
        assert parse_rule("softmax", 0.5) == Softmax(0.5)

    def test_softmax_requires_beta(self):
        with pytest.raises(ValueError):
            parse_rule("softmax")

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            Softmax(beta)


class TestTransitionDistribution:
    def test_min_rule_example(self):
        s = ChainState.from_occupancy((2, 0, 1, 0, 0), SYM)
        assert s.u == (2, 3, 1, 1, 2)
        np.testing.assert_array_equal(
            transition_distribution(s, MinRule()), [0, 0, 0.5, 0.5, 0]
        )

    def test_softmax_beta_one_is_uniform(self):
        s = ChainState.from_occupancy((3, 1, 0, 0, 7), SYM)
        np.testing.assert_array_equal(
            transition_distribution(s, Softmax(1.0)), np.full(5, 0.2)
        )

    def test_softmax_half_example(self):
        s = ChainState.from_occupancy((1, 0, 0), ASYM)
        assert s.u == (1, 0, 1)
        np.testing.assert_allclose(
            transition_distribution(s, Softmax(0.5)), [0.25, 0.5, 0.25]
        )

    def test_max_rule_example(self):
        s = ChainState.from_occupancy((2, 0, 1, 0, 0), SYM)
        np.testing.assert_array_equal(
            transition_distribution(s, MaxRule()), [0, 1, 0, 0, 0]
        )

    @given(st.data())
    def test_sums_to_one(self, data):
        s = occupancy_states(data)
        rule = data.draw(
            st.sampled_from([MinRule(), MaxRule(), Softmax(0.25), Softmax(1.0), Softmax(4.0)])
        )
        p = transition_distribution(s, rule)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert (p >= 0).all()

    @given(st.data())
    def test_min_rule_zero_off_the_minimum(self, data):
        s = occupancy_states(data)
        p = transition_distribution(s, MinRule())
        argmin = [i for i, x in enumerate(s.u) if x == min(s.u)]
        for i in range(len(s.xi)):
            if i in argmin:
                assert p[i] == 1.0 / len(argmin)
            else:
                assert p[i] == 0.0

    def test_softmax_extreme_potentials_stable(self):
        # potentials far apart: stabilisation keeps weights bounded
        s = ChainState(t=0, xi=(0,) * 4, u=(0, 5000, 10000, 2), kind=ASYM)
        for beta in (1e-4, 0.5, 2.0, 1e4):
            p = transition_distribution(s, Softmax(beta))
            assert np.isfinite(p).all()
            assert abs(p.sum() - 1.0) <= 1e-12

    @given(st.data())
    def test_softmax_limits_approach_min_and_max(self, data):
        # The drawn state, and one whose potentials are all equal: there every
        # kernel is uniform, so both distances are exactly 0.
        for s in (occupancy_states(data), ChainState.from_occupancy((1, 0, 1, 0, 1, 0), ASYM)):
            tv_min = total_variation(
                transition_distribution(s, Softmax(1e-4)), transition_distribution(s, MinRule())
            )
            tv_max = total_variation(
                transition_distribution(s, Softmax(1e4)), transition_distribution(s, MaxRule())
            )
            if min(s.u) == max(s.u):
                assert tv_min == tv_max == 0.0
            else:
                assert tv_min <= 1e-3
                assert tv_max <= 1e-3


class TestSampleSite:
    def test_inverse_cdf_buckets(self):
        p = np.array([0.25, 0.5, 0.25])
        assert sample_site(p, 0.0) == 0
        assert sample_site(p, 0.24) == 0
        assert sample_site(p, 0.25) == 1
        assert sample_site(p, 0.74) == 1
        assert sample_site(p, 0.75) == 2
        assert sample_site(p, 0.999999) == 2

    def test_zero_probability_sites_never_drawn(self):
        p = np.array([0.0, 1.0, 0.0])
        for unif in (0.0, 0.3, 0.999):
            assert sample_site(p, unif) == 1

    def test_clamp_starts_at_last_support_site(self):
        # six copies of the float 1/6 add up to less than 1; a draw in the gap
        # must stay on the last tie site, not fall through to the 0-probability one
        p = np.array([1 / 6] * 6 + [0.0])
        assert np.cumsum(p)[5] < 1.0
        assert sample_site(p, np.nextafter(1.0, 0.0)) == 5


class TestStep:
    def test_uniform_over_empty_ring_and_u_update(self):
        # all sites tie at u=0; allocating at k=2 must give u=(1,1,0)
        state = ChainState.empty(3, ASYM)
        p = transition_distribution(state, MinRule())
        np.testing.assert_allclose(p, [1 / 3] * 3)
        gen = RandomStream(0, 0).generator()
        seen = set()
        for _ in range(200):
            new, site = step(state, MinRule(), gen)
            seen.add(site)
            if site == 2:
                assert new.xi == (0, 1, 0)
                assert new.u == (1, 1, 0)
        assert seen == {1, 2, 3}

    @given(st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_incremental_u_matches_recomputation(self, data, seed):
        state = occupancy_states(data)
        rule = data.draw(st.sampled_from([MinRule(), MaxRule(), Softmax(0.3), Softmax(2.5)]))
        gen = RandomStream(seed, 0).generator()
        for _ in range(25):
            state, site = step(state, rule, gen)
            assert state.u == potentials(state.xi, state.kind)
            assert 1 <= site <= len(state.xi)

    def test_total_grows_by_one(self):
        state = ChainState.empty(5, SYM)
        gen = RandomStream(3, 0).generator()
        for k in range(10):
            state, _ = step(state, MinRule(), gen)
            assert sum(state.xi) == k + 1
            assert state.t == k + 1

    def test_max_rule_sticks_to_unique_maximizer(self):
        # once the maximiser is unique, every allocation lands there
        xi = (0, 1, 5, 1, 0, 0)
        state = ChainState.from_occupancy(xi, SYM)
        assert state.u.count(max(state.u)) == 1
        gen = RandomStream(11, 0).generator()
        for _ in range(50):
            state, site = step(state, MaxRule(), gen)
            assert site == 3
        assert state.xi[2] == 5 + 50

    @given(st.integers(0, 1000))
    @settings(max_examples=25)
    def test_max_rule_argmax_confined_after_allocation(self, seed):
        state = ChainState.empty(7, SYM)
        gen = RandomStream(seed, 0).generator()
        for _ in range(40):
            state, site = step(state, MaxRule(), gen)
            mx = max(state.u)
            argmax = {i + 1 for i, val in enumerate(state.u) if val == mx}
            allowed = {(site - 2) % 7 + 1, site, site % 7 + 1}
            assert argmax <= allowed


class TestRun:
    def test_zero_steps_identity(self):
        initial = ChainState.empty(4, SYM)
        out = run(initial, MinRule(), 0, RandomStream(5, 0))
        assert out.final == initial
        assert len(out.records) == 1
        assert out.records[0].site is None
        assert out.records[0].t == 0

    def test_same_seed_identical_trajectories(self):
        initial = ChainState.empty(5, ASYM)
        a = run(initial, MinRule(), 500, RandomStream(123, 1), sample_every=50)
        b = run(initial, MinRule(), 500, RandomStream(123, 1), sample_every=50)
        assert a.records == b.records
        assert a.final == b.final

    def test_different_streams_differ(self):
        initial = ChainState.empty(5, ASYM)
        a = run(initial, MinRule(), 500, RandomStream(123, 1))
        b = run(initial, MinRule(), 500, RandomStream(123, 2))
        assert a.final.xi != b.final.xi

    def test_sampling_stride_and_final(self):
        initial = ChainState.empty(4, ASYM)
        out = run(initial, MinRule(), 250, RandomStream(9, 0), sample_every=100)
        times = [r.t for r in out.records]
        assert times == [0, 100, 200, 250]

    def test_observers_see_every_step(self):
        class Counter:
            def __init__(self):
                self.ts = []

            def on_step(self, rec):
                self.ts.append(rec.t)

        counter = Counter()
        run(ChainState.empty(4, ASYM), MinRule(), 30, RandomStream(1, 0), observers=[counter])
        assert counter.ts == list(range(31))

    def test_scalar_and_vector_draws_agree(self):
        # chunked array draws must replay the scalar draw sequence exactly
        g1 = RandomStream(77, 3).generator()
        g2 = RandomStream(77, 3).generator()
        scalars = [g1.random() for _ in range(64)]
        assert scalars == list(g2.random(64))

    def test_records_serialize_with_one_based_sites(self):
        out = run(ChainState.empty(4, ASYM), MinRule(), 5, RandomStream(2, 0), sample_every=1)
        for rec in out.records[1:]:
            d = rec.to_json_dict()
            assert 1 <= d["site"] <= 4
            assert d["m"] == min(d["u"])
            assert d["v"] == [x - d["m"] for x in d["u"]]

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            run(ChainState.empty(4, ASYM), MinRule(), 2**62, RandomStream(0, 0))


def replay_with_step(initial, rule, steps, rng):
    """Every record of `steps` calls of `step` on one generator, the initial one first."""
    gen = rng.generator()
    state = initial
    records = [TrajectoryRecord(state.t, state.xi, state.u, reduce_potential(state.u), min(state.u), None)]
    for _ in range(steps):
        state, site = step(state, rule, gen)
        records.append(
            TrajectoryRecord(state.t, state.xi, state.u, reduce_potential(state.u), min(state.u), site)
        )
    return state, records


class TestRunReplaysStep:
    STEPS = 5000  # past the first block of uniforms

    @staticmethod
    def start_states(kind):
        xi = (1, 2, 0, 3, 1)
        return {
            "empty": ChainState.empty(5, kind),
            "init": ChainState.from_occupancy((3, 0, 1, 0, 2), kind),
            "t7": ChainState(t=7, xi=xi, u=potentials(xi, kind), kind=kind),
        }

    @pytest.mark.parametrize("start", ["empty", "init", "t7"])
    @pytest.mark.parametrize("kind", [SYM, ASYM], ids=["sym", "asym"])
    @pytest.mark.parametrize("rule", [MinRule(), MaxRule(), Softmax(0.5)], ids=["min", "max", "softmax"])
    def test_records_final_and_observers_match_a_step_loop(self, rule, kind, start):
        self.check_replay(self.start_states(kind)[start], rule)

    # Empty rings of 10 and 13 sites meet tie sets of 6, 7 and 10 sites, where
    # n copies of 1/n add up to less than 1; 70 sites meet ties of up to 70.
    @pytest.mark.parametrize("m", [10, 13, 70])
    @pytest.mark.parametrize("kind", [SYM, ASYM], ids=["sym", "asym"])
    @pytest.mark.parametrize("rule", [MinRule(), MaxRule()], ids=["min", "max"])
    def test_large_tie_sets_match_a_step_loop(self, rule, kind, m):
        self.check_replay(ChainState.empty(m, kind), rule)

    def test_large_rings_meet_ties_whose_sums_fall_short_of_one(self):
        sizes = set()
        for m in (10, 13):
            for kind in (SYM, ASYM):
                for rule, extreme in ((MinRule(), min), (MaxRule(), max)):
                    _, every = replay_with_step(ChainState.empty(m, kind), rule, 200, RandomStream(31, 2))
                    sizes.update(rec.u.count(extreme(rec.u)) for rec in every[:-1])
        assert {6, 7, 10} <= sizes
        for n in (6, 7, 10):
            assert list(accumulate(repeat(1.0 / n, n)))[-1] < 1.0

    def check_replay(self, initial, rule):
        class Seen:
            def __init__(self):
                self.records = []

            def on_step(self, rec):
                self.records.append(rec)

        assert self.STEPS > DRAW_BLOCK
        rng = RandomStream(31, 2)
        final, every = replay_with_step(initial, rule, self.STEPS, rng)
        last_t = initial.t + self.STEPS
        for sample_every in (1, 100):
            for levels in (False, True):
                seen = Seen()
                out = run(initial, rule, self.STEPS, rng, observers=[seen],
                          sample_every=sample_every, include_level_steps=levels)
                kept = [every[0]] + [
                    b for a, b in zip(every, every[1:])
                    if b.t % sample_every == 0 or b.t == last_t or (levels and b.m > a.m)
                ]
                assert out.final == final
                assert seen.records == every
                assert out.records == kept


def literal_site(state, rule, uniform):
    """The inverse-CDF draw as np.cumsum, the clamp and argmax spell it out."""
    p = transition_distribution(state, rule)
    c = np.cumsum(p)
    c[p.nonzero()[0][-1] :] = 1.0
    return int(np.argmax(uniform < c))


class FixedUniform:
    """Stands in for a generator whose next variate is known."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def draw_points(state, rule):
    """0, and every cumulative threshold below 1 together with its predecessor float."""
    c = np.cumsum(transition_distribution(state, rule))
    points = {0.0, float(np.nextafter(1.0, 0.0))}
    for x in c.tolist():
        if x < 1.0:
            points.update((x, float(np.nextafter(x, 0.0))))
    return sorted(points)


class TestStepAgainstLiteralDraw:
    @pytest.mark.parametrize("rule", [MinRule(), MaxRule(), Softmax(0.5), Softmax(1e-300)], ids=repr)
    @pytest.mark.parametrize("m", range(3, 13))
    def test_site_is_first_cumulative_value_above_the_draw(self, rule, m):
        rng = np.random.default_rng(1000 + m)
        kinds = [ASYM, SYM] if m >= 4 else [ASYM]
        for kind in kinds:
            for trial in range(8):
                # trial 0 is the empty ring (one big tie); the rest mix ties and gaps
                xi = [0] * m if trial == 0 else rng.integers(0, 3 + trial, size=m).tolist()
                state = ChainState.from_occupancy(xi, kind)
                for uniform in draw_points(state, rule):
                    new, site = step(state, rule, FixedUniform(uniform))
                    expected = literal_site(state, rule, uniform)
                    assert site == expected + 1, (kind, xi, uniform)
                    assert new.xi[expected] == state.xi[expected] + 1
                    assert new.u == potentials(new.xi, kind)

    def test_sample_site_matches_literal_draw_on_sparse_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = int(rng.integers(1, 13))
            w = rng.random(m) * (rng.random(m) < 0.6)
            if not w.any():
                w[rng.integers(0, m)] = 1.0
            p = w / w.sum()
            c = np.cumsum(p)
            c[p.nonzero()[0][-1] :] = 1.0
            for uniform in [0.0, *c[c < 1.0], *np.nextafter(c[c < 1.0], 0.0), np.nextafter(1.0, 0.0)]:
                assert sample_site(p.tolist(), float(uniform)) == int(np.argmax(uniform < c))
                assert sample_site(p, uniform) == int(np.argmax(uniform < c))


class FixedStream:
    """Stands in for a RandomStream whose uniforms are known."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def generator(self):
        return self

    def random(self, size):
        return np.array(self.uniforms[:size])


def tie_states(n):
    """States with an n-member min tie and an n-member max tie: one contiguous, one spread.

    The empty asymmetric ring of n sites ties every site (n >= 3).  The
    symmetric ring (1, 0) * n has its minimisers on the even sites and its
    maximisers on the odd ones (n >= 2); (1, 0, 0) under the asymmetric
    window has a single minimiser.
    """
    states = [ChainState.from_occupancy((1, 0) * n, SYM)] if n >= 2 else []
    states.append(ChainState.empty(n, ASYM) if n >= 3 else ChainState.from_occupancy((1, 0, 0), ASYM))
    return states


class TestTieRows:
    @pytest.mark.parametrize("n", range(1, 257))
    def test_rows_are_sample_sites_running_sums(self, n):
        row = _TieRows(2**20)[n]
        # the running sums sample_site forms, over a tie spread between non-members
        p = _distribution([0, 1] * n, MinRule())
        c, sums = 0.0, []
        for i in range(2 * n - 2):
            c += p[i]
            if p[i]:
                sums.append(c)
        assert row == sums
        assert row == np.cumsum(np.full(n, 1.0 / n))[:-1].tolist()
        assert row == sorted(set(row)) and all(x < 1.0 for x in row)

    @pytest.mark.parametrize("rule", [MinRule(), MaxRule()], ids=["min", "max"])
    @pytest.mark.parametrize("n", [*range(1, 41), 64, 100, 256])
    def test_run_draws_sample_sites_site_on_and_beside_every_row_entry(self, rule, n):
        for state in tie_states(n):
            p = _distribution(state.u, rule)
            points = {0.0, float(np.nextafter(1.0, 0.0))}
            for x in _TieRows(2**20)[sum(1 for x in p if x)]:
                points.update((x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, 1.0))))
            for uniform in sorted(points):
                out = run(state, rule, 1, FixedStream([uniform]))
                assert out.records[-1].site == sample_site(p, uniform) + 1, (state.xi, uniform)

    def test_rows_are_built_on_demand(self, monkeypatch):
        rows = _TieRows(dynamics._TIE_ROWS.budget)
        monkeypatch.setattr(dynamics, "_TIE_ROWS", rows)
        run(ChainState.empty(2000, SYM), MinRule(), 3, RandomStream(1))
        assert 1 <= len(rows) <= 3
        assert 2000 in rows
        assert rows.size == sum(map(len, rows.values()))

    def test_rows_beyond_the_budget_are_built_per_draw(self, monkeypatch):
        initial = ChainState.empty(40, SYM)
        ref = run(initial, MinRule(), 300, RandomStream(4), sample_every=1)
        rows = _TieRows(100)
        monkeypatch.setattr(dynamics, "_TIE_ROWS", rows)
        assert run(initial, MinRule(), 300, RandomStream(4), sample_every=1) == ref
        assert 0 < rows.size <= 100
        assert rows.size == sum(map(len, rows.values()))
        met = {rec.u.count(rec.m) for rec in ref.records[:-1]}
        assert set(rows) < met  # the rows that did not fit were built and dropped


class TestJsonLine:
    @staticmethod
    def encode(rec):
        return json.JSONEncoder(sort_keys=True).encode(rec.to_json_dict())

    def test_line_is_the_sorted_key_encoding(self):
        rng = random.Random(5)
        edges = [0, 1, 255, 256, 2**31, 2**53 + 1, 2**61]
        for m in range(3, 101):
            ints = lambda: [rng.choice(edges) if rng.random() < 0.3 else rng.randrange(2**61) for _ in range(m)]
            site = None if m % 4 == 0 else rng.randrange(1, m + 1)
            rec = TrajectoryRecord(rng.choice(edges), tuple(ints()), tuple(ints()), tuple(ints()),
                                   rng.choice(edges), site)
            assert rec.to_json_line() == self.encode(rec)

    def test_line_of_every_record_of_a_run(self):
        out = run(ChainState.from_occupancy((3, 0, 1, 0, 2), SYM), MinRule(), 50, RandomStream(2), sample_every=1)
        assert out.records[0].site is None
        for rec in out.records:
            assert rec.to_json_line() == self.encode(rec)
