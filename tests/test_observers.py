from fractions import Fraction
from itertools import product

import pytest

from nqsim.dynamics import ChainState, MinRule, RandomStream, TrajectoryRecord, run
from nqsim.limits import enumerate_limits
from nqsim.observers import (
    LevelLog,
    ParityGapSeries,
    RenewalCounter,
    _window_flags,
    detect_convergence,
    isolated_zero_centers,
    parity_gap,
    pattern,
    pattern_str,
    stat_Q,
    stat_S,
    stat_W,
)
from nqsim.ring import Neighborhood, min_potential, potentials, reduce_potential

ASYM = Neighborhood.ASYMMETRIC
SYM = Neighborhood.SYMMETRIC


class TestLevelStatistics:
    def test_stat_S(self):
        assert stat_S((3, 0, 1, 2, 0)) == 5
        assert stat_S((0, 1, 0, 1)) == 0
        assert stat_S((2, 2, 2)) == 6

    def test_stat_Q(self):
        assert stat_Q((1, 0, 1, 0)) == 2
        assert stat_Q((0, 0, 0, 0)) == 0
        assert stat_Q((2, 0, 0, 1)) == 0

    def test_stat_W(self):
        assert stat_W((0, 1, 2, 0, 3, 0)) == 1
        assert stat_W((0, 1, 0, 1, 0, 1)) == 0
        assert stat_W((0, 1, 1, 0, 2, 2)) == 2  # both cyclic windows

    def test_pattern(self):
        assert pattern((0, 2, 0, 0, 1)) == (0, 1, 0, 0, 1)
        assert pattern((0, 0, 0)) == (0, 0, 0)
        assert pattern_str((0, 1, 0, 0, 1)) == "0*00*"

    def test_isolated_zero_centers(self):
        assert isolated_zero_centers((1, 0, 1, 0)) == frozenset({1, 3})
        assert isolated_zero_centers((0, 0, 1, 1)) == frozenset()

    @pytest.mark.parametrize(
        "sig, flag",
        [
            ((1, 1, 1, 0, 1, 0), "three_positives"),
            ((0, 0, 0, 1, 0, 1), "three_zeros"),
            ((1, 1, 0, 0, 1, 0), "pair_into_zeros"),
            ((0, 0, 1, 0, 0, 1), "lone_positive_in_zeros"),
            ((1, 0, 1, 0, 1, 0), None),
        ],
    )
    def test_window_flags_one_shape_each(self, sig, flag):
        flags = _window_flags(sig)
        assert sorted(flags) == sorted(
            ["three_positives", "three_zeros", "pair_into_zeros", "lone_positive_in_zeros"]
        )
        assert [name for name, hit in flags.items() if hit] == ([flag] if flag else [])


def _records_from_sites(kind, m, sites):
    """Replay an explicit 1-based allocation sequence into trajectory records."""
    xi = [0] * m
    u = list(potentials(xi, kind))
    records = [TrajectoryRecord(0, tuple(xi), tuple(u), reduce_potential(u), min(u), None)]
    for t, site in enumerate(sites, start=1):
        xi[site - 1] += 1
        u = list(potentials(xi, kind))
        records.append(
            TrajectoryRecord(t, tuple(xi), tuple(u), reduce_potential(u), min(u), site)
        )
    return records


class TestLevelLog:
    def test_levels_open_on_strict_min_increase(self):
        # m path 0,0,0,1,1,2: levels at t=0 and at the first hits of 1 and 2
        log = LevelLog(ASYM)
        for rec in _records_from_sites(ASYM, 3, [1, 1, 2, 3, 2]):
            log.on_step(rec)
        times = [lv.t for lv in log.levels]
        ms = [lv.m for lv in log.levels]
        assert times[0] == 0 and ms[0] == 0
        assert all(b > a for a, b in zip(ms, ms[1:]))

    def test_t0_is_level_zero(self):
        log = LevelLog(SYM)
        log.on_step(_records_from_sites(SYM, 4, [])[0])
        assert log.level_count == 1
        assert log.levels[0].t == 0

    def test_out_of_order_rejected(self):
        log = LevelLog(ASYM)
        recs = _records_from_sites(ASYM, 3, [1, 2])
        log.on_step(recs[0])
        log.on_step(recs[1])
        with pytest.raises(ValueError):
            log.on_step(recs[1])

    def test_all_27_asym_m3_paths_reach_level_one_by_step_three(self):
        # exhaustive oracle: 3 choice indices per step cover every admissible
        # min-rule path of length 3 from empty (choices outside the tie set
        # wrap onto it, so all 27 combinations hit all paths)
        paths = set()
        for choices in product(range(3), repeat=3):
            xi = [0, 0, 0]
            sites = []
            for c in choices:
                u = potentials(xi, ASYM)
                lo, argmin, n_min = min_potential(u)
                site = sorted(argmin)[c % n_min]
                sites.append(site)
                xi[site - 1] += 1
            paths.add(tuple(sites))
            log = LevelLog(ASYM)
            for rec in _records_from_sites(ASYM, 3, sites):
                log.on_step(rec)
            assert log.level_count >= 2, sites
            assert log.levels[1].t <= 3, sites
        assert len(paths) == 6  # 3 first choices, forced second, 2 third choices

    def test_stat_columns_match_functions(self):
        out = run(ChainState.empty(5, SYM), MinRule(), 2000, RandomStream(17, 0))
        log = LevelLog(SYM)
        out2 = run(
            ChainState.empty(5, SYM), MinRule(), 2000, RandomStream(17, 0), observers=[log]
        )
        assert out.final == out2.final
        for lv in log.levels:
            assert lv.S == stat_S(lv.v)
            assert lv.Q == stat_Q(lv.v)
            assert lv.W == stat_W(lv.v)
            assert lv.signature == pattern(lv.v)
            assert min(lv.v) == 0


class TestParityGap:
    def test_example(self):
        assert parity_gap((1, 2, 3, 4)) == Fraction(1, 2)

    def test_parity_class_constant(self):
        a, b = 3, 8
        assert parity_gap((a, b, a, b)) == Fraction(b - a, 2)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            parity_gap((1, 2, 3))

    def test_renewal_bookkeeping(self):
        series = ParityGapSeries(4, sample_times=(0, 2))
        # empty start: renewal at t=0; a full sweep 1,2,3,4 renews again at t=4
        for rec in _records_from_sites(ASYM, 4, [1, 2, 3, 4]):
            series.on_step(rec)
        assert series.renewal_times[0] == 0
        assert series.renewal_times[-1] == 4
        assert len(series.increments) == len(series.renewal_times) - 1
        assert series.samples[0] == 0
        assert all(
            abs(z) <= t2 - t1
            for z, t1, t2 in zip(
                series.increments, series.renewal_times, series.renewal_times[1:]
            )
        )

    def test_increment_values(self):
        series = ParityGapSeries(4)
        # sweep once (renewal at 4), then 2,1,4,3 (renewal at 8, H unchanged)
        for rec in _records_from_sites(ASYM, 4, [1, 2, 3, 4, 2, 1, 4, 3]):
            series.on_step(rec)
        assert series.renewal_times == [0, 4, 8]
        assert series.increments == [Fraction(0), Fraction(0)]

    def test_renewal_counter_matches_series(self):
        log = RenewalCounter()
        series = ParityGapSeries(6)
        out = run(
            ChainState.empty(6, ASYM),
            MinRule(),
            3000,
            RandomStream(23, 0),
            observers=[log, series],
        )
        assert log.times == series.renewal_times
        assert len(log.times) >= 10


class TestDetectConvergence:
    def test_symmetric_match_small_ring(self):
        log = LevelLog(SYM)
        out = run(ChainState.empty(4, SYM), MinRule(), 4000, RandomStream(5, 0), observers=[log])
        verdict = detect_convergence(log, out.final.xi, out.final.t, enumerate_limits(4))
        assert verdict is not None
        assert verdict.mode == "symmetric"
        assert verdict.matched is not None
        half = Fraction(1, 2)
        assert verdict.matched.x in {
            (half, Fraction(0), half, Fraction(0)),
            (Fraction(0), half, Fraction(0), half),
        }

    def test_pending_before_stability(self):
        log = LevelLog(SYM)
        run(ChainState.empty(5, SYM), MinRule(), 30, RandomStream(5, 0), observers=[log])
        verdict = detect_convergence(
            log, (1, 1, 1, 1, 1), 5, enumerate_limits(5), stability_window=10**6
        )
        assert verdict is None

    def test_asymmetric_reports_mode_not_match(self):
        for m, mode in ((5, "flat"), (6, "comb")):
            log = LevelLog(ASYM)
            out = run(
                ChainState.empty(m, ASYM), MinRule(), 2000, RandomStream(8, 0), observers=[log]
            )
            verdict = detect_convergence(log, out.final.xi, out.final.t)
            assert verdict is not None
            assert verdict.mode == mode
            assert verdict.matched is None


def literal_window_flags(sig):
    """The excluded-window flags as a window-by-window scan of the ring."""
    m = len(sig)

    def win(k, shape):
        return all(sig[(k + d) % m] == want for d, want in enumerate(shape))

    return {
        "three_positives": any(win(k, (1, 1, 1)) for k in range(m)),
        "three_zeros": any(win(k, (0, 0, 0)) for k in range(m)),
        "pair_into_zeros": any(win(k, (1, 1, 0, 0)) for k in range(m)),
        "lone_positive_in_zeros": any(win(k, (0, 0, 1, 0, 0)) for k in range(m)),
    }


@pytest.mark.parametrize("m", range(3, 13))
def test_window_flags_match_literal_scan_on_every_signature(m):
    for sig in product((0, 1), repeat=m):
        assert _window_flags(sig) == literal_window_flags(sig), sig


@pytest.mark.parametrize(
    "m, init, seed", [(4, None, 3), (6, None, 4), (8, None, 5), (6, (3, 0, 1, 0, 2, 5), 6)]
)
def test_parity_gap_series_matches_parity_gap_at_every_step(m, init, seed):
    steps = 3000
    start = ChainState.empty(m, ASYM) if init is None else ChainState.from_occupancy(init, ASYM)
    series = ParityGapSeries(m, sample_times=range(0, steps + 1, 7))
    records = run(start, MinRule(), steps, RandomStream(seed, 0), [series], sample_every=1).records
    assert series.samples == {rec.t: parity_gap(rec.xi) for rec in records if rec.t % 7 == 0}
    renewals = [rec for rec in records if all(x == 0 for x in rec.v)]
    assert series.renewal_times == [rec.t for rec in renewals]
    assert len(renewals) >= 10
    assert series.increments == [
        parity_gap(b.xi) - parity_gap(a.xi) for a, b in zip(renewals, renewals[1:])
    ]
    assert all(type(h) is Fraction for h in [*series.samples.values(), *series.increments])
