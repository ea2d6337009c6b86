import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from nqsim import levels, observers
from nqsim.dynamics import ChainState, MaxRule, MinRule, RandomStream, Softmax, TrajectoryRecord, run
from nqsim.ensemble import FLAG_NAMES
from nqsim.levels import level_statistics
from nqsim.limits import enumerate_limits
from nqsim.observers import (
    MATCH_TOLERANCE,
    LevelLog,
    ParityGapSeries,
    detect_convergence,
    limit_floats,
    match_limit,
    nearest_limit,
    pattern_str,
)
from nqsim.ring import Neighborhood, potentials, reduce_potential
from oracles import (
    ReferenceLevelLog,
    ReferenceParityGapSeries,
    isolated_zero_centers,
    literal_window_flags,
    parity_gap,
    pattern,
    stat_Q,
    stat_S,
    stat_W,
)

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
        flags = literal_window_flags(sig)
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
        records = _records_from_sites(ASYM, 3, [1, 1, 2, 3, 2])
        for rec in records:
            log.on_step(rec)
        times = log.report()["level_times_head"]
        ms = [records[t].m for t in times]
        assert times[0] == 0 and ms[0] == 0
        assert all(b > a for a, b in zip(ms, ms[1:]))

    def test_t0_is_level_zero(self):
        log = LevelLog(SYM)
        log.on_step(_records_from_sites(SYM, 4, [])[0])
        assert log.level_count == 1
        assert log.report()["level_times_head"][0] == 0

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
                argmin = [i + 1 for i, x in enumerate(u) if x == min(u)]
                site = argmin[c % len(argmin)]
                sites.append(site)
                xi[site - 1] += 1
            paths.add(tuple(sites))
            log = LevelLog(ASYM)
            for rec in _records_from_sites(ASYM, 3, sites):
                log.on_step(rec)
            assert log.level_count >= 2, sites
            assert log.report()["level_times_head"][1] <= 3, sites
        assert len(paths) == 6  # 3 first choices, forced second, 2 third choices

    def test_shape_counts_pass_uint16_at_large_m(self):
        # M / 2 isolated zeros, more than a uint16 sum over the sites holds
        m = 2**17 + 2
        v = (1, 0) * (m // 2)
        col = np.array(v, dtype=np.int64)[:, None]
        zero = np.zeros(1, dtype=np.intp)
        _, stats, centers, _ = level_statistics(col, zero, col.sum(axis=0), True, zero)
        assert stats[:, 0].tolist() == [0, m // 2, 0]
        assert np.flatnonzero(centers[:, 0]).tolist() == list(range(0, m, 2))  # row k: site k + 1
        log, ref = LevelLog(SYM), ReferenceLevelLog(SYM)
        for monitor in (log, ref):
            monitor.on_step(TrajectoryRecord(0, (0,) * m, v, v, 0, None))
        assert log.report() == ref.report()
        assert log.current_signature == ref.current_signature == v

    @pytest.mark.parametrize("kind", [SYM, ASYM], ids=["sym", "asym"])
    def test_stat_columns_match_functions(self, kind):
        out = run(ChainState.empty(5, kind), MinRule(), 2000, RandomStream(17, 0), sample_every=1)
        log = LevelLog(kind)
        out2 = run(
            ChainState.empty(5, kind), MinRule(), 2000, RandomStream(17, 0), observers=[log]
        )
        assert out.final == out2.final
        # levels open at t = 0 and wherever the minimum potential rises
        levels = [b for a, b in zip([None, *out.records], out.records) if a is None or b.m > a.m]
        report = log.report()
        assert log.level_count == report["levels"] == len(levels)
        assert report["level_times_head"] == [lv.t for lv in levels[:10]]
        assert all(min(lv.v) == 0 for lv in levels)
        stats = [(stat_S(lv.v), stat_Q(lv.v), stat_W(lv.v)) for lv in levels]
        assert report["s_increase_violations"] == sum(b[0] > a[0] for a, b in zip(stats, stats[1:]))
        assert report["q_decrease_violations"] == sum(b[1] < a[1] for a, b in zip(stats, stats[1:]))
        assert report["w_increase_violations"] == sum(b[2] > a[2] for a, b in zip(stats, stats[1:]))
        # persistence recounted from the centers of successive signatures
        required, lost = frozenset(), 0
        for lv in levels:
            centers = isolated_zero_centers(pattern(lv.v))
            lost += len(required - centers)
            required |= centers
        assert report["persistence_violations"] == lost
        # final-half flag counts recounted from the window flags of each level
        flags = [literal_window_flags(pattern(lv.v)) for lv in levels[len(levels) // 2 :]]
        assert report["final_half_flag_counts"] == {
            name: sum(f[name] for f in flags) for name in FLAG_NAMES
        }
        assert log.current_signature == pattern(levels[-1].v)


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
        series = ReferenceParityGapSeries(4, sample_times=(0, 2))
        # empty start: renewal at t=0; a full sweep 1,2,3,4 renews again at t=4
        records = _records_from_sites(ASYM, 4, [1, 2, 3, 4])
        for rec in records:
            series.on_step(rec)
        renewals = [rec for rec in records if not any(rec.v)]
        increments = [parity_gap(b.xi) - parity_gap(a.xi) for a, b in zip(renewals, renewals[1:])]
        assert renewals[0].t == 0
        assert renewals[-1].t == 4
        assert series.renewals == len(renewals)
        assert series.increments == Counter(increments)
        assert series.increments.total() == series.renewals - 1
        assert series.samples[0] == 0
        assert all(
            abs(z) <= b.t - a.t for z, a, b in zip(increments, renewals, renewals[1:])
        )
        front = ParityGapSeries(4)
        for rec in records:
            front.on_step(rec)
        assert front.report() == series.report()

    def test_increment_values(self):
        series, front = ReferenceParityGapSeries(4), ParityGapSeries(4)
        # sweep once (renewal at 4), then 2,1,4,3 (renewal at 8, H unchanged)
        records = _records_from_sites(ASYM, 4, [1, 2, 3, 4, 2, 1, 4, 3])
        for rec in records:
            series.on_step(rec)
            front.on_step(rec)
        assert [rec.t for rec in records if not any(rec.v)] == [0, 4, 8]
        assert series.renewals == 3
        assert series.increments == Counter({Fraction(0): 2})
        assert front.report() == {"renewals": 3, "increments": 2, "increment_positive": 0,
                                  "increment_negative": 0}

    @pytest.mark.parametrize("m", [5, 6])
    def test_renewal_count_matches_the_reference(self, m):
        # `nqsim simulate` reads the count at odd M and every field at even M.
        front, series = ParityGapSeries(m), ReferenceParityGapSeries(m)
        run(ChainState.empty(m, ASYM), MinRule(), 3000, RandomStream(23, 0), observers=[front, series])
        assert front.report() == series.report()
        assert series.renewals >= 10


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


@pytest.mark.parametrize(
    "m, init, seed", [(4, None, 3), (6, None, 4), (8, None, 5), (6, (3, 0, 1, 0, 2, 5), 6)]
)
def test_parity_gap_series_matches_parity_gap_at_every_step(m, init, seed):
    steps = 3000
    start = ChainState.empty(m, ASYM) if init is None else ChainState.from_occupancy(init, ASYM)
    series = ReferenceParityGapSeries(m, sample_times=range(0, steps + 1, 7))
    front = ParityGapSeries(m)
    records = run(start, MinRule(), steps, RandomStream(seed, 0), [series, front], sample_every=1).records
    assert series.samples == {rec.t: parity_gap(rec.xi) for rec in records if rec.t % 7 == 0}
    renewals = [rec for rec in records if all(x == 0 for x in rec.v)]
    assert series.renewals == len(renewals)
    assert len(renewals) >= 10
    assert series.increments == Counter(
        parity_gap(b.xi) - parity_gap(a.xi) for a, b in zip(renewals, renewals[1:])
    )
    assert all(type(h) is Fraction for h in [*series.samples.values(), *series.increments])
    assert front.report() == series.report()


RULES = [MinRule(), MaxRule(), Softmax(0.5)]


def _front_ends_and_references(kind, m, rule, init, steps, seed):
    """LevelLog, its reference and, if asymmetric, ParityGapSeries and its reference, run over one chain."""
    start = ChainState.empty(m, kind) if init is None else ChainState.from_occupancy(init, kind)
    monitors = [LevelLog(kind), ReferenceLevelLog(kind)]
    if kind is ASYM:
        monitors += [ParityGapSeries(m), ReferenceParityGapSeries(m)]
    run(start, rule, steps, RandomStream(seed, 0), monitors, sample_every=max(steps, 1))
    return monitors


def _assert_front_ends_match(monitors):
    log, ref = monitors[:2]
    assert log.report() == ref.report()
    fields = ("level_count", "run_length", "run_started_level", "current_signature")
    assert [getattr(log, f) for f in fields] == [getattr(ref, f) for f in fields]
    if len(monitors) > 2:
        assert monitors[2].report() == monitors[3].report()


def _random_init(m):
    rng = np.random.default_rng(m)
    return tuple(int(x) for x in rng.integers(0, 4, m))


@pytest.mark.parametrize("init", ["empty", "random"])
@pytest.mark.parametrize("rule", RULES, ids=str)
@pytest.mark.parametrize("kind", [SYM, ASYM], ids=["sym", "asym"])
@pytest.mark.parametrize("m", [*range(4, 13), 70])
def test_front_ends_match_the_reference_monitors(m, kind, rule, init):
    # 1500 steps pass one flush block of levels at M <= 8 under the min rule.
    steps = 300 if m == 70 else 1500
    start = None if init == "empty" else _random_init(m)
    _assert_front_ends_match(_front_ends_and_references(kind, m, rule, start, steps, 7 * m))


@pytest.mark.parametrize("init", [None, (3, 0, 1, 0, 2, 5)], ids=["empty", "random"])
@pytest.mark.parametrize("kind", [SYM, ASYM], ids=["sym", "asym"])
def test_front_ends_match_the_reference_monitors_at_no_steps(kind, init):
    monitors = _front_ends_and_references(kind, 6, MinRule(), init, 0, 1)
    _assert_front_ends_match(monitors)
    assert monitors[0].level_count == 1


@pytest.mark.parametrize("block", [1, 7, levels.FLUSH_LEVELS])
@pytest.mark.parametrize("kind", [SYM, ASYM], ids=["sym", "asym"])
def test_flush_blocks_change_no_report(monkeypatch, kind, block):
    # Several blocks, then a level count that is an exact multiple of the
    # block, so the last flush comes from `on_step` and none from `report`.
    for module in (levels, observers):
        monkeypatch.setattr(module, "FLUSH_LEVELS", block)
    m, seed = 4, 13
    ref = ReferenceLevelLog(kind)
    run(ChainState.empty(m, kind), MinRule(), 4000, RandomStream(seed, 0), [ref])
    assert ref.level_count > 2 * block
    exact = 2 * block if block > 1 else 11
    for steps in (4000, ref.level_times[exact] - 1):
        monitors = _front_ends_and_references(kind, m, MinRule(), None, steps, seed)
        _assert_front_ends_match(monitors)
    assert monitors[0].level_count == exact
    assert monitors[0]._tracker.fill == 0
    # a single chain's buffer holds one block, not the engine's cell budget
    assert len(monitors[0]._tracker.t) == block


def test_final_half_starts_at_a_flagged_level():
    # A chain cut where level levels // 2 carries a window that no later level
    # carries: a final half that started one level late would miss it.
    m, seed = 5, 3
    ref = ReferenceLevelLog(SYM)
    run(ChainState.empty(m, SYM), MinRule(), 300, RandomStream(seed, 0), [ref])
    cut = next(
        n for n in range(2, ref.level_count)
        if any(ref.flags[n // 2][f] and not any(g[f] for g in ref.flags[n // 2 + 1 : n]) for f in FLAG_NAMES)
    )
    monitors = _front_ends_and_references(SYM, m, MinRule(), None, ref.level_times[cut] - 1, seed)
    _assert_front_ends_match(monitors)
    assert monitors[0].level_count == cut
    counts = monitors[0].report()["final_half_flag_counts"]
    assert any(counts[f] == 1 and ref.flags[cut // 2][f] for f in FLAG_NAMES)


@pytest.mark.parametrize(
    "kind, m, observe_parity",
    [(SYM, 5, False), (ASYM, 5, False), (ASYM, 4, True)],
    ids=["sym-m5", "asym-m5", "asym-m4-parity"],
)
def test_observers_run_in_flat_memory(kind, m, observe_parity):
    # Fixed before any run: a record per level or per renewal would add
    # megabytes over the 11 500 extra steps.  Both lengths pass one block of
    # DRAW_BLOCK uniforms, whose list would otherwise count as growth.
    bound = 128 * 2**10

    def peak(steps):
        tracemalloc.start()
        try:
            observers = [LevelLog(kind), *([ParityGapSeries(m)] if observe_parity else [])]
            run(ChainState.empty(m, kind), MinRule(), steps, RandomStream(3, 0), observers,
                sample_every=steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4500)  # warm-up: first-call caches are not the observers' memory
    short, long = peak(4500), peak(16000)
    assert abs(long - short) < bound


def _scan_limits(empirical, limits, tolerance=MATCH_TOLERANCE):
    """The per-configuration scan `nearest_limit` replaced: (first minimiser's index, distance)."""
    best = best_dist = None
    for i, config in enumerate(limits):
        dist = max(abs(e - x) for e, x in zip(empirical, config.x_float))
        if best_dist is None or dist < best_dist:
            best, best_dist = i, dist
    if best is not None and best_dist <= tolerance:
        return best, best_dist
    return None, best_dist


@pytest.mark.parametrize("m", range(4, 13))
def test_nearest_limit_matches_the_scan(m):
    limits = enumerate_limits(m)
    x = limit_floats(limits)
    rng = np.random.default_rng(m)
    vectors = list(rng.dirichlet(np.ones(m), size=40))  # random fractions
    vectors += list(x)  # the limits themselves, at distance 0
    for row in x:
        # a few ulps around the tolerance, on one coordinate of a limit
        v = row.copy()
        v[0] = row[0] + MATCH_TOLERANCE
        for _ in range(4):
            v[0] = np.nextafter(v[0], -1.0)
        for _ in range(8):
            vectors.append(v.copy())
            v[0] = np.nextafter(v[0], 2.0)
    outcomes = set()
    for v in vectors:
        for empirical in (v, v.tolist()):
            want = _scan_limits(empirical, limits)
            assert nearest_limit(empirical, x) == want
            config, dist = match_limit(empirical, limits)
            assert (config, dist) == (None if want[0] is None else limits[want[0]], want[1])
        outcomes.add(want[0] is None)
    assert outcomes == {False, True}  # matched and unmatched vectors both occur
    # Every configuration twice: each vector's minimum is a tie, won by the first copy.
    doubled = limits + limits
    for v in vectors[:60]:
        assert nearest_limit(v, limit_floats(doubled)) == _scan_limits(v, doubled)
    assert nearest_limit(x[0], x[:0]) == _scan_limits(x[0], []) == (None, None)
