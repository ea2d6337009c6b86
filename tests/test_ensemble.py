import dataclasses
import sys
from itertools import product

import numpy as np
import pytest

from nqsim import ensemble, levels, statetable
from nqsim.dynamics import ChainState, MaxRule, MinRule, RandomStream, Softmax, run
from nqsim.ensemble import FLAG_NAMES, EnsembleRequest, EnsembleResult, run_ensemble
from nqsim.observers import LevelLog, ParityGapSeries, pattern, stat_S
from nqsim.ring import Neighborhood, potentials, reduce_potential
from nqsim.scaling import classify_final_ties
from oracles import isolated_zero_centers, literal_window_flags, neighborhood, stat_Q, stat_W, step

ASYM = Neighborhood.ASYMMETRIC
SYM = Neighborhood.SYMMETRIC

RULES = [MinRule(), MaxRule()]


# Asymmetric min-rule runs from empty take the state table at M <= 10 and
# the lock-step loop at M = 11.
@pytest.mark.parametrize("m", [4, 6, 11])
@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("rule", RULES, ids=str)
def test_matches_single_chain_bit_for_bit(kind, rule, m):
    steps, replicas, seed = 400, 3, 314
    res = run_ensemble(
        EnsembleRequest(m=m, kind=kind, rule=rule, steps=steps, replicas=replicas, seed=seed)
    )
    for r in range(replicas):
        out = run(ChainState.empty(m, kind), rule, steps, RandomStream(seed, r))
        assert tuple(res.xi[r]) == out.final.xi
        assert tuple(res.u[r]) == out.final.u


def _random_init(m: int, seed: int) -> tuple[int, ...]:
    return tuple(int(x) for x in np.random.default_rng(seed).integers(0, 4, m))


# M = 7 and 9 reach min/max tie sets of 6 and 7 sites, whose float thresholds
# n * (1/n) fall short of 1.  M = 10 and 11 sit on either side of the largest
# ring whose reachable states are searched; M = 8 adds an even ring.
@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("rule", RULES, ids=str)
@pytest.mark.parametrize("m", [7, 8, 9, 10, 11])
@pytest.mark.parametrize("random_init", [False, True], ids=["empty", "random"])
def test_sites_match_single_chain_step_by_step(kind, rule, m, random_init):
    steps, replicas, seed = 300, 3, 2024 + m
    init = _random_init(m, seed) if random_init else (0,) * m
    res = run_ensemble(
        EnsembleRequest(
            m=m, kind=kind, rule=rule, steps=steps, replicas=replicas, seed=seed, init=init,
            record_sites=True,
        )
    )
    for r in range(replicas):
        start = ChainState.from_occupancy(init, kind)
        out = run(start, rule, steps, RandomStream(seed, r), sample_every=1)
        assert res.sites[r].tolist() == [rec.site for rec in out.records[1:]]
        assert tuple(res.xi[r]) == out.final.xi
        assert tuple(res.u[r]) == out.final.u


def test_softmax_is_refused_before_any_stream_is_made(monkeypatch):
    # The softmax kernel is simulated one chain at a time (`dynamics.run`) only.
    def no_stream(*args):
        raise AssertionError("a stream was made")

    monkeypatch.setattr(ensemble, "RandomStream", no_stream)
    req = EnsembleRequest(m=6, kind=ASYM, rule=Softmax(0.5), steps=10, replicas=2, seed=0)
    with pytest.raises(ValueError, match="min and max rules only"):
        run_ensemble(req)


@pytest.mark.parametrize("steps", [0, 5])
@pytest.mark.parametrize("extra", [-1, 1], ids=["shorter", "longer"])
@pytest.mark.parametrize("kind", [ASYM, SYM], ids=str)
@pytest.mark.parametrize("rule", [Softmax(0.5), Softmax(1.0), Softmax(2.0)], ids=str)
def test_softmax_is_refused_before_the_init_length_check(monkeypatch, rule, kind, extra, steps):
    # The rule is checked first: an init of the wrong length does not change
    # the error, and nothing past the checks runs.
    def not_reached(*args):
        raise AssertionError("ran past the rule check")

    for name in ("RandomStream", "_footprint_bytes", "check_ring_size"):
        monkeypatch.setattr(ensemble, name, not_reached)
    monkeypatch.setattr(statetable, "min_rule_states", not_reached)
    init = (1,) * (5 + extra)
    req = EnsembleRequest(m=5, kind=kind, rule=rule, steps=steps, replicas=2, seed=0, init=init)
    with pytest.raises(ValueError) as err:
        run_ensemble(req)
    assert str(err.value) == f"the replica engine runs the min and max rules only, got {rule}"


def test_sites_match_single_chain_when_chunks_do_not_divide_steps():
    m, steps, seed = 5, 250, 8
    res = run_ensemble(
        EnsembleRequest(
            m=m, kind=SYM, rule=MinRule(), steps=steps, replicas=2, seed=seed, chunk_steps=64,
            record_sites=True,
        )
    )
    for r in range(2):
        out = run(ChainState.empty(m, SYM), MinRule(), steps, RandomStream(seed, r), sample_every=1)
        assert res.sites[r].tolist() == [rec.site for rec in out.records[1:]]


class _RecordingStream:
    """RandomStream whose generator records the size of every block it draws,
    in `sizes`, and the uniforms each stream has drawn, in `drawn`."""

    sizes: list = []
    drawn: dict = {}

    def __init__(self, seed: int, stream: int):
        self.gen = RandomStream(seed, stream).generator()
        self.stream = stream

    def generator(self):
        return self

    def random(self, size=None, out=None):
        n = size if out is None else len(out)
        self.sizes.append(n)
        self.drawn[self.stream] = self.drawn.get(self.stream, 0) + n
        return self.gen.random(size, out=out)


def _same_result(a, b) -> bool:
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "h_checkpoints":
            if x.keys() != y.keys() or not all(np.array_equal(x[t], y[t]) for t in x):
                return False
        elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and np.array_equal(x, y)):
                return False
        elif x != y:
            return False
    return True


@pytest.mark.parametrize("block_cells", [1, 7, 10, 600])
@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("rule", RULES, ids=str)
def test_uniform_blocks_change_no_result(monkeypatch, kind, rule, block_cells):
    # The default run draws all 301 steps in one block; with block_cells // R
    # steps per block (1, 2, 3 or 200 at R = 3) every block is split, the
    # last two leaving a shorter final block.  Philox gives one
    # double per draw, so each replica's draws and every tracked output must
    # be unchanged.
    req = EnsembleRequest(
        m=6, kind=kind, rule=rule, steps=301, replicas=3, seed=99, h_checkpoints=(1, 150, 301),
        track_levels=True, store_level_flags=True, track_renewals=True, check_bounds=True,
        record_sites=True,
    )
    monkeypatch.setattr(ensemble, "RandomStream", _RecordingStream)
    monkeypatch.setattr(_RecordingStream, "sizes", [])
    whole = run_ensemble(req)
    assert _RecordingStream.sizes == [301] * 3
    monkeypatch.setattr(ensemble, "_UNIF_BLOCK_CELLS", block_cells)
    monkeypatch.setattr(_RecordingStream, "sizes", [])
    split = run_ensemble(req)
    per_block = max(1, block_cells // 3)
    assert max(_RecordingStream.sizes) == per_block and sum(_RecordingStream.sizes) == 3 * 301
    assert _same_result(whole, split)


def test_uniform_block_bounds_peak_memory():
    import tracemalloc

    # One (R, 4096) float64 block at R = 1000 would alone be 31.25 MiB.
    bound = 16 * 2**20
    req = EnsembleRequest(m=8, kind=ASYM, rule=MinRule(), steps=4096, replicas=1000, seed=3)
    tracemalloc.start()
    try:
        run_ensemble(req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


class _FixedUniforms:
    """A stand-in for RandomStream and its generator: every draw is `value`."""

    def __init__(self, value: float):
        self.value = value

    def generator(self):
        return self

    def random(self, size=None, out=None):
        if out is not None:
            out[...] = self.value
            return out
        return self.value if size is None else np.full(size, self.value)


@pytest.mark.parametrize("rule", [MinRule()], ids=str)
@pytest.mark.parametrize("m", [8, 9])
def test_tie_break_stays_inside_tie_set_in_both_drivers(monkeypatch, m, rule):
    # Two particles on the last site of an asymmetric ring: the minimisers are
    # sites 1..M-2, a tie set of 6 (M=8) or 7 (M=9) whose float thresholds
    # sum to less than 1.  Draws at and just below every threshold must agree,
    # and a draw just below 1 must land on the last tie site, never on site M.
    init = (0,) * (m - 1) + (2,)
    n = m - 2
    thresholds = np.cumsum(np.full(n, 1.0 / n))
    assert thresholds[-1] < 1.0
    draws = [np.nextafter(1.0, 0.0)]
    for c in thresholds:
        draws += [c, np.nextafter(c, 0.0)]
    state = ChainState.from_occupancy(init, ASYM)
    for U in draws:
        _, single = step(state, rule, _FixedUniforms(U))
        monkeypatch.setattr(ensemble, "RandomStream", lambda seed, stream: _FixedUniforms(U))
        res = run_ensemble(
            EnsembleRequest(
                m=m, kind=ASYM, rule=rule, steps=1, replicas=2, seed=0, init=init,
                record_sites=True,
            )
        )
        assert res.sites[:, 0].tolist() == [single, single]
        assert 1 <= single <= n
    _, single = step(state, rule, _FixedUniforms(np.nextafter(1.0, 0.0)))
    assert single == n


@pytest.mark.parametrize("m", [9, 10])
def test_max_tie_break_stays_inside_tie_set_in_both_drivers(monkeypatch, m):
    # One particle on each of sites 1..M-2 of an asymmetric ring: the
    # maximisers are sites 1..M-3 (potential 2), a tie set of 6 (M=9) or
    # 7 (M=10) whose float thresholds sum to less than 1.  Site M-2 holds
    # potential 1 and must never be drawn.
    init = (1,) * (m - 2) + (0, 0)
    n = m - 3
    thresholds = np.cumsum(np.full(n, 1.0 / n))
    assert thresholds[-1] < 1.0
    draws = [np.nextafter(1.0, 0.0)]
    for c in thresholds:
        draws += [c, np.nextafter(c, 0.0)]
    state = ChainState.from_occupancy(init, ASYM)
    for U in draws:
        _, single = step(state, MaxRule(), _FixedUniforms(U))
        monkeypatch.setattr(ensemble, "RandomStream", lambda seed, stream: _FixedUniforms(U))
        res = run_ensemble(
            EnsembleRequest(
                m=m, kind=ASYM, rule=MaxRule(), steps=1, replicas=2, seed=0, init=init,
                record_sites=True,
            )
        )
        assert res.sites[:, 0].tolist() == [single, single]
        assert 1 <= single <= n
    _, single = step(state, MaxRule(), _FixedUniforms(np.nextafter(1.0, 0.0)))
    assert single == n


def test_level_statistics_match_single_chain_log():
    m, steps, seed = 5, 3000, 77
    res = run_ensemble(
        EnsembleRequest(
            m=m,
            kind=SYM,
            rule=MinRule(),
            steps=steps,
            replicas=2,
            seed=seed,
            track_levels=True,
            store_level_flags=True,
        )
    )
    for r in range(2):
        log = LevelLog(SYM)
        run(ChainState.empty(m, SYM), MinRule(), steps, RandomStream(seed, r), observers=[log])
        assert log.level_count == int(res.level_counts[r])
        assert int(res.q_violations[r]) == log.q_decrease_violations
        assert int(res.w_violations[r]) == log.w_increase_violations
        assert int(res.s_violations[r]) == log.s_increase_violations
        assert int(res.persistence_violations[r]) == log.persistence_violations


def test_signatures_beyond_site_64_match_single_chain_log():
    # Sites 1..64 alternate full/empty and stay positive while the empty sites
    # 65..70 fill, so successive level signatures differ only beyond site 64,
    # where an int64 bitmask has no bits.
    m, steps, seed, replicas = 70, 20, 5, 3
    init = (20, 0) * 32 + (0,) * 6
    res = run_ensemble(
        EnsembleRequest(
            m=m, kind=SYM, rule=MinRule(), steps=steps, replicas=replicas, seed=seed, init=init,
            track_levels=True,
        )
    )
    for r in range(replicas):
        log = LevelLog(SYM)
        run(ChainState.from_occupancy(init, SYM), MinRule(), steps, RandomStream(seed, r),
            observers=[log])
        assert int(res.level_counts[r]) == log.level_count
        assert int(res.run_length[r]) == log.run_length
        assert int(res.run_started_level[r]) == log.run_started_level
        assert int(res.persistence_violations[r]) == log.persistence_violations


def _check_against_oracles(v, pos, stats, centers, flag_bits):
    """Each column of `level_statistics` against the literal definitions, on reduced potentials v (M, N)."""
    m = len(v)
    columns = zip(v.T.tolist(), pos.T.tolist(), stats.T.tolist(), centers.T.tolist(), flag_bits.tolist())
    for col, sig, s_q_w, centre_rows, bits in columns:
        assert tuple(map(int, sig)) == pattern(col)
        assert s_q_w == [stat_S(col), stat_Q(col), stat_W(col)]
        # row k marks a centre at site k + 1
        assert {(k + 1) % m for k, hit in enumerate(centre_rows) if hit} == isolated_zero_centers(sig)
        flags = literal_window_flags(sig)
        assert [bool(bits >> i & 1) for i in range(4)] == [flags[n] for n in FLAG_NAMES]


@pytest.mark.parametrize("m", range(3, 15))
def test_level_statistics_match_reference_definitions(m):
    # Every signature on m sites (32 760 over M = 3..14), its positive entries
    # 1, 2 or 3 by site so that S varies, as potentials over a minimum of 0.
    v = np.array(list(product((0, 1), repeat=m)), dtype=np.int64).T * (1 + np.arange(m) % 3)[:, None]
    n = v.shape[1]
    pos, stats, centers, flag_bits = levels.level_statistics(
        v, np.zeros(n, dtype=np.int64), v.sum(axis=0), True, np.arange(n)
    )
    _check_against_oracles(v, pos, stats, centers, flag_bits)


@pytest.mark.parametrize("kind", [ASYM, SYM], ids=["asym", "sym"])
def test_level_statistics_match_reference_definitions_at_m70(kind):
    # Random occupancies, each row with its own share of empty sites, give
    # reduced potentials with zeros, ones and larger entries in many
    # arrangements.
    m = 70
    rng = np.random.default_rng(m)
    xi = rng.integers(1, 3, size=(200, m)) * (rng.random((200, m)) < rng.random((200, 1)))
    u = np.array([potentials(tuple(row), kind) for row in xi.tolist()]).T
    m_new = u.min(axis=0)
    pos, stats, centers, flag_bits = levels.level_statistics(
        u, m_new, u.sum(axis=0), True, np.arange(len(xi))
    )
    _check_against_oracles(u - m_new, pos, stats, centers, flag_bits)


# At T = 0 and 1 the only level is level 0, the whole final half, and the
# near-empty ring carries excluded windows there.
@pytest.mark.parametrize("steps", [0, 1, 40, 2500])
@pytest.mark.parametrize("m", [4, 5, 6, 7, 10])
def test_final_half_flags_match_single_chain_log(m, steps):
    replicas, seed = 4, 31 + m
    res = run_ensemble(
        EnsembleRequest(
            m=m, kind=SYM, rule=MinRule(), steps=steps, replicas=replicas, seed=seed,
            track_levels=True, store_level_flags=True,
        )
    )
    assert res.final_half_flags.shape == (replicas, len(FLAG_NAMES))
    for r in range(replicas):
        log = LevelLog(SYM)
        run(ChainState.empty(m, SYM), MinRule(), steps, RandomStream(seed, r), observers=[log])
        assert int(res.level_counts[r]) == log.level_count
        expected = log.flag_counts(log.level_count // 2)
        assert res.final_half_flags[r].tolist() == [expected[name] > 0 for name in FLAG_NAMES], r
    if steps <= 1:
        assert res.final_half_flags.any()


class _EngineLevelLog(LevelLog):
    """LevelLog that also reads the step of the first S violation, which the engine reports beyond it."""

    def __init__(self, kind):
        super().__init__(kind)
        self.first_s_violation_step = -1

    def _open_level(self, record):
        s_before = self.s_increase_violations
        super()._open_level(record)
        if self.first_s_violation_step < 0 and self.s_increase_violations > s_before:
            self.first_s_violation_step = record.t


def _level_requests(kind, m):
    """Empty and random starts at T in {0, 1, 2, 37, 3000} and R in {1, 3, 200}."""
    rng = np.random.default_rng(m)
    start = tuple(int(x) for x in rng.integers(0, 4, m) * (rng.random(m) < 0.6))
    cases = ((None, 0, 3), (start, 1, 200), (None, 2, 1), (start, 37, 3), (None, 37, 200), (start, 3000, 3))
    for init, steps, replicas in cases:
        yield EnsembleRequest(
            m=m, kind=kind, rule=MinRule(), steps=steps, replicas=replicas, seed=31 * m + steps,
            init=init, track_levels=True, store_level_flags=True,
        )


def _level_log(req, r):
    log = _EngineLevelLog(req.kind)
    start = ChainState.from_occupancy(req.init, req.kind) if req.init else ChainState.empty(req.m, req.kind)
    run(start, MinRule(), req.steps, RandomStream(req.seed, r), observers=[log])
    return log


@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 10, 70])
def test_level_blocks_change_no_result(monkeypatch, kind, m):
    # A flush resolves whatever the buffer holds, so where the blocks end must
    # change no level field: a flush after every opening lock-step (1 cell),
    # one every level or two (7 cells) and the default budget.
    for req in _level_requests(kind, m):
        runs = []
        for cells in (1, 7, levels.LEVEL_BLOCK_CELLS):
            monkeypatch.setattr(levels, "LEVEL_BLOCK_CELLS", cells)
            runs.append(run_ensemble(req))
        res = runs[-1]
        R = req.replicas
        for name in _LEVEL_FIELDS | {"final_half_flags"}:
            value = getattr(res, name)
            want = ((R, len(FLAG_NAMES)), bool) if name == "final_half_flags" else ((R,), np.int64)
            assert (value.shape, value.dtype) == want, name
            for other in runs[:-1]:
                got = getattr(other, name)
                assert got.dtype == value.dtype and np.array_equal(got, value), name
        for r in {0, R - 1}:
            log = _level_log(req, r)
            flags = log.flag_counts(log.level_count // 2)
            assert [int(getattr(res, name)[r]) for name in (
                "level_counts", "s_violations", "q_violations", "w_violations",
                "persistence_violations", "first_s_violation_step", "run_length",
                "run_started_level",
            )] == [
                log.level_count, log.s_increase_violations, log.q_decrease_violations,
                log.w_increase_violations, log.persistence_violations,
                log.first_s_violation_step, log.run_length, log.run_started_level,
            ], (req, r)
            assert res.final_half_flags[r].tolist() == [flags[n] > 0 for n in FLAG_NAMES]


def test_level_block_cases_have_teeth():
    # The cases above reach every monitor: the symmetric runs raise S (and W),
    # the asymmetric ones lower Q, raise W and lose required centres.
    totals = dict.fromkeys(("s_violations", "q_violations", "w_violations", "persistence_violations"), 0)
    for kind in (ASYM, SYM):
        for req in _level_requests(kind, 6):
            res = run_ensemble(req)
            for name in totals:
                totals[name] += int(getattr(res, name).sum())
    assert all(totals.values()), totals


def test_persistence_counts_each_lost_centre_as_the_single_chain_log_does():
    # A level lacking several required centres counts each of them; here
    # 5532 lost centres fall on fewer levels (the engine counted 595 levels).
    m, steps, seed = 10, 3000, 4000
    res = run_ensemble(
        EnsembleRequest(m=m, kind=ASYM, rule=MinRule(), steps=steps, replicas=1, seed=seed, track_levels=True)
    )
    log = LevelLog(ASYM)
    run(ChainState.empty(m, ASYM), MinRule(), steps, RandomStream(seed, 0), observers=[log])
    assert int(res.persistence_violations[0]) == log.persistence_violations == 5532


def test_level_buffer_bounds_peak_memory():
    import tracemalloc

    # Fixed before the run: 4.49 MiB at the per-lock-step tracker this replaced
    # (mostly the 4 MiB uniform block), plus at most 1 MiB for the level buffer
    # and one flush.  A buffer sized in lock-steps would reach tens of MiB.
    bound = 5.5 * 2**20
    req = EnsembleRequest(
        m=5, kind=SYM, rule=MinRule(), steps=2000, replicas=500, seed=3, track_levels=True,
        store_level_flags=True,
    )
    # The first engine run in a process also allocates caches of its own.
    run_ensemble(dataclasses.replace(req, steps=10))
    peaks = []
    for steps in (2000, 20000):
        tracemalloc.start()
        try:
            run_ensemble(dataclasses.replace(req, steps=steps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < bound
    # ten times the steps, the same buffer
    assert abs(peaks[1] - peaks[0]) < 0.25 * 2**20


def test_renewals_match_parity_gap_series():
    m, steps, seed = 4, 2000, 55
    res = run_ensemble(
        EnsembleRequest(
            m=m,
            kind=ASYM,
            rule=MinRule(),
            steps=steps,
            replicas=1,
            seed=seed,
            track_renewals=True,
        )
    )
    series = ParityGapSeries(m)
    run(ChainState.empty(m, ASYM), MinRule(), steps, RandomStream(seed, 0), observers=[series])
    assert int(res.renewal_counts[0]) == series.renewals
    pos = sum(n for z, n in series.increments.items() if z > 0)
    neg = sum(n for z, n in series.increments.items() if z < 0)
    zero = series.increments[0]
    assert (res.zeta_positive, res.zeta_negative, res.zeta_zero) == (pos, neg, zero)
    # tail counts against the exact increments
    for c in range(11):
        assert res.zeta_tail[c] == sum(n for z, n in series.increments.items() if abs(z) > c)


def test_h_checkpoints_match_parity_gap():
    m, steps, seed = 4, 512, 21
    cps = (128, 256, 512)
    res = run_ensemble(
        EnsembleRequest(
            m=m, kind=ASYM, rule=MinRule(), steps=steps, replicas=3, seed=seed, h_checkpoints=cps
        )
    )
    for r in range(3):
        series = ParityGapSeries(m, sample_times=cps)
        run(
            ChainState.empty(m, ASYM), MinRule(), steps, RandomStream(seed, r), observers=[series]
        )
        for t in cps:
            assert res.h_checkpoints[t][r] == pytest.approx(float(series.samples[t]))


def test_parity_holds_every_step_from_occupancy_start():
    res = run_ensemble(
        EnsembleRequest(
            m=6,
            kind=ASYM,
            rule=MinRule(),
            steps=5000,
            replicas=5,
            seed=1,
            check_bounds=True,
        )
    )
    assert res.parity_violations == 0


def test_initial_occupancy_honoured():
    init = (3, 0, 1, 0)
    res = run_ensemble(
        EnsembleRequest(
            m=4, kind=SYM, rule=MinRule(), steps=0, replicas=2, seed=0, init=init
        )
    )
    assert (res.xi == np.array(init)).all()
    assert res.t == 0


@pytest.mark.parametrize("steps", [0, 5])
@pytest.mark.parametrize("extra", [-1, 1], ids=["shorter", "longer"])
@pytest.mark.parametrize("kind", [ASYM, SYM], ids=str)
@pytest.mark.parametrize("rule", RULES, ids=str)
def test_init_of_the_wrong_length_is_refused_first(monkeypatch, rule, kind, extra, steps):
    # Refused before the size estimate and the state search are reached.
    def not_reached(*args):
        raise AssertionError("ran past the init length check")

    monkeypatch.setattr(ensemble, "_footprint_bytes", not_reached)
    monkeypatch.setattr(statetable, "min_rule_states", not_reached)
    init = (1,) * (5 + extra)
    req = EnsembleRequest(m=5, kind=kind, rule=rule, steps=steps, replicas=2, seed=0, init=init)
    with pytest.raises(ValueError) as err:
        run_ensemble(req)
    assert str(err.value) == f"init lists {5 + extra} counts for m=5 sites"


def test_sites_recorded_one_based():
    res = run_ensemble(
        EnsembleRequest(
            m=5, kind=ASYM, rule=MinRule(), steps=100, replicas=2, seed=9, record_sites=True
        )
    )
    assert res.sites.shape == (2, 100)
    assert res.sites.min() >= 1 and res.sites.max() <= 5
    # replaying the recorded sites reproduces the final occupancy
    for r in range(2):
        counts = np.bincount(res.sites[r] - 1, minlength=5)
        assert (counts == res.xi[r]).all()


def test_validation_errors():
    with pytest.raises(ValueError):
        run_ensemble(
            EnsembleRequest(m=5, kind=ASYM, rule=MinRule(), steps=10, replicas=0, seed=0)
        )
    with pytest.raises(ValueError):
        run_ensemble(
            EnsembleRequest(
                m=5, kind=ASYM, rule=MinRule(), steps=10, replicas=1, seed=0,
                store_level_flags=True,
            )
        )


@pytest.mark.parametrize("checkpoints", [(5, 50), (-2,), (0, 11)])
def test_h_checkpoints_outside_the_run_are_refused(checkpoints):
    req = EnsembleRequest(
        m=4, kind=ASYM, rule=MinRule(), steps=10, replicas=2, seed=0, h_checkpoints=checkpoints
    )
    with pytest.raises(ValueError, match=r"steps 0\.\.10"):
        run_ensemble(req)


def test_repeated_h_checkpoint_is_recorded_once():
    base = dict(m=4, kind=ASYM, rule=MinRule(), steps=10, replicas=2, seed=0)
    res = run_ensemble(EnsembleRequest(**base, h_checkpoints=(5, 0, 5)))
    ref = run_ensemble(EnsembleRequest(**base, h_checkpoints=(5, 0)))
    assert list(res.h_checkpoints) == [5, 0]
    for t in (5, 0):
        assert (res.h_checkpoints[t] == ref.h_checkpoints[t]).all()


_LEVEL_FIELDS = {
    "level_counts", "s_violations", "q_violations", "w_violations", "first_s_violation_step",
    "persistence_violations", "run_length", "run_started_level",
}
# Each tracker request and the result fields it fills.  The symmetric window
# for the bounds, whose even/odd identity fails there, so its counters move.
_TRACKERS = {
    "levels": ({"track_levels": True}, _LEVEL_FIELDS),
    "level-flags": (
        {"track_levels": True, "store_level_flags": True}, _LEVEL_FIELDS | {"final_half_flags"}
    ),
    "renewals": (
        {"track_renewals": True},
        {"renewal_counts", "zeta_positive", "zeta_negative", "zeta_zero", "zeta_tail"},
    ),
    "bounds": (
        {"check_bounds": True, "kind": SYM},
        {"parity_violations", "first_parity_violation_step", "comb_violations", "comb_max_seen",
         "residual_violations"},
    ),
    # The parity identity is checked at even M only.
    "bounds-odd-m": (
        {"check_bounds": True, "kind": SYM, "m": 5},
        {"comb_violations", "comb_max_seen", "residual_violations"},
    ),
    "sites": ({"record_sites": True}, {"sites"}),
    "last-seen": ({"track_last_seen": True}, {"last_seen"}),
    "checkpoints": ({"h_checkpoints": (0, 7, 400)}, {"h_checkpoints"}),
}


@pytest.mark.parametrize("tracker", list(_TRACKERS))
def test_each_tracker_fills_exactly_its_fields(tracker):
    flags, filled = _TRACKERS[tracker]
    base = dict(m=6, kind=ASYM, rule=MinRule(), steps=400, replicas=4, seed=8)
    res = run_ensemble(EnsembleRequest(**{**base, **flags}))
    for f in dataclasses.fields(EnsembleResult):
        if f.name in ("request", "t", "xi", "u"):
            continue
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        value = getattr(res, f.name)
        if default is None:
            kept = value is None
        else:
            kept = type(value) is type(default) and value == default
        assert kept == (f.name not in filled), f.name


def _last_seen(sites, m: int) -> list[int]:
    """Last 1-based step at which each site was allocated, 0 if never."""
    last = [0] * m
    for t, s in enumerate(sites, 1):
        last[s - 1] = t
    return last


def _checkpoints(steps: int) -> tuple[int, ...]:
    return tuple(sorted({0, 1, 2, 5, steps // 2, steps} & set(range(steps + 1))))


# A bare max-rule request advances in bulk once every max tie set is
# absorbing.  One block per run, and blocks of 1 and 2 steps at R = 3, put
# absorption mid-block and on a block edge.  Odd M start from a random
# occupancy, whose tie sets take longer to absorb.
@pytest.mark.parametrize("block_cells", [None, 1, 7])
@pytest.mark.parametrize("steps", [0, 1, 2, 9, 300])
@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9])
def test_absorbed_max_rule_matches_single_chain(monkeypatch, m, kind, steps, block_cells):
    replicas, seed = 3, 500 + m
    init = _random_init(m, seed) if m % 2 else (0,) * m
    if block_cells is not None:
        monkeypatch.setattr(ensemble, "_UNIF_BLOCK_CELLS", block_cells)
    req = EnsembleRequest(
        m=m, kind=kind, rule=MaxRule(), steps=steps, replicas=replicas, seed=seed, init=init,
        h_checkpoints=_checkpoints(steps), record_sites=True, track_last_seen=True,
    )
    res = run_ensemble(req)
    # A per-step check keeps the request on the lock-step loop throughout.
    lock = run_ensemble(dataclasses.replace(req, check_bounds=True))
    assert res.last_seen.shape == (replicas, m) and res.last_seen.dtype == np.int64
    for r in range(replicas):
        out = run(ChainState.from_occupancy(init, kind), MaxRule(), steps, RandomStream(seed, r),
                  sample_every=1)
        sites = [rec.site for rec in out.records[1:]]
        assert res.sites[r].tolist() == sites
        assert res.last_seen[r].tolist() == _last_seen(sites, m)
        assert tuple(res.xi[r]) == out.final.xi
        assert tuple(res.u[r]) == out.final.u
    for name in ("xi", "u", "sites", "last_seen"):
        assert np.array_equal(getattr(res, name), getattr(lock, name)), name
    assert res.h_checkpoints.keys() == lock.h_checkpoints.keys()
    for t in res.h_checkpoints:
        assert np.array_equal(res.h_checkpoints[t], lock.h_checkpoints[t]), t


@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("rule", [MinRule()], ids=str)
@pytest.mark.parametrize("m", [4, 7, 10, 11])
def test_last_seen_on_lock_step_path(kind, rule, m):
    steps, replicas, seed = 300, 3, 60 + m
    res = run_ensemble(
        EnsembleRequest(
            m=m, kind=kind, rule=rule, steps=steps, replicas=replicas, seed=seed,
            track_last_seen=True,
        )
    )
    for r in range(replicas):
        out = run(ChainState.empty(m, kind), rule, steps, RandomStream(seed, r), sample_every=1)
        assert res.last_seen[r].tolist() == _last_seen([rec.site for rec in out.records[1:]], m)


def _draw_calls(req: EnsembleRequest) -> int:
    """How many lock-step site draws run_ensemble makes for `req`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "draw" and code.co_filename == ensemble.__file__:
            calls += 1

    sys.setprofile(profile)
    try:
        run_ensemble(req)
    finally:
        sys.setprofile(None)
    return calls


def _every_member_raises_every_member(members, m: int, kind: Neighborhood) -> bool:
    """Brute force: a particle at 0-based site k raises site i when k = i + d for a window offset d."""
    offsets = {d % m for d in kind.offsets}
    return all((k - i) % m in offsets for i in members for k in members)


@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("m", range(3, 9))
def test_absorbed_max_ties_on_every_tie_mask(kind, m):
    # column c - 1 holds potential 1 on the sites of the bits of c, 0 elsewhere
    u = (np.arange(1, 2**m) >> np.arange(m)[:, None] & 1).astype(np.int64)
    absorbed, lo, hi = ensemble.absorbed_max_ties(u, kind)
    for c, col in enumerate(u.T.tolist()):
        members = [i for i in range(m) if col[i]]
        assert absorbed[c] == _every_member_raises_every_member(members, m, kind), members
        assert (lo[c], hi[c]) == (members[0], members[-1])
    if m >= kind.min_sites:  # the single sites, and the adjacent pairs under the symmetric window
        assert absorbed.sum() == m * (kind.window - 1)


@pytest.mark.parametrize("kind", [ASYM, SYM])
def test_absorbed_phase_takes_no_lock_steps(kind):
    # The lock-steps stop at the first step after which every replica's max
    # tie set is absorbing, read off the single chains.  From empty that is
    # within a few dozen steps (each step leaves the transient sets with
    # probability >= 1/2).
    m, replicas, seed = 6, 50, 4
    req = EnsembleRequest(
        m=m, kind=kind, rule=MaxRule(), steps=3000, replicas=replicas, seed=seed, track_last_seen=True,
    )
    absorbed_at = []
    for r in range(replicas):
        out = run(ChainState.empty(m, kind), MaxRule(), 100, RandomStream(seed, r), sample_every=1)
        ties = [[i for i in range(m) if rec.u[i] == max(rec.u)] for rec in out.records]
        absorbed_at.append(
            next(t for t, members in enumerate(ties) if _every_member_raises_every_member(members, m, kind))
        )
    assert _draw_calls(req) == max(absorbed_at)
    assert _draw_calls(dataclasses.replace(req, track_renewals=True)) == 3000
    assert _draw_calls(dataclasses.replace(req, rule=MinRule())) == 3000


def _assert_replicas_match_single_chain(req: EnsembleRequest, res: EnsembleResult) -> None:
    for r in range(req.replicas):
        out = run(ChainState.from_occupancy(req.init or (0,) * req.m, req.kind), req.rule, req.steps,
                  RandomStream(req.seed, r), sample_every=1)
        sites = [rec.site for rec in out.records[1:]]
        assert res.sites[r].tolist() == sites
        assert res.last_seen[r].tolist() == _last_seen(sites, req.m)
        assert tuple(res.xi[r]) == out.final.xi
        assert tuple(res.u[r]) == out.final.u


# Once every max tie set is absorbing only the replicas on a pair draw; blocks
# start at 16 steps and double until then.  From empty an asymmetric replica
# freezes on a single site, at step s >= 2 with probability 2^-(s-1), so at
# R = 200 all of them are absorbed within the first block of 16 steps or the
# next of 32.  The symmetric start 2,1,1,1,2,0,1 has the max tie set {1, 2, 4}
# (1-based): a replica that draws site 1 or 2 first freezes on the pair {1, 2},
# one that draws site 4 on that single site, so both kinds of row occur.
@pytest.mark.parametrize(
    "kind, m, replicas, init, steps",
    [(ASYM, 5, 200, None, 4000), (SYM, 7, 300, (2, 1, 1, 1, 2, 0, 1), 2000)],
    ids=["asym-single", "sym-mixed"],
)
def test_frozen_single_sites_draw_nothing(monkeypatch, kind, m, replicas, init, steps):
    req = EnsembleRequest(
        m=m, kind=kind, rule=MaxRule(), steps=steps, replicas=replicas, seed=41 + m, init=init,
        h_checkpoints=(0, 1, 17, 49, steps // 2, steps), record_sites=True, track_last_seen=True,
    )
    monkeypatch.setattr(ensemble, "RandomStream", _RecordingStream)
    monkeypatch.setattr(_RecordingStream, "drawn", {})
    res = run_ensemble(req)
    drawn = _RecordingStream.drawn
    tags = [o.tag for o in classify_final_ties(res.u, res.last_seen, kind)]
    if kind is ASYM:
        assert set(tags) == {"single"}
        assert max(drawn.values()) <= 64
    else:
        assert tags == ["single" if k == 4 else "pair" for k in res.sites[:, 0].tolist()]
        assert set(tags) == {"single", "pair"}
        # the pairs draw every step, the single sites only the first blocks
        for r, tag in enumerate(tags):
            assert (drawn[r] == steps) == (tag == "pair")
    for block_cells in (1, 7):
        monkeypatch.setattr(ensemble, "_UNIF_BLOCK_CELLS", block_cells)
        assert _same_result(res, run_ensemble(req))
    _assert_replicas_match_single_chain(req, res)


def test_size_guard_refuses_before_allocating(monkeypatch):
    req = EnsembleRequest(m=5, kind=ASYM, rule=MaxRule(), steps=5000, replicas=20, seed=0)
    with_sites = dataclasses.replace(req, record_sites=True)
    # the R x T int16 site record is counted
    assert ensemble._footprint_bytes(with_sites, 5) == ensemble._footprint_bytes(req, 5) + 2 * 20 * 5000
    monkeypatch.setattr(ensemble, "MAX_ENSEMBLE_BYTES", ensemble._footprint_bytes(req, 5))
    run_ensemble(req)
    with pytest.raises(ValueError, match="MiB limit"):
        run_ensemble(with_sites)
    # the (M, M) helpers are counted
    with pytest.raises(ValueError, match="MiB limit"):
        run_ensemble(dataclasses.replace(req, m=200, init=None, replicas=1))
    # the level buffer is counted: an int64 potential per cell, an id and a step per column
    with_levels = dataclasses.replace(req, track_levels=True)
    need = ensemble._footprint_bytes(with_levels, 5)
    assert need == ensemble._footprint_bytes(req, 5) + levels.buffer_bytes(5, 20)
    assert levels.buffer_bytes(5, 20) == (8 * 5 + 2 + 8) * levels.buffer_columns(5, 20)
    # the tie-set code table is counted at M <= 10: 2^M codes of 2 * grid entries
    with monkeypatch.context() as mp:
        mp.setattr(ensemble, "_TABLE_MAX_M", 0)
        table = need - ensemble._footprint_bytes(with_levels, 5)
    assert table == ensemble._CODE_ENTRY_BYTES * 2**5 * 2 * ensemble._table_grid(5)
    monkeypatch.setattr(ensemble, "MAX_ENSEMBLE_BYTES", need - 1)
    with monkeypatch.context() as mp:
        # refused before the code table and the tracker are built
        mp.setattr(ensemble, "_code_table", None)
        mp.setattr(ensemble, "LevelTracker", None)
        with pytest.raises(ValueError, match="MiB limit"):
            run_ensemble(with_levels)
    monkeypatch.setattr(ensemble, "MAX_ENSEMBLE_BYTES", need)
    run_ensemble(with_levels)


def _assert_identical(a: EnsembleResult, b: EnsembleResult) -> None:
    """Every field equal in value, type, dtype and shape; checkpoints in the same key order."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "h_checkpoints":
            assert list(x) == list(y)
            pairs = [(x[t], y[t]) for t in x]
        else:
            pairs = [(x, y)]
        for p, q in pairs:
            assert type(p) is type(q), f.name
            if isinstance(p, np.ndarray):
                assert (p.dtype, p.shape) == (q.dtype, q.shape), f.name
                assert np.array_equal(p, q), f.name
            else:
                assert p == q, f.name


def _table_trackers(steps: int) -> dict:
    """Tracker sets of the state-table tests; the checkpoints include 0 and a repeat."""
    checkpoints = (0, steps // 2, steps, steps // 2, min(1, steps))
    return {
        "none": {},
        "renewals": {"track_renewals": True},
        "renewals-checkpoints": {"track_renewals": True, "h_checkpoints": checkpoints},
        "sites": {"record_sites": True},
        "last-seen": {"track_last_seen": True},
    }


# The state-table path against the lock-step loop, forced by a zero state cap
# (the lock-step loop's own block splits are pinned above).  Blocks of 1 and 7
# cells split the run into blocks of 1 or 7 steps (R = 1) and 1 or 2 steps
# (R = 3), shorter than a slice, so slices end on every block edge; at R = 200
# they would repeat the 1-step blocks at 200 times the cost.
@pytest.mark.parametrize("random_init", [False, True], ids=["empty", "random"])
@pytest.mark.parametrize("steps", [0, 1, 2, 9, 300, 1100])
@pytest.mark.parametrize("m", range(3, 11))
def test_state_table_matches_lock_step(monkeypatch, m, steps, random_init):
    seed = 900 + m
    init = _random_init(m, seed) if random_init else (0,) * m
    for replicas in (1, 3, 200):
        for name, flags in _table_trackers(steps).items():
            req = EnsembleRequest(
                m=m, kind=ASYM, rule=MinRule(), steps=steps, replicas=replicas, seed=seed,
                init=init, **flags,
            )
            with monkeypatch.context() as mp:
                mp.setattr(ensemble, "_TABLE_MAX_STATES", 0)
                lock = run_ensemble(req)
            for block_cells in (None, 1, 7) if replicas <= 3 else (None,):
                with monkeypatch.context() as mp:
                    if block_cells is not None:
                        mp.setattr(ensemble, "_UNIF_BLOCK_CELLS", block_cells)
                    res = run_ensemble(req)
                _assert_identical(res, lock)
            if name == "sites":
                for r in {0, replicas - 1}:
                    start = ChainState.from_occupancy(init, ASYM)
                    out = run(start, MinRule(), steps, RandomStream(seed, r), sample_every=1)
                    assert res.sites[r].tolist() == [rec.site for rec in out.records[1:]]
                    assert tuple(res.xi[r]) == out.final.xi
                    assert tuple(res.u[r]) == out.final.u


# Every tie-set code at M = 4..10 under both windows and rules, drawn at 0,
# at each threshold THR[n, k] of its size n and the float just below it, and
# just below 1.
@pytest.mark.parametrize("m", range(4, 11))
@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("rule", RULES, ids=str)
def test_code_table_draws_every_tie_set(m, kind, rule):
    is_min = isinstance(rule, MinRule)
    thr = ensemble._threshold_table(m)
    tab = ensemble._code_table(m, kind, is_min, thr)
    grid = tab.stride // 2
    # raised[k]: the sites whose window holds site k, so that a particle at k raises them
    raised = [sum(1 << (k - d) % m for d in kind.offsets) for k in range(m)]
    # the rank-matmul draw: (table_index @ mask)[i] = (m + 1) * n + (members at sites <= i)
    table_index = np.tril(np.ones((m, m))) + (m + 1)
    for z in range(1, 2**m):
        mask = z >> np.arange(m) & 1
        n = int(mask.sum())
        draws = [0.0, np.nextafter(1.0, 0.0)]
        for k in range(1, n):
            draws += [thr[n, k], np.nextafter(thr[n, k], 0.0)]
        U = np.array(draws)
        e = z * tab.stride + 2 * (U * grid).astype(np.intp)
        e += U >= tab.cut[e]
        sites = tab.site[e].tolist()
        c = thr.ravel().take((table_index @ mask).astype(np.intp))
        assert sites == (c[:, None] <= U).sum(axis=0).tolist(), z
        want = [z & ~raised[k] if is_min else z & raised[k] for k in sites]
        assert (tab.next[e] // tab.stride).tolist() == want, z


def _path_trackers(steps: int) -> dict:
    """Tracker sets of the code-table test; the checkpoints include 0 and a repeat."""
    checkpoints = (0, steps // 2, steps, steps // 2)
    records = {"h_checkpoints": checkpoints, "record_sites": True, "track_last_seen": True}
    levels = {"track_levels": True, "store_level_flags": True}
    return {
        "none": {},
        "levels": levels,
        "renewals": {"track_renewals": True},
        "bounds": {"check_bounds": True},
        "records": records,
        "all": {**levels, **records, "track_renewals": True, "check_bounds": True},
    }


# The code table against the rank-matmul draw, forced by _TABLE_MAX_M = 0,
# which also keeps asymmetric min-rule requests off the state table.
@pytest.mark.parametrize("m", range(4, 11))
@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("rule", RULES, ids=str)
def test_code_table_matches_rank_draw(monkeypatch, m, kind, rule):
    seed = 600 + m
    cases = (
        (_random_init(m, seed), 0, 2), (_random_init(m, seed + 1), 1, 3),
        (_random_init(m, seed + 2), 150, 4), ((0,) * m, 150, 4), (_random_init(m, seed + 3), 40, 60),
    )
    for init, steps, replicas in cases:
        for flags in _path_trackers(steps).values():
            req = EnsembleRequest(
                m=m, kind=kind, rule=rule, steps=steps, replicas=replicas, seed=seed, init=init, **flags,
            )
            with monkeypatch.context() as mp:
                mp.setattr(ensemble, "_TABLE_MAX_M", 0)
                ref = run_ensemble(req)
            _assert_identical(run_ensemble(req), ref)


def test_state_table_path_guard(monkeypatch):
    # Criterion 08's shape (renewals and checkpoints, asymmetric min rule)
    # takes no lock-step draw; a tracker that reads the full potentials, or a
    # ring above M = 10, takes one draw per step.
    steps = 200
    req = EnsembleRequest(
        m=4, kind=ASYM, rule=MinRule(), steps=steps, replicas=20, seed=31337,
        h_checkpoints=(50, 100, 200), track_renewals=True,
    )
    assert _draw_calls(req) == 0
    assert _draw_calls(dataclasses.replace(req, m=10, record_sites=True)) == 0
    assert _draw_calls(dataclasses.replace(req, track_levels=True)) == steps
    assert _draw_calls(dataclasses.replace(req, check_bounds=True)) == steps
    last_seen = dataclasses.replace(req, track_renewals=False, track_last_seen=True)
    assert _draw_calls(last_seen) == steps
    assert _draw_calls(dataclasses.replace(req, kind=SYM)) == steps

    # From empty, M = 11 has 37 555 reachable states: no ring above M = 10 is searched.
    def no_search(*args):
        raise AssertionError("the state search ran")

    monkeypatch.setattr(statetable, "min_rule_states", no_search)
    assert _draw_calls(dataclasses.replace(req, m=11)) == steps
    assert _draw_calls(dataclasses.replace(req, m=14)) == steps


@pytest.mark.parametrize("m", range(3, 15))
def test_state_search_runs_up_to_m_10_only(monkeypatch, m):
    # An asymmetric min-rule run from empty searches its reachable states and
    # takes no lock-step draw exactly when M <= 10.
    steps = 50
    searches = []
    search = statetable.min_rule_states

    def recording_search(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(statetable, "min_rule_states", recording_search)
    req = EnsembleRequest(
        m=m, kind=ASYM, rule=MinRule(), steps=steps, replicas=4, seed=5, track_renewals=True,
    )
    calls = _draw_calls(req)
    assert len(searches) == (m <= 10)
    assert calls == (0 if m <= 10 else steps)


def test_state_search_gives_up_past_the_cap():
    empty14 = (0,) * 14
    assert statetable.min_rule_states(empty14, ASYM, ensemble._TABLE_MAX_STATES) is None
    # at M = 10 the whole set is 3111 states: a cap of 3111 keeps it, 3110 gives up
    states, successors = statetable.min_rule_states((0,) * 10, ASYM, 3111)
    assert len(states) == len(successors) == 3111
    assert statetable.min_rule_states((0,) * 10, ASYM, 3110) is None
    assert statetable.min_rule_states((0,) * 10, ASYM, 0) is None


@pytest.mark.parametrize("m, count", [(4, 9), (6, 70), (8, 473), (10, 3111)])
def test_reachable_state_counts_from_empty(m, count):
    states, _ = statetable.min_rule_states((0,) * m, ASYM, ensemble._TABLE_MAX_STATES)
    assert len(states) == count


def _naive_reachable(m: int) -> dict:
    """The min-rule chain of v = u - min u from empty, by the definitions.

    Maps each state to its successors, one per minimiser in site order.
    """
    from collections import deque

    start = (0,) * m
    graph, todo = {}, deque([start])
    while todo:
        v = todo.popleft()
        if v in graph:
            continue
        succ = []
        for k in range(1, m + 1):
            if v[k - 1] == min(v):
                u = [x + (k in neighborhood(ASYM, i, m)) for i, x in enumerate(v, 1)]
                succ.append(reduce_potential(u))
        graph[v] = succ
        todo.extend(succ)
    return graph


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_reachable_states_match_naive_search_odd_m(m):
    states, successors = statetable.min_rule_states((0,) * m, ASYM, ensemble._TABLE_MAX_STATES)
    graph = _naive_reachable(m)
    assert set(states) == set(graph) and len(states) == len(graph)
    for v, row in zip(states, successors):
        assert [states[j] for j in row] == graph[v]


def _stationary_law(successors) -> list:
    """Exact stationary law of the chain that moves from s to each successors[s] entry w.p. 1/n."""
    from fractions import Fraction

    n = len(successors)
    # balance rows pi_j = sum_s pi_s P[s, j]; row 0 is replaced by sum pi = 1
    a = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for s, row in enumerate(successors):
        for j in row:
            a[j][s] += Fraction(1, len(row))
    for j in range(n):
        a[j][j] -= 1
    a[0] = [Fraction(1)] * (n + 1)
    for c in range(n):  # Gauss-Jordan elimination
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n] for row in a]


@pytest.mark.parametrize("m, mean_tau", [(4, "4"), (6, "138/11")])
def test_mean_renewal_time_from_the_stationary_law(m, mean_tau):
    from fractions import Fraction

    states, successors = statetable.min_rule_states((0,) * m, ASYM, ensemble._TABLE_MAX_STATES)
    pi = _stationary_law(successors)
    assert sum(pi) == 1 and min(pi) > 0
    assert 1 / pi[states.index((0,) * m)] == Fraction(mean_tau)


def test_renewal_rate_matches_exact_mean_renewal_time():
    # Criterion 08's size.  From empty, renewal_counts includes t = 0.  With
    # Var(tau) = 8 at M = 4 (E[tau] = 4), the mean rate over R chains has
    # standard error sqrt(Var(tau) / E[tau]^3 / (R T)) = 4.4e-5; the bound,
    # fixed before the run, is about 7 standard errors.
    m, replicas, steps = 4, 1000, 2**16
    res = run_ensemble(
        EnsembleRequest(
            m=m, kind=ASYM, rule=MinRule(), steps=steps, replicas=replicas, seed=31337,
            h_checkpoints=tuple(2**k for k in range(10, 17)), track_renewals=True,
        )
    )
    assert abs(res.renewal_counts.mean() / steps - 1 / 4) < 3e-4


def test_size_guard_counts_the_state_table(monkeypatch):
    req = EnsembleRequest(
        m=8, kind=ASYM, rule=MinRule(), steps=5000, replicas=100, seed=0, track_renewals=True,
    )
    table = ensemble._footprint_bytes(req, 8, 473)
    # each state's 2 * grid entries are counted, and the per-slice records
    per_state = statetable.TABLE_ENTRY_BYTES * 2 * ensemble._table_grid(8)
    assert table - ensemble._footprint_bytes(req, 8, 472) == per_state
    per_slice = ensemble._SLICE_CELL_BYTES * ensemble._SLICE_STEPS * 100
    with monkeypatch.context() as mp:
        mp.setattr(ensemble, "_SLICE_STEPS", 2 * ensemble._SLICE_STEPS)
        assert ensemble._footprint_bytes(req, 8, 473) - table == per_slice
    monkeypatch.setattr(ensemble, "MAX_ENSEMBLE_BYTES", table)
    run_ensemble(req)

    def no_table(*args):
        raise AssertionError("the table was built before the size check")

    monkeypatch.setattr(statetable, "state_table", no_table)
    monkeypatch.setattr(ensemble, "MAX_ENSEMBLE_BYTES", table - 1)
    with pytest.raises(ValueError, match="MiB limit"):
        run_ensemble(req)
