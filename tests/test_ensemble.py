import numpy as np
import pytest

from nqsim import ensemble
from nqsim.dynamics import ChainState, MaxRule, MinRule, RandomStream, Softmax, run, step
from nqsim.ensemble import FLAG_NAMES, EnsembleRequest, final_half_flag_counts, run_ensemble
from nqsim.observers import (
    LevelLog,
    ParityGapSeries,
    _window_flags,
    isolated_zero_centers,
    pattern,
    stat_Q,
    stat_S,
    stat_W,
)
from nqsim.ring import Neighborhood, potentials, reduce_potential

ASYM = Neighborhood.ASYMMETRIC
SYM = Neighborhood.SYMMETRIC

RULES = [MinRule(), MaxRule(), Softmax(0.5), Softmax(1.0), Softmax(2.0)]
# beta**2 underflows to 0, so a potential gap of 2 gives a site probability 0
UNDERFLOW = Softmax(1e-300)


@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("rule", RULES, ids=str)
def test_matches_single_chain_bit_for_bit(kind, rule):
    m, steps, replicas, seed = 6, 400, 3, 314
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
# n * (1/n) fall short of 1.
@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("rule", RULES + [UNDERFLOW], ids=str)
@pytest.mark.parametrize("m", [7, 9])
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


class _FixedUniforms:
    """A stand-in for RandomStream and its generator: every draw is `value`."""

    def __init__(self, value: float):
        self.value = value

    def generator(self):
        return self

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


@pytest.mark.parametrize("rule", [MinRule(), UNDERFLOW], ids=str)
@pytest.mark.parametrize("m", [8, 9])
def test_tie_break_stays_inside_tie_set_in_both_drivers(monkeypatch, m, rule):
    # Two particles on the last site of an asymmetric ring: the minimisers are
    # sites 1..M-2, a tie set of 6 (M=8) or 7 (M=9) whose float thresholds
    # sum to less than 1.  The last two sites sit 2 above the minimum, so under
    # UNDERFLOW their weights are 0 and the softmax draw meets the same tie set.
    # Draws at and just below every threshold must agree, and a draw just
    # below 1 must land on the last tie site, never on site M.
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
        assert int(res.q_violations[r]) == len(log.q_decrease_violations)
        assert int(res.w_violations[r]) == len(log.w_increase_violations)
        assert int(res.s_violations[r]) == len(log.s_increase_violations)
        assert int(res.persistence_violations[r]) == len(log.persistence_violations)


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
        assert int(res.persistence_violations[r]) == len(log.persistence_violations)


@pytest.mark.parametrize("kind", [ASYM, SYM])
@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 70])
def test_level_statistics_match_reference_definitions(kind, m):
    # Random occupancies, each row with its own share of empty sites, give
    # reduced potentials with zeros, ones and larger entries in many
    # arrangements; each column is checked against the single-chain
    # definitions of the signature, S, Q, W, the centres and the flags.
    rng = np.random.default_rng(m)
    xi = rng.integers(1, 3, size=(200, m)) * (rng.random((200, m)) < rng.random((200, 1)))
    u = np.array([potentials(tuple(row), kind) for row in xi.tolist()]).T
    pos, stats, centers, flag_bits = ensemble._level_statistics(
        u, u.min(axis=0), u.sum(axis=0), ensemble._window_code_matrix(m), True
    )
    for r in range(xi.shape[0]):
        v = reduce_potential(tuple(u[:, r].tolist()))
        sig = pattern(v)
        assert tuple(pos[:, r].astype(int).tolist()) == sig
        assert stats[:, r].tolist() == [stat_S(v), stat_Q(v), stat_W(v)]
        # row k marks a centre at site k + 1
        assert set(np.flatnonzero(np.roll(centers[:, r], 1)).tolist()) == isolated_zero_centers(sig)
        flags = _window_flags(sig)
        assert [bool(flag_bits[r] >> i & 1) for i in range(4)] == [flags[n] for n in FLAG_NAMES]


def test_level_flags_match_single_chain_log():
    m, steps, seed = 6, 2500, 31
    res = run_ensemble(
        EnsembleRequest(
            m=m,
            kind=SYM,
            rule=MinRule(),
            steps=steps,
            replicas=1,
            seed=seed,
            track_levels=True,
            store_level_flags=True,
        )
    )
    log = LevelLog(SYM)
    run(ChainState.empty(m, SYM), MinRule(), steps, RandomStream(seed, 0), observers=[log])
    n = int(res.level_counts[0])
    for j, level in enumerate(log.levels):
        byte = int(res.level_flags[0, j])
        for bit, name in enumerate(FLAG_NAMES):
            assert bool(byte & (1 << bit)) == level.flags[name], (j, name)
    tail = final_half_flag_counts(res)[0]
    expected = log.flag_counts(n // 2)
    assert tail.tolist() == [expected[name] for name in FLAG_NAMES]


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
    assert int(res.renewal_counts[0]) == len(series.renewal_times)
    pos = sum(1 for z in series.increments if z > 0)
    neg = sum(1 for z in series.increments if z < 0)
    zero = sum(1 for z in series.increments if z == 0)
    assert (res.zeta_positive, res.zeta_negative, res.zeta_zero) == (pos, neg, zero)
    # tail counts against the exact increments
    for c in range(11):
        assert res.zeta_tail[c] == sum(1 for z in series.increments if abs(z) > c)


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
            check_parity=True,
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


def _flag_result(level_counts, cap, seed):
    """A hand-made result whose flag buffer has garbage past each replica's levels."""
    rng = np.random.default_rng(seed)
    req = EnsembleRequest(m=5, kind=SYM, rule=MinRule(), steps=0, replicas=len(level_counts), seed=0)
    res = ensemble.EnsembleResult(request=req, t=0, xi=None, u=None)
    res.level_counts = np.array(level_counts, dtype=np.int64)
    res.level_flags = rng.integers(0, 16, size=(len(level_counts), cap)).astype(np.uint8)
    return res


def _per_replica_flag_counts(res):
    counts = []
    for n, row in zip(res.level_counts.tolist(), res.level_flags):
        tail = row[n // 2 : n].tolist()
        counts.append([sum(1 for f in tail if f >> col & 1) for col in range(len(FLAG_NAMES))])
    return counts


@pytest.mark.parametrize("block_cells", [1, 7, 40, 2**20])
def test_final_half_flag_counts_match_per_replica_definition(monkeypatch, block_cells):
    monkeypatch.setattr(ensemble, "_FLAG_BLOCK_CELLS", block_cells)
    cap = 13
    # zero, one, odd, even and full level counts, in mixed order across blocks
    res = _flag_result([0, 1, 2, 3, 4, 7, 8, 12, 13, 5, 0, 1, 6, 11, 13, 9, 2], cap, seed=block_cells)
    assert final_half_flag_counts(res).tolist() == _per_replica_flag_counts(res)


def test_final_half_flag_counts_peak_memory_follows_block_size(monkeypatch):
    import tracemalloc

    res = _flag_result(np.random.default_rng(0).integers(0, 4097, 64).tolist(), 4096, seed=1)
    expected = _per_replica_flag_counts(res)
    monkeypatch.setattr(ensemble, "_FLAG_BLOCK_CELLS", 4096)
    tracemalloc.start()
    try:
        counts = final_half_flag_counts(res)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.tolist() == expected
    # the whole (R, cap) buffer is 256 KiB; one block's masks stay far below it
    assert peak < res.level_flags.nbytes // 4
