import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nqsim import verify
from nqsim.dynamics import ChainState, MaxRule, MinRule, RandomStream, Softmax, run
from nqsim.ensemble import EnsembleRequest, run_ensemble
from nqsim.ring import Neighborhood, potentials
from nqsim.scaling import (
    FreezeOutcome,
    classify_final_ties,
    estimate_sigma,
    fit_variance_line,
    kolmogorov_cdf,
    ks_statistic,
    sign_test_p,
    zeta_sign_test,
    zeta_tail_check,
)
from oracles import classify_freeze, total_variation, transition_distribution

ASYM = Neighborhood.ASYMMETRIC
SYM = Neighborhood.SYMMETRIC


class TestVarianceFit:
    def test_exact_line_recovered(self):
        points = [(t, 0.3 * t) for t in (100, 200, 400, 800)]
        slope, r2 = fit_variance_line(points)
        assert slope == pytest.approx(0.3)
        assert r2 == pytest.approx(1.0)

    def test_r2_penalises_nonlinearity(self):
        points = [(100, 5.0), (200, 40.0), (400, 41.0), (800, 42.0)]
        _, r2 = fit_variance_line(points)
        assert r2 < 0.9


class TestEstimateSigma:
    def test_small_run_populates_fields(self):
        est, ens = estimate_sigma(4, 64, (256, 512, 1024), seed=5)
        assert est.sigma_hat > 0
        assert 0 <= est.r2 <= 1
        assert est.ks_p is None and est.ks_skipped_reason is not None
        assert len(est.points) == 3
        assert ens.renewal_counts.min() > 0

    def test_ks_runs_with_enough_replicas(self):
        est, _ = estimate_sigma(4, 128, (256, 512, 1024), seed=5)
        assert type(est.ks_p) is float and type(est.ks_stat) is float
        assert 0.0 <= est.ks_p <= 1.0

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            estimate_sigma(5, 64, (256,), seed=0)

    def test_degenerate_replicas_rejected(self):
        with pytest.raises(ValueError):
            estimate_sigma(4, 1, (256,), seed=0)

    def test_replica_order_invariance_of_variance(self):
        # aggregation is symmetric in the replicas: permuting the recorded
        # H columns leaves every statistic unchanged
        est, ens = estimate_sigma(4, 32, (256, 512), seed=8)
        h = ens.h_checkpoints[512]
        perm = np.random.default_rng(0).permutation(len(h))
        assert float(h[perm].var(ddof=1)) == pytest.approx(float(h.var(ddof=1)))


def _ks_grid(n: int, points: int) -> np.ndarray:
    """KS distances over the support (1/(2n), 1], evenly spaced and random."""
    rng = np.random.default_rng(n)
    return np.concatenate([np.linspace(0.5 / n, 1.0, points), rng.uniform(0.5 / n, 1.0, points)])


class TestKolmogorovDistribution:
    # scipy stays installed for the tests and serves as the oracle here.

    def test_one_sample_closed_form(self):
        # D_1 = max(U, 1 - U), so P(D_1 < d) = 2d - 1 on [1/2, 1]
        for d in np.linspace(0.5, 1.0, 41):
            assert kolmogorov_cdf(1, float(d)) == pytest.approx(2 * d - 1, rel=1e-14, abs=1e-15)
        assert kolmogorov_cdf(1, 0.3) == 0.0
        assert kolmogorov_cdf(1, 1.5) == 1.0

    def test_support_ends(self):
        for n in (1, 7, 100, 1000):
            assert kolmogorov_cdf(n, 0.5 / n) == 0.0
            assert kolmogorov_cdf(n, 1.0) == 1.0

    def test_matches_kstwo_for_small_n(self):
        for n in range(1, 141):
            d = _ks_grid(n, 12)
            ref = stats.kstwo.cdf(d, n)
            got = np.array([kolmogorov_cdf(n, float(x)) for x in d])
            keep = ref > 1e-8
            assert np.all(np.abs(got[keep] - ref[keep]) <= 1e-10 * ref[keep]), n

    @pytest.mark.parametrize("n", [500, 1000, 5000])
    def test_matches_kstwo_for_large_n(self, n):
        d = _ks_grid(n, 40)
        ref = stats.kstwo.cdf(d, n)
        got = np.array([kolmogorov_cdf(n, float(x)) for x in d])
        assert np.abs(got - ref).max() <= 1e-5

    def test_matches_40_digit_values(self):
        # The same matrix method in mpmath at 40 digits, on the same float d.
        assert kolmogorov_cdf(200, 0.07) == pytest.approx(0.73176607911192856244, rel=1e-13)
        # criterion 08's KS distance (seed 31337, R = 1000)
        d = 0.021366041699830474
        assert kolmogorov_cdf(1000, d) == pytest.approx(0.25714597265324229552, rel=1e-13)
        assert 1.0 - kolmogorov_cdf(1000, d) == pytest.approx(0.74285402734675770448, rel=1e-13)
        # a right-tail p-value, n d^2 = 3.6
        assert 1.0 - kolmogorov_cdf(1000, 0.06) == pytest.approx(0.0014285978874661185726, rel=1e-10)

    def test_monotone_in_d(self):
        for n in (3, 50, 141, 1000):
            d = np.linspace(0.5 / n, 1.0, 200)
            cdf = [kolmogorov_cdf(n, float(x)) for x in d]
            assert all(a <= b for a, b in zip(cdf, cdf[1:])), n

    def test_statistic_matches_kstest(self):
        # The two differ only through the normal CDF (math.erfc against
        # scipy's ndtr), by an ulp of a CDF value, not of the distance.
        rng = np.random.default_rng(8)
        for n in (1, 2, 10, 100, 1000, 3000):
            for _ in range(5):
                z = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-1.0, 1.0)
                ref = stats.kstest(z, "norm").statistic
                assert abs(ks_statistic(z) - ref) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [100, 200, 500, 1000])
    def test_p_value_matches_kstest(self, n):
        # Beyond n = 140 scipy's kstwo is itself an approximation: against a
        # 40-digit evaluation of the same matrix method its p-values are off
        # by up to 1.2e-5 relative at n = 200 and 500, these by at most 1.1e-8.
        rel = 1e-9 if n <= 140 else 1e-4
        rng = np.random.default_rng(n)
        for scale in (1.0, 1.1, 1.25, 1.4):
            z = rng.standard_normal(n) * scale
            ref = stats.kstest(z, "norm").pvalue
            got = 1.0 - kolmogorov_cdf(n, ks_statistic(z))
            assert got == pytest.approx(ref, rel=rel, abs=1e-12)


def _exact_sign_p(n: int, ks) -> dict[int, float]:
    """For each k, min(1, 2 P(X <= min(k, n - k))), X ~ Bin(n, 1/2): an exact Fraction rounded once."""
    want = {}
    edges = {k: min(k, n - k) for k in ks}
    c = total = 1
    for i in range(max(edges.values()) + 1):
        if i:
            c = c * (n - i + 1) // i
            total += c
        for k, j in edges.items():
            if j == i:
                want[k] = 1.0 if 2 * j >= n else float(Fraction(total, 2 ** (n - 1)))
    return want


class TestSignTestP:
    # sign_test_p states this relative error where the p-value is a normal float.
    REL = 1e-12

    def test_every_case_up_to_200_trials_is_the_rounded_exact_sum(self):
        for n in range(201):
            cum = list(itertools.accumulate(math.comb(n, i) for i in range(n + 1)))
            for k in range(n + 1):
                j = min(k, n - k)
                want = 1.0 if 2 * j >= n else float(Fraction(cum[j], 2 ** (n - 1)))
                assert sign_test_p(k, n) == want, (k, n)

    def test_near_the_centre_up_to_2000_trials_is_the_rounded_exact_sum(self):
        for n in list(range(201, 2001, 53)) + [1999, 2000]:
            ks = {n // 2 + d for d in range(-4 * math.isqrt(n), 4 * math.isqrt(n) + 1, 3)}
            for k, want in _exact_sign_p(n, ks).items():
                assert sign_test_p(k, n) == want, (k, n)

    @pytest.mark.parametrize("n", [2001, 2002, 4001, 8000, 20_000])
    def test_saddle_point_tail_against_exact_sums(self, n):
        # centre to far tail, through Loader's series and log branches, down
        # to where the p-value leaves the normal floats
        sigma = math.sqrt(n) / 2
        ks = {n // 2 - int(z * sigma) for z in (0, 0.1, 0.5, 1, 2, 3, 5, 8, 13, 21, 30, 36)}
        ks |= {16, 17, n // 7, n // 5, n // 3, n - 1 - n // 2}
        for k, want in _exact_sign_p(n, ks).items():
            got = sign_test_p(k, n)
            if want >= 2.0**-1022:
                assert abs(got - want) <= self.REL * want, (k, n)
            else:
                assert got < 2.0**-1022, (k, n)

    @pytest.mark.parametrize("k, n", [
        # the asymmetric-diffusion benchmark's counts, and the golden scaling-m4 run's
        (341_356, 682_995), (341_639, 682_995), (34_654, 68_792), (34_138, 68_792),
        (17_179, 34_220), (17_041, 34_220),
        (50_000, 10**5), (49_000, 10**5), (499_000, 10**6), (497_000, 10**6),
        (7_999_000, 16 * 10**6), (7_994_000, 16 * 10**6),
    ])
    def test_large_n_against_scipy(self, k, n):
        # scipy's binomtest is a test-only oracle; in farther tails its own
        # error passes 1e-12 (1.7e-12 at k = 490 000, n = 10^6, against an exact sum)
        assert sign_test_p(k, n) == pytest.approx(stats.binomtest(k, n, 0.5).pvalue, rel=self.REL, abs=0)

    def test_symmetric_in_k(self):
        for k, n in [(3, 10), (700, 1500), (2100, 5000), (341_356, 682_995)]:
            assert sign_test_p(k, n) == sign_test_p(n - k, n)

    @pytest.mark.parametrize("k, n", [(-1, 5), (6, 5), (0, -1)])
    def test_refuses_counts_outside_the_trials(self, k, n):
        with pytest.raises(ValueError):
            sign_test_p(k, n)


class TestZetaDiagnostics:
    def test_sign_test_balanced(self):
        assert zeta_sign_test(500, 500) == pytest.approx(1.0)
        assert zeta_sign_test(0, 0) == 1.0

    def test_sign_test_detects_bias(self):
        assert zeta_sign_test(700, 300) < 1e-6

    def test_tail_check_geometric(self):
        ok, ratios = zeta_tail_check([10000, 3000, 900, 270, 80, 20, 5, 1, 0, 0, 0])
        assert ok
        assert all(r <= 0.95 for r in ratios)

    def test_tail_check_flags_flat_tail(self):
        ok, _ = zeta_tail_check([10000, 5000, 4999, 4998, 4998, 4998, 0, 0, 0, 0, 0])
        assert not ok

    def test_tail_check_ignores_thin_tails(self):
        ok, ratios = zeta_tail_check([50, 49, 48, 47, 0, 0, 0, 0, 0, 0, 0])
        assert ok and ratios == []


def _absorbing(u, kind: Neighborhood) -> bool:
    """Brute force: every member of the max tie set of u raises every member.

    A particle at 0-based site k raises site i when k = i + d for a window
    offset d.
    """
    m = len(u)
    ties = [i for i in range(m) if u[i] == max(u)]
    offsets = {d % m for d in kind.offsets}
    return all((k - i) % m in offsets for i in ties for k in ties)


class TestClassifyFreeze:
    def test_single_site(self):
        sites = [3, 1, 6, 2] + [5] * 2000
        out = classify_freeze(sites, 6, ASYM)
        assert out.tag == "single"
        assert out.sites == (5,)
        assert out.freeze_time == 5

    def test_adjacent_pair(self):
        rng = np.random.default_rng(3)
        sites = [1] + list(rng.choice([3, 4], size=2000))
        out = classify_freeze(sites, 6, SYM)
        assert out.tag == "pair"
        assert out.sites == (3, 4)
        assert out.freeze_time == 2

    def test_wraparound_pair(self):
        rng = np.random.default_rng(4)
        sites = list(rng.choice([6, 1], size=2000))
        out = classify_freeze(sites, 6, SYM)
        assert out.tag == "pair"
        assert out.sites == (6, 1)

    def test_unfrozen(self):
        # every potential tied; an asymmetric pair {2, 3}, which site 2 does not raise
        assert classify_freeze([1, 2, 3, 4, 5, 6] * 300, 6, SYM).tag == "unfrozen"
        assert classify_freeze([3] * 2000, 6, ASYM) == FreezeOutcome("unfrozen", (), None)

    def test_nonadjacent_two_sites_unfrozen(self):
        rng = np.random.default_rng(6)
        sites = list(rng.choice([1, 4], size=2000))
        assert classify_freeze(sites, 6, SYM).tag == "unfrozen"

    def test_init_enters_the_potentials(self):
        # Peaks on sites 1 and 4 tie every symmetric potential.  Asymmetric,
        # site 4 leaves the tie set {3, 4}, and site 3 then freezes the run.
        init = (2, 0, 0, 2, 0, 0)
        assert classify_freeze([], 6, SYM, init).tag == "unfrozen"
        assert classify_freeze([4], 6, ASYM, init).tag == "unfrozen"
        assert classify_freeze([4, 3], 6, ASYM, init) == FreezeOutcome("single", (3,), 2)

    @pytest.mark.parametrize("kind, m", [(ASYM, 5), (SYM, 6)])
    def test_unfrozen_exactly_while_tie_set_not_absorbing(self, kind, m):
        out = run(ChainState.empty(m, kind), MaxRule(), 40, RandomStream(21, 0), sample_every=1)
        sites = [rec.site for rec in out.records[1:]]
        verdicts = [classify_freeze(sites[:t], m, kind) for t in range(41)]
        for t, (verdict, rec) in enumerate(zip(verdicts, out.records)):
            assert (verdict.tag == "unfrozen") == (not _absorbing(rec.u, kind)), t
        # one step from empty leaves the tie set {k-1, k} or {k-1, k, k+1}
        assert verdicts[0].tag == verdicts[1].tag == "unfrozen"
        assert verdicts[-1].tag == ("single" if kind is ASYM else "pair")

    def test_monotone_once_frozen(self):
        # classifying any longer prefix after freezing returns the same site
        out = run(ChainState.empty(5, ASYM), MaxRule(), 4000, RandomStream(13, 0), sample_every=1)
        sites = [rec.site for rec in out.records[1:]]
        full = classify_freeze(sites, 5, ASYM)
        assert full.tag == "single"
        for cut in (2000, 3000, 4000):
            prefix = classify_freeze(sites[:cut], 5, ASYM)
            assert prefix.tag == "single"
            assert prefix.sites == full.sites


def _last_seen_rows(rows: list, m: int) -> np.ndarray:
    """(R, M) last 1-based allocation step of each site, from R site sequences."""
    last = np.zeros((len(rows), m), dtype=np.int64)
    for r, sites in enumerate(rows):
        for t, s in enumerate(sites, 1):
            last[r, s - 1] = t
    return last


def _split_peaks(m: int) -> tuple[int, ...]:
    """Two particles on sites 1 and 4: the max tie set holds non-adjacent sites."""
    return tuple(2 if i in (0, 3) else 0 for i in range(m))


class TestClassifyFinalTies:
    @pytest.mark.parametrize("steps", [0, 1, 2, 40, 999, 1000, 1001, 2500])
    @pytest.mark.parametrize(
        "kind, m, init",
        [(ASYM, 3, None), (ASYM, 5, None), (ASYM, 7, "split"), (SYM, 4, None), (SYM, 6, "split"),
         (SYM, 9, "split")],
    )
    def test_matches_classify_freeze_on_runs(self, kind, m, init, steps):
        replicas = 20
        init = _split_peaks(m) if init else None
        res = run_ensemble(
            EnsembleRequest(
                m=m, kind=kind, rule=MaxRule(), steps=steps, replicas=replicas, seed=steps + m,
                init=init, record_sites=True, track_last_seen=True,
            )
        )
        got = classify_final_ties(res.u, res.last_seen, kind)
        assert got == [classify_freeze(res.sites[r].tolist(), m, kind, init) for r in range(replicas)]
        # A run is unfrozen exactly when its final max tie set is not absorbing.
        assert [o.tag == "unfrozen" for o in got] == [not _absorbing(u, kind) for u in res.u.tolist()]

    @pytest.mark.parametrize("length", [1, 5, 999, 1000, 1001, 3000, 12_000])
    @pytest.mark.parametrize("kind, m", [(ASYM, 3), (ASYM, 4), (SYM, 4), (SYM, 6), (ASYM, 8), (SYM, 8)])
    def test_matches_classify_freeze_on_synthetic_sites(self, kind, m, length):
        # Random prefixes followed by one, two (adjacent, wrapped or apart) or
        # three sites, read through the potentials of the sites they fill.
        rng = np.random.default_rng(100 * m + length)
        rows = []
        for _ in range(30):
            tail_set = rng.choice(np.arange(1, m + 1), size=int(rng.integers(1, 4)), replace=False)
            cut = int(rng.integers(0, length + 1))
            rows.append(
                rng.integers(1, m + 1, cut).tolist() + rng.choice(tail_set, length - cut).tolist()
            )
        xi = [np.bincount(np.asarray(sites) - 1, minlength=m).tolist() for sites in rows]
        u = np.array([potentials(x, kind) for x in xi], dtype=np.int64)
        got = classify_final_ties(u, _last_seen_rows(rows, m), kind)
        assert got == [classify_freeze(sites, m, kind) for sites in rows]

    def test_one_step_from_empty_is_unfrozen_asymmetric(self):
        # the first site k leaves the max tie set {k-1, k}, which k-1 does not raise
        report = verify.suite_appendix(5, ASYM, 1, 20, seed=5)
        assert report.invariants[0].detail["counts"] == {"single": 0, "pair": 0, "unfrozen": 20}

    def test_appendix_memory_does_not_grow_with_steps(self, monkeypatch):
        requests = []

        def recording_run_ensemble(req):
            requests.append(req)
            return run_ensemble(req)

        monkeypatch.setattr(verify, "run_ensemble", recording_run_ensemble)
        peaks = []
        for steps in (10**4, 10**6):
            tracemalloc.start()
            try:
                verify.suite_appendix(5, ASYM, steps, 4, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert all(req.track_last_seen and not req.record_sites for req in requests)
        assert abs(peaks[1] - peaks[0]) < 2**20


class TestPairShareTolerance:
    @staticmethod
    def _false_alarm(steps: int, replicas: int, d: int) -> Fraction:
        """R P(|Bin(T, 1/2) - T/2| >= d), exactly."""
        hits = sum(math.comb(steps, x) for x in range(steps + 1) if abs(2 * x - steps) >= 2 * d)
        return replicas * Fraction(hits, 2**steps)

    def test_values(self):
        assert verify.pair_share_tolerance(500, 20) == 0.124
        assert verify.pair_share_tolerance(2000, 20) == 0.0615
        # criterion 09's and the max-freeze benchmark's sizes keep 0.05
        assert verify.pair_share_tolerance(10_000, 500) == 0.05
        assert verify.pair_share_tolerance(4000, 500) == 0.05

    @pytest.mark.parametrize("steps, replicas", [(1, 1), (10, 3), (19, 500), (37, 1000), (500, 20), (2000, 20)])
    def test_d_is_the_least_integer_within_the_false_alarm_rate(self, steps, replicas):
        tolerance = verify.pair_share_tolerance(steps, replicas)
        d = round(tolerance * steps)
        assert tolerance == d / steps > 0.05
        limit = Fraction(verify.PAIR_SHARE_FALSE_ALARM)
        assert self._false_alarm(steps, replicas, d) <= limit < self._false_alarm(steps, replicas, d - 1)

    def test_one_tail_evaluation_decides_that_005_stands(self, monkeypatch):
        calls = []

        def counting(k, n):
            calls.append((k, n))
            return sign_test_p(k, n)

        monkeypatch.setattr(verify, "sign_test_p", counting)
        assert verify.pair_share_tolerance(4000, 500) == 0.05
        assert calls == [(1800, 4000)]


class TestFreezeLawsFromEmpty:
    """Exact max-rule freeze laws from the empty ring, at criterion-09 sizes and
    seeds, and at 4000 replicas over 200 steps for two rings of each kind.

    From the tie-set recursion T' = T & raised(k): under the asymmetric
    window the first site k leaves T = {k-1, k}; each later step picks k-1
    with probability 1/2, which freezes the run onto k-1, so freeze_time - 1
    is Geometric(1/2) on {1, 2, ...}.  Under the symmetric window T = {k-1, k, k+1}
    after step 1, and the first step off k freezes the run onto {k-1, k} or
    {k, k+1}, each with probability 1/2 by reflection; k is in the pair, so
    freeze_time is 1.  Exact facts are asserted for every replica;
    frequencies are tested at p = 1e-6, fixed before the run.
    """

    P_MIN = 1e-6
    STEPS, REPLICAS = 10_000, 500

    def _outcomes(self, m: int, kind: Neighborhood, seed: int) -> tuple[list, list]:
        report = verify.suite_appendix(m, kind, self.STEPS, self.REPLICAS, seed)
        first = run_ensemble(
            EnsembleRequest(
                m=m, kind=kind, rule=MaxRule(), steps=1, replicas=self.REPLICAS, seed=seed,
                record_sites=True,
            )
        ).sites[:, 0]
        return report.invariants[0].detail["outcomes"], first.tolist()

    def test_asymmetric_single_site_before_first_and_geometric_time(self):
        m = 5
        outcomes, first = self._outcomes(m, ASYM, 910)
        for o, k in zip(outcomes, first):
            assert o["tag"] == "single"
            assert o["sites"] == [(k - 2) % m + 1]  # the site before k, cyclically
            assert o["freeze_time"] >= 2
        g = np.array([o["freeze_time"] - 1 for o in outcomes])
        observed = [int((g == i).sum()) for i in range(1, 6)] + [int((g >= 6).sum())]
        expected = self.REPLICAS * np.array([1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 32])
        assert stats.chisquare(observed, expected).pvalue > self.P_MIN

    def test_symmetric_pair_around_first_site_at_time_one(self):
        outcomes, first = self._outcomes(6, SYM, 909)
        for o, k in zip(outcomes, first):
            assert o["tag"] == "pair"
            assert k in o["sites"]
            assert o["freeze_time"] == 1
        lower = sum(o["sites"][0] == k for o, k in zip(outcomes, first))
        assert stats.binomtest(lower, self.REPLICAS, 0.5).pvalue > self.P_MIN


    @pytest.mark.parametrize("m", [5, 8])
    def test_asymmetric_law_at_4000_replicas(self, m):
        res = run_ensemble(
            EnsembleRequest(
                m=m, kind=ASYM, rule=MaxRule(), steps=200, replicas=4000, seed=2300 + m,
                record_sites=True, track_last_seen=True,
            )
        )
        outcomes = classify_final_ties(res.u, res.last_seen, ASYM)
        for o, k in zip(outcomes, res.sites[:, 0].tolist()):
            assert o.tag == "single"
            assert o.sites == ((k - 2) % m + 1,)
        s = np.array([o.freeze_time for o in outcomes])
        assert s.min() >= 2
        # P(s) = 2^-(s-1): 1/2, 1/4 and 1/8 at s = 2, 3, 4, and 1/8 for s >= 5
        observed = np.array([(s == 2).sum(), (s == 3).sum(), (s == 4).sum(), (s >= 5).sum()])
        expected = len(s) * np.array([1 / 2, 1 / 4, 1 / 8, 1 / 8])
        bound = stats.chi2.isf(self.P_MIN, df=3)
        assert ((observed - expected) ** 2 / expected).sum() < bound

    @pytest.mark.parametrize("m", [6, 7])
    def test_symmetric_law_at_4000_replicas(self, m):
        res = run_ensemble(
            EnsembleRequest(
                m=m, kind=SYM, rule=MaxRule(), steps=200, replicas=4000, seed=2300 + m,
                record_sites=True, track_last_seen=True,
            )
        )
        outcomes = classify_final_ties(res.u, res.last_seen, SYM)
        for o, k in zip(outcomes, res.sites[:, 0].tolist()):
            assert o.tag == "pair"
            assert k in o.sites
            assert o.freeze_time == 1


class TestKernelLimits:
    def test_beta_one_exactly_uniform(self):
        s = ChainState.from_occupancy((4, 0, 2, 1, 0), SYM)
        p = transition_distribution(s, Softmax(1.0))
        assert total_variation(p, np.full(5, 0.2)) == 0.0
