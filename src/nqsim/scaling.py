"""Scaling diagnostics and the max-rule freeze classifier.

For even-M asymmetric chains the parity gap H(t) behaves like a diffusion:
its variance across independent replicas grows linearly in t and its terminal
law is Gaussian.  `estimate_sigma` fits Var H(t) = sigma^2 t through the
origin and runs a KS normality check on the rescaled terminal values; sigma
is estimated, never asserted against a reference value.  The KS p-value comes
from the exact Kolmogorov distribution of D_n (`kolmogorov_cdf`), computed
here in numpy, and the sign test's binomial tail from `sign_test_p`, exact for
up to 2000 trials and Loader's saddle-point form beyond; nqsim needs no scipy.

Under the max-potential rule the chain freezes onto one site, or onto an
adjacent pair with asymptotic shares 1/2 each.  A run is frozen exactly when
its final max tie set is absorbing (every member raises every member's
potential), and "unfrozen" otherwise; the freeze time is the step after the
last allocation outside the set.  `classify_final_ties` reads this off the
final potentials and last allocation steps, (R, M) arrays, through
`ensemble.absorbed_max_ties`; its pure-Python reference, `classify_freeze`
in tests/oracles.py, replays an allocation-site list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import MinRule
from .ensemble import EnsembleRequest, EnsembleResult, absorbed_max_ties, run_ensemble
from .ring import Neighborhood

MIN_REPLICAS_FOR_KS = 100
# zeta_tail_check: the largest accepted ratio of successive tails, and the
# smallest tail it judges
TAIL_RATIO = 0.95
TAIL_MIN_COUNT = 100
# n * d^2 from which P(D_n < d) rounds to 1.0: Massart's bound
# P(D_n >= d) <= 2 exp(-2 n d^2) falls below 2^-54, half an ulp under 1.
_KS_ROUNDS_TO_ONE = 19.1
# In the right tail (n d^2 > 3.76) the exact matrix power runs up to
# k = floor(n d) + 1 = 301, a 601-row matrix (about 0.5 s); beyond it
# kolmogorov_cdf uses the tail formula.
_KS_EXACT_MAX_K = 301
# sign_test_p sums the tail exactly in integers up to this many trials.
_SIGN_EXACT_MAX_N = 2000
_LOG_2PI = math.log(2 * math.pi)


@dataclass(frozen=True)
class SigmaEstimate:
    sigma_hat: float
    points: tuple[tuple[int, float], ...]  # (t, Var H(t)) pairs
    slope: float
    r2: float
    replicas: int
    ks_stat: float | None
    ks_p: float | None
    ks_skipped_reason: str | None

    def to_json_dict(self) -> dict:
        return {
            "sigma_hat": self.sigma_hat,
            "slope": self.slope,
            "r2": self.r2,
            "replicas": self.replicas,
            "variance_points": [[t, v] for t, v in self.points],
            "ks_stat": self.ks_stat,
            "ks_p": self.ks_p,
            "ks_skipped_reason": self.ks_skipped_reason,
        }


def fit_variance_line(points: Sequence[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares slope of var = slope * t through the origin, plus R^2."""
    t = np.array([p[0] for p in points], dtype=float)
    v = np.array([p[1] for p in points], dtype=float)
    slope = float((t * v).sum() / (t * t).sum())
    ss_res = float(((v - slope * t) ** 2).sum())
    ss_tot = float(((v - v.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, r2


def estimate_sigma(
    m: int,
    replicas: int,
    checkpoints: Sequence[int],
    seed: int,
) -> tuple[SigmaEstimate, EnsembleResult]:
    """Diffusivity estimate for the parity gap of an asymmetric even-M chain.

    Runs `replicas` independent min-rule chains, records H(t) at the
    checkpoints, fits the variances linearly through the origin and (given at
    least MIN_REPLICAS_FOR_KS replicas) KS-tests the rescaled terminal H
    against a standard normal.  Renewal increments are tracked alongside for
    the symmetry/tail diagnostics.
    """
    if m % 2 != 0:
        raise ValueError(f"the parity gap scales diffusively only for even M, got M={m}")
    if replicas < 2:
        raise ValueError(f"need at least 2 replicas to estimate a variance, got {replicas}")
    checkpoints = tuple(sorted(int(t) for t in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive step counts")
    result = run_ensemble(
        EnsembleRequest(
            m=m,
            kind=Neighborhood.ASYMMETRIC,
            rule=MinRule(),
            steps=checkpoints[-1],
            replicas=replicas,
            seed=seed,
            h_checkpoints=checkpoints,
            track_renewals=True,
        )
    )
    points = tuple(
        (t, float(result.h_checkpoints[t].var(ddof=1))) for t in checkpoints
    )
    slope, r2 = fit_variance_line(points)
    sigma = math.sqrt(max(slope, 0.0))

    ks_stat = ks_p = None
    skipped = None
    if replicas < MIN_REPLICAS_FOR_KS:
        skipped = f"replicas {replicas} below minimum {MIN_REPLICAS_FOR_KS}"
    elif sigma == 0:
        skipped = "degenerate variance fit"
    else:
        t_max = checkpoints[-1]
        z = result.h_checkpoints[t_max] / (sigma * math.sqrt(t_max))
        ks_stat = ks_statistic(z)
        ks_p = 1.0 - kolmogorov_cdf(len(z), ks_stat)
    estimate = SigmaEstimate(
        sigma_hat=sigma,
        points=points,
        slope=slope,
        r2=r2,
        replicas=replicas,
        ks_stat=ks_stat,
        ks_p=ks_p,
        ks_skipped_reason=skipped,
    )
    return estimate, result


def ks_statistic(z: Sequence[float]) -> float:
    """Two-sided KS distance of the sample z from the standard normal law."""
    x = np.sort(np.asarray(z, dtype=np.float64))
    n = len(x)
    root2 = math.sqrt(2.0)
    cdf = np.array([0.5 * math.erfc(-v / root2) for v in x.tolist()])
    d_plus = (np.arange(1, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(n) / n).max()
    return float(max(d_plus, d_minus))


def _normalised(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a = b * 2**e with max |b| in [1/2, 1); scaling by a power of 2 is exact."""
    _, e = math.frexp(float(np.abs(a).max()))
    return np.ldexp(a, -e), e


def _matrix_power(a: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """a**n as (b, e) with a**n = b * 2**e, by repeated squaring (n >= 1)."""
    result, e_result = None, 0
    base, e_base = a, 0
    while True:
        if n & 1:
            if result is None:
                result, e_result = base, e_base
            else:
                result, e = _normalised(result @ base)
                e_result += e_base + e
        n >>= 1
        if not n:
            return result, e_result
        base, e = _normalised(base @ base)
        e_base = 2 * e_base + e


def kolmogorov_cdf(n: int, d: float) -> float:
    """P(D_n < d) for the two-sided KS statistic of n samples from a continuous law.

    Marsaglia, Tsang & Wang, "Evaluating Kolmogorov's distribution" (J. Stat.
    Softw. 8(18), 2003): the probability is n!/n^n times an entry of H^n,
    where H is a (2k-1)-square matrix, k = floor(n d) + 1.  The power is taken
    by repeated squaring with the binary exponent carried separately, so it
    neither overflows nor underflows.  The cost is O(k^3 log n).  Where the
    matrix would pass 601 rows and n d^2 > 3.76 (only for n above 4 700), the
    paper's right-tail formula is used instead, good to about 7 digits.
    """
    if n < 1:
        raise ValueError(f"the KS distribution needs n >= 1, got {n}")
    if d <= 0.5 / n:
        return 0.0  # D_n >= 1/(2n) always
    s = n * d * d
    if d >= 1.0 or s >= _KS_ROUNDS_TO_ONE:
        return 1.0
    k = int(n * d) + 1
    if k > _KS_EXACT_MAX_K and s > 3.76:
        return 1.0 - 2.0 * math.exp(-(2.000071 + 0.331 / math.sqrt(n) + 1.409 / n) * s)
    m = 2 * k - 1
    h = k - n * d
    i, j = np.indices((m, m))
    g = i - j + 1
    H = (g >= 0).astype(np.float64)
    h_powers = h ** np.arange(1, m + 1)
    H[:, 0] -= h_powers
    H[-1, :] -= h_powers[::-1]
    if 2 * h > 1:
        H[-1, 0] += (2 * h - 1) ** m
    inv_factorial = np.ones(m + 1)
    for q in range(1, m + 1):
        inv_factorial[q] = inv_factorial[q - 1] / q
    H *= inv_factorial[np.clip(g, 0, m)]  # entry (i, j) over (i - j + 1)!
    Q, e = _matrix_power(H, n)
    p = float(Q[k - 1, k - 1])
    for q in range(1, n + 1):  # times n!/n^n, rescaled as it shrinks
        p = p * q / n
        if p < 2.0**-500:
            p, e = math.ldexp(p, 500), e - 500
    return min(1.0, math.ldexp(p, e))  # rounding can lift a value near 1 past it


def _stirlerr(x: int) -> float:
    """log(x!) - log(sqrt(2 pi x) (x/e)^x) for x > 15, by five terms of Stirling's series."""
    xx = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / xx) / xx) / xx) / xx) / x


def _bd0(x: int, mean: float) -> float:
    """x log(x / mean) + mean - x, the deviance term of Loader's binomial probability.

    Near the mean the log form cancels, so it is summed as
    (x - mean) v + 2x (v^3/3 + v^5/5 + ...), v = (x - mean) / (x + mean).
    Loader switches to the log form at |v| = 0.1; here the series runs up to
    |v| = 3/4 (under 70 terms), where the log form lost up to 9e-13 relative
    against exact sums at 8000 trials.  Beyond 3/4, with more than 2000 trials,
    the probability underflows to 0.
    """
    v = (x - mean) / (x + mean)
    if abs(v) >= 0.75:
        return x * math.log(x / mean) + mean - x
    s = (x - mean) * v
    term = 2 * x * v
    v *= v
    j = 3
    while True:
        term *= v
        s_next = s + term / j
        if s_next == s:
            return s
        s, j = s_next, j + 2


def sign_test_p(k: int, n: int) -> float:
    """Two-sided sign-test p-value of k successes in n trials with success probability 1/2.

    It is min(1, 2 P(X <= j)), X ~ Bin(n, 1/2), j = min(k, n - k), and 1.0
    when 2j >= n.  Up to 2000 trials, and whenever j <= 15, it is the exact
    rational sum_{i <= j} C(n, i) / 2^(n-1), rounded once.  Beyond, P(X = j)
    comes from Loader's saddle-point form (Loader, "Fast and accurate
    computation of binomial probabilities", 2000; the method of R's dbinom),
    and the tail is summed downward with P(X = i - 1) = P(X = i) i / (n - i + 1)
    until the terms no longer change the sum.  Where the p-value is a normal
    float its relative error is below 1e-12: against exact sums it was at most
    2e-13 for n up to 8000 and 3e-15 at n = 682 995.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    j = min(k, n - k)
    if 2 * j >= n:
        return 1.0
    if n <= _SIGN_EXACT_MAX_N or j <= 15:  # _stirlerr's series needs j > 15
        c = total = 1
        for i in range(1, j + 1):
            c = c * (n - i + 1) // i
            total += c
        return total / (1 << (n - 1))  # int / int rounds once
    mean = n / 2
    lc = _stirlerr(n) - _stirlerr(j) - _stirlerr(n - j) - _bd0(j, mean) - _bd0(n - j, mean)
    term = math.exp(lc - 0.5 * (_LOG_2PI + math.log(j) + math.log1p(-j / n)))
    total = 0.0
    for i in range(j, -1, -1):
        if total + term == total:
            break
        total += term
        term *= i / (n - i + 1)
    return min(1.0, 2 * total)


def zeta_sign_test(positive: int, negative: int) -> float:
    """Two-sided sign-test p-value for symmetry of the renewal increments (`sign_test_p`)."""
    return sign_test_p(positive, positive + negative)


def zeta_tail_check(tail_counts: Sequence[int]) -> tuple[bool, list[float]]:
    """Geometric-decay sanity check on P(|zeta| > c), c = 1..10.

    tail_counts[c] counts increments with |zeta| > c.  Decay is accepted when
    each successive tail is at most TAIL_RATIO times the previous one; tails
    with fewer than TAIL_MIN_COUNT samples are too thin to judge and pass by
    default.
    """
    ratios = []
    ok = True
    for c in range(1, len(tail_counts) - 1):
        cur, nxt = tail_counts[c], tail_counts[c + 1]
        if cur >= TAIL_MIN_COUNT:
            ratios.append(nxt / cur)
            if nxt > TAIL_RATIO * cur:
                ok = False
    return ok, ratios


@dataclass(frozen=True)
class FreezeOutcome:
    tag: str  # "single", "pair" or "unfrozen"
    sites: tuple[int, ...]  # 1-based; (k,), (k, k+1) or (M, 1); empty when unfrozen
    freeze_time: int | None  # the step after the last allocation outside `sites`


def classify_final_ties(u: np.ndarray, last_seen: np.ndarray, kind: Neighborhood) -> list[FreezeOutcome]:
    """The freeze outcome of each row of (R, M) final potentials and last allocation steps.

    last_seen[r, i] is the last 1-based step at which site i + 1 got a
    particle (0 if never).  The last step outside the frozen set is the
    largest last step of any site outside it (0 if none, giving freeze_time 1).
    """
    m = u.shape[1]
    absorbed, lo, hi = absorbed_max_ties(u.T, kind)
    sites = np.arange(m)
    in_set = (sites == lo[:, None]) | (sites == hi[:, None])
    freeze_time = np.where(in_set, 0, last_seen).max(axis=1) + 1
    out = []
    for frozen, i, j, t in zip(absorbed.tolist(), lo.tolist(), hi.tolist(), freeze_time.tolist()):
        if not frozen:
            out.append(FreezeOutcome("unfrozen", (), None))
        elif i == j:
            out.append(FreezeOutcome("single", (i + 1,), t))
        else:  # (M, 1): the pair that wraps around the ring
            out.append(FreezeOutcome("pair", (i + 1, j + 1) if j == i + 1 else (m, 1), t))
    return out
