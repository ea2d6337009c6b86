"""Vectorised replica ensemble: R chains stepped in lock-step, stored site-major.

Replica r draws from RandomStream(seed, stream=r) and reproduces the
single-chain driver bit for bit (the uniform variates, the inverse-CDF site
choice and the float arithmetic of the kernels are identical; tests pin this).
Reports are therefore independent of any batching and stay in replica order.

Layout: occupancies and potentials are held site-major, as (M, R) int64
arrays with one contiguous R-vector per site, so each per-step reduction over
the sites runs along axis 0.  Results are returned replica-major, (R, M).
The tie-set ranks and the level window codes below are (M, M) @ (M, R)
products, O(M^2 R) per lock-step.  At the small rings the suites run that
beats numpy's slow axis-0 cumsum, but the cost grows quadratically: from
about M = 70, replica-major (R, M) arrays reduced along axis 1 are faster.

Site draw: the single chain takes the first site with U < c, where
c = cumsum(mask / n) over the n-member min (or max) tie set.  At a site with
k tie-set members at or before it, c holds the float sum of k copies of 1/n
added left to right.  Those sums are tabulated once as THR[n, k], so the
engine gathers c = THR[n, k] instead of dividing and summing each step.
THR[n, n] is 1.0: c is clamped to 1 from the last member of the tie set
onward, the rule `dynamics.sample_site` applies, so a draw never lands
outside the tie set when n copies of 1/n add up to less than 1.  Softmax keeps
its float weights, normalised in the single chain's summation order and
clamped from each replica's last site of positive probability.

The engine optionally tracks, fully vectorised:
  * per-level statistics (S, Q, W, signatures) with monotonicity, persistence
    and window-exclusion monitors.  Each site's window of five zero/positive
    marks is coded as a 5-bit number (one product with a precomputed (M, M)
    matrix), and 32-entry tables give the isolated zeros, the doubles and the
    excluded windows it starts.  Statistics are computed for all replicas and
    recorded where a level opened.  Signatures and the required isolated-zero
    centres are (M, R) boolean patterns, exact at any M,
  * renewal times (reduced potential identically zero) and the parity-gap
    increments between them,
  * the even/odd potential-sum identity each step,
  * neighbour-difference and residual bounds over the final half of the run,
  * parity-gap checkpoints and raw allocation sites.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    MAX_TOTAL_PARTICLES,
    AllocationRule,
    MaxRule,
    MinRule,
    RandomStream,
    Softmax,
)
from .ring import Neighborhood, check_ring_size, potentials, validate_occupancy

# Windows excluded in the limit, as zero/positive shapes read from a site k
# onward; level flag bit i marks shape i.
_FLAG_SHAPES = {
    "three_positives": (1, 1, 1),
    "three_zeros": (0, 0, 0),
    "pair_into_zeros": (1, 1, 0, 0),
    "lone_positive_in_zeros": (0, 0, 1, 0, 0),
}
FLAG_NAMES = tuple(_FLAG_SHAPES)  # level flag column order everywhere
_ISOLATED_ZERO = (1, 0, 1)  # Q counts these (centred on k + 1)
_DOUBLE = (0, 1, 1, 0)  # W counts these
_WINDOW = 5  # sites per window code; the longest shape
_FLAG_BLOCK_CELLS = 2**20  # flag entries per row block in final_half_flag_counts


def _window_table(shape: tuple[int, ...]) -> np.ndarray:
    """For each 5-bit window code (bit d: site k + d positive), whether it starts with `shape`."""
    codes = np.arange(2**_WINDOW)
    return np.logical_and.reduce([(codes >> d & 1) == want for d, want in enumerate(shape)])


_ISOLATED_ZERO_TABLE = _window_table(_ISOLATED_ZERO)
_DOUBLE_TABLE = _window_table(_DOUBLE)
_FLAG_TABLE = sum(
    _window_table(shape).astype(np.uint8) << i for i, shape in enumerate(_FLAG_SHAPES.values())
)


def _window_code_matrix(m: int) -> np.ndarray:
    """(matrix @ pattern)[k]: the 5-bit code of pattern[k .. k + 4], cyclically."""
    code = np.zeros((m, m))
    for d in range(_WINDOW):
        code[np.arange(m), (np.arange(m) + d) % m] += 2**d
    return code


def _level_statistics(u, m_new, u_total, window_code, with_flags: bool) -> tuple:
    """Level statistics of site-major potentials u (M, R) with column minima m_new.

    u_total is each replica's potential sum (window * particles).  Returns the
    signature pos (M, R), the stacked S, Q, W (3, R), the isolated-zero centres
    (M, R; row k: a centre at site k + 1) and, if with_flags, the flag bits
    (bit i: FLAG_NAMES[i]).
    """
    v = u - m_new
    pos = v > 0
    code = (window_code @ pos).astype(np.intp)
    # S = sum(v) less its entries equal to 1
    s = u_total - len(u) * m_new - (v == 1).sum(axis=0)
    centers = _ISOLATED_ZERO_TABLE.take(code)
    stats = np.stack([s, centers.sum(axis=0), _DOUBLE_TABLE.take(code).sum(axis=0)])
    flag_bits = np.bitwise_or.reduce(_FLAG_TABLE.take(code), axis=0) if with_flags else None
    return pos, stats, centers, flag_bits


@dataclass
class EnsembleRequest:
    m: int
    kind: Neighborhood
    rule: AllocationRule
    steps: int
    replicas: int
    seed: int
    init: tuple[int, ...] | None = None
    h_checkpoints: tuple[int, ...] = ()
    track_levels: bool = False
    store_level_flags: bool = False
    track_renewals: bool = False
    check_parity: bool = False
    check_comb_final_half: bool = False
    check_residual_final_half: bool = False
    record_sites: bool = False
    chunk_steps: int = 4096


@dataclass
class EnsembleResult:
    request: EnsembleRequest
    t: int
    xi: np.ndarray  # (R, M) final occupancies
    u: np.ndarray  # (R, M) final potentials
    # level statistics (None unless track_levels)
    level_counts: np.ndarray | None = None
    s_violations: np.ndarray | None = None
    q_violations: np.ndarray | None = None
    w_violations: np.ndarray | None = None
    first_s_violation_step: np.ndarray | None = None
    persistence_violations: np.ndarray | None = None
    run_length: np.ndarray | None = None
    run_started_level: np.ndarray | None = None
    level_flags: np.ndarray | None = None  # (R, cap) uint8, valid up to level_counts
    # renewals
    renewal_counts: np.ndarray | None = None
    zeta_positive: int = 0
    zeta_negative: int = 0
    zeta_zero: int = 0
    zeta_tail: np.ndarray | None = None  # index c: count of |zeta| > c, c = 0..10
    # step-by-step checks
    parity_violations: int = 0
    first_parity_violation_step: int | None = None
    comb_violations: np.ndarray | None = None
    comb_max_seen: int = 0
    residual_violations: np.ndarray | None = None
    # raw data
    h_checkpoints: dict[int, np.ndarray] = field(default_factory=dict)
    sites: np.ndarray | None = None

    @property
    def empirical_fractions(self) -> np.ndarray:
        return self.xi / max(self.t, 1)


def _threshold_table(m: int) -> np.ndarray:
    """THR[n, k]: the float sum of k copies of 1/n, added left to right.

    This is the value np.cumsum(mask / n) holds at the k-th member of an
    n-member tie set.  THR[n, k] = 1.0 for k >= n: the cumulative value is
    clamped to 1 from the last member onward.
    """
    n = np.arange(m + 1)[:, None]
    k = np.arange(m + 1)[None, :]
    with np.errstate(divide="ignore"):
        inc = np.where((k >= 1) & (k <= n), 1.0 / n, 0.0)
    thr = np.cumsum(inc, axis=1)
    thr[k >= n] = 1.0
    return thr


def run_ensemble(req: EnsembleRequest) -> EnsembleResult:
    m = check_ring_size(req.m, req.kind)
    R, T = req.replicas, req.steps
    if R < 1:
        raise ValueError("replicas must be >= 1")
    if T < 0:
        raise ValueError("steps must be >= 0")
    init = validate_occupancy(req.init, req.kind) if req.init is not None else (0,) * m
    if req.kind.window * (sum(init) + T) > MAX_TOTAL_PARTICLES:
        raise ValueError(f"step budget {T} overflows the int64 potential range")
    if req.store_level_flags and not req.track_levels:
        raise ValueError("level flags require track_levels")

    # Site-major state: row i is site i across all replicas.
    xi = np.repeat(np.asarray(init, dtype=np.int64)[:, None], R, axis=1)
    u = np.repeat(np.asarray(potentials(init, req.kind), dtype=np.int64)[:, None], R, axis=1)
    m_cur = u.min(axis=0)

    rule = req.rule
    beta = rule.beta if isinstance(rule, Softmax) else None
    # gain[:, k]: the potentials that rise by 1 when site k receives a particle
    eye = np.eye(m, dtype=np.int64)
    gain = sum(np.roll(eye, -d, axis=0) for d in req.kind.offsets)

    # --- level tracking state ---
    if req.track_levels:
        window_code = _window_code_matrix(m)
        level_counts = np.zeros(R, dtype=np.int64)
        # Rows S, Q, W: a level may not raise S, lower Q or raise W.  The
        # sentinels compare the first level against values no level violates.
        worse = np.array([[1], [-1], [1]])
        big = np.iinfo(np.int64).max
        prev_stats = np.repeat([[big], [-1], [big]], R, axis=1)
        stat_viol = np.zeros((3, R), dtype=np.int64)
        first_s_viol = np.full(R, -1, dtype=np.int64)
        required_centers = np.zeros((m, R), dtype=bool)
        persist_viol = np.zeros(R, dtype=np.int64)
        cur_sig = np.zeros((m, R), dtype=bool)
        run_len = np.zeros(R, dtype=np.int64)
        run_start = np.zeros(R, dtype=np.int64)
        flags_buf = None
        if req.store_level_flags:
            cap = req.kind.window * (sum(init) + T) // m + 2
            flags_buf = np.zeros((R, cap), dtype=np.uint8)

        def open_levels(opened: np.ndarray, t: int, m_new: np.ndarray) -> None:
            nonlocal stat_viol, persist_viol, required_centers, cur_sig, run_len, level_counts
            # Statistics are computed for every replica and recorded where `opened`.
            pos, stats, centers, flag_bits = _level_statistics(
                u, m_new, req.kind.window * (sum(init) + t), window_code, flags_buf is not None
            )
            bad = opened & ((stats - prev_stats) * worse > 0)
            stat_viol += bad
            if bad[0].any():
                first_s_viol[bad[0] & (first_s_viol < 0)] = t
            persist_viol += opened & (required_centers > centers).any(axis=0)
            required_centers |= centers & opened
            np.copyto(prev_stats, stats, where=opened)

            if flags_buf is not None:
                idx = np.flatnonzero(opened)
                flags_buf[idx, level_counts[idx]] = flag_bits[idx]

            # a level whose signature differs from the current one starts a new run
            changed = (cur_sig ^ pos) & opened
            reset = changed.any(axis=0)
            run_len += opened
            run_len[reset] = 1
            np.copyto(run_start, level_counts, where=reset)
            cur_sig ^= changed
            level_counts += opened

        open_levels(np.ones(R, dtype=bool), 0, m_cur)

    # --- renewal tracking state ---
    parity_sign = np.where(np.arange(m) % 2 == 1, 1, -1).astype(np.int64)  # +1 at even 1-based sites
    D = parity_sign @ xi
    if req.track_renewals:
        renew_count = np.zeros(R, dtype=np.int64)
        has_base = np.zeros(R, dtype=bool)
        d_last = np.zeros(R, dtype=np.int64)
        zeta_pos = zeta_neg = zeta_zero = 0
        # histogram of floor((|zeta|*M - 1) / M) clipped at 10, for nonzero zeta
        zeta_mag_hist = np.zeros(11, dtype=np.int64)

        def handle_renewals(t: int, m_new: np.ndarray) -> None:
            nonlocal zeta_pos, zeta_neg, zeta_zero
            mask = u.max(axis=0) == m_new
            if not mask.any():
                return
            idx = np.flatnonzero(mask)
            renew_count[idx] += 1
            based = idx[has_base[idx]]
            if based.size:
                dd = D[based] - d_last[based]
                zeta_pos += int((dd > 0).sum())
                zeta_neg += int((dd < 0).sum())
                mag = np.abs(dd)
                nonzero = mag[mag > 0]
                zeta_zero += based.size - nonzero.size
                if nonzero.size:
                    zeta_mag_hist[:] += np.bincount(
                        np.minimum((nonzero - 1) // m, 10), minlength=11
                    )
            d_last[idx] = D[idx]
            has_base[idx] = True

        handle_renewals(0, m_cur)

    parity_violations = 0
    first_parity_step: int | None = None
    if req.check_comb_final_half:
        comb_viol = np.zeros(R, dtype=np.int64)
        comb_max = 0
        two_on = (np.arange(m) + 2) % m
    if req.check_residual_final_half:
        resid_viol = np.zeros(R, dtype=np.int64)
        resid_sign = parity_sign[:, None] if m % 2 == 0 else np.zeros((m, 1), dtype=np.int64)
    half_start = T - T // 2
    cp_index = {int(t): i for i, t in enumerate(req.h_checkpoints)}
    h_store = np.zeros((len(cp_index), R)) if cp_index else None
    sites_buf = np.zeros((R, T), dtype=np.int16) if req.record_sites else None
    if 0 in cp_index:
        h_store[cp_index[0]] = D / m

    # Each draw returns the first site whose cumulative value c exceeds U.  c is
    # nondecreasing down a column and ends at 1 > U, so that is #{sites: c <= U}.
    if isinstance(rule, (MinRule, MaxRule)):
        thr_flat = _threshold_table(m).ravel()
        # (table_index @ mask)[i] = (m + 1) * n + (tie-set members at sites <= i)
        table_index = np.tril(np.ones((m, m))) + (m + 1)
        is_min = isinstance(rule, MinRule)

        def draw(U: np.ndarray) -> np.ndarray:
            mask = u == (m_cur if is_min else u.max(axis=0))
            c = thr_flat.take((table_index @ mask).astype(np.intp))
            return (c <= U).sum(axis=0)
    elif beta == 1.0:
        uniform_c = np.cumsum(np.full(m, 1.0 / m))
        uniform_c[-1] = 1.0

        def draw(U: np.ndarray) -> np.ndarray:
            return np.searchsorted(uniform_c, U, side="right")
    else:
        rows = np.arange(m)[:, None]

        def draw(U: np.ndarray) -> np.ndarray:
            anchor = m_cur if beta < 1.0 else u.max(axis=0)
            w = np.power(beta, (u - anchor).astype(np.float64))
            # normalised over each replica's contiguous sites, in the single chain's summation order
            p = w / np.ascontiguousarray(w.T).sum(axis=1)
            c = np.cumsum(p, axis=0)
            # clamp from each replica's last site of positive probability
            c[rows >= m - 1 - (p[::-1] > 0).argmax(axis=0)] = 1.0
            return (c <= U).sum(axis=0)

    gens = [RandomStream(req.seed, r).generator() for r in range(R)]
    done = 0
    while done < T:
        csize = min(req.chunk_steps, T - done)
        unif = np.empty((R, csize))
        for r in range(R):
            unif[r] = gens[r].random(csize)
        for j in range(csize):
            t = done + j + 1
            sites = draw(unif[:, j].copy())

            xi += eye.take(sites, axis=1)
            u += gain.take(sites, axis=1)
            D += parity_sign[sites]
            m_new = u.min(axis=0)

            if req.track_levels:
                opened = m_new > m_cur
                if opened.any():
                    open_levels(opened, t, m_new)
            m_cur = m_new
            if req.track_renewals:
                handle_renewals(t, m_new)
            if req.check_parity:
                bad = u[0::2].sum(axis=0) != u[1::2].sum(axis=0)
                if bad.any():
                    parity_violations += int(bad.sum())
                    if first_parity_step is None:
                        first_parity_step = t
            if t >= half_start:
                if req.check_comb_final_half:
                    dev = np.abs(xi - xi[two_on]).max(axis=0)
                    comb_max = max(comb_max, int(dev.max()))
                    comb_viol += dev > 2
                if req.check_residual_final_half:
                    resid = np.abs(m * xi - t - resid_sign * D).max(axis=0)
                    resid_viol += resid > 2 * m * m
            if t in cp_index:
                h_store[cp_index[t]] = D / m
            if sites_buf is not None:
                sites_buf[:, t - 1] = sites + 1  # 1-based in all exported data
        done += csize

    result = EnsembleResult(
        request=req, t=T, xi=np.ascontiguousarray(xi.T), u=np.ascontiguousarray(u.T)
    )
    if req.track_levels:
        result.level_counts = level_counts
        result.s_violations, result.q_violations, result.w_violations = stat_viol
        result.first_s_violation_step = first_s_viol
        result.persistence_violations = persist_viol
        result.run_length = run_len
        result.run_started_level = run_start
        result.level_flags = flags_buf
    if req.track_renewals:
        result.renewal_counts = renew_count
        result.zeta_positive = zeta_pos
        result.zeta_negative = zeta_neg
        result.zeta_zero = zeta_zero
        # tail[c] = #{|zeta| > c}: bucket b holds c*M < |zeta|*M <= (c+1)*M
        result.zeta_tail = zeta_mag_hist[::-1].cumsum()[::-1].copy()
    result.parity_violations = parity_violations
    result.first_parity_violation_step = first_parity_step
    if req.check_comb_final_half:
        result.comb_violations = comb_viol
        result.comb_max_seen = comb_max
    if req.check_residual_final_half:
        result.residual_violations = resid_viol
    if h_store is not None:
        result.h_checkpoints = {t: h_store[i] for t, i in cp_index.items()}
    result.sites = sites_buf
    return result


def final_half_flag_counts(result: EnsembleResult) -> np.ndarray:
    """Per-replica count of levels in the final half carrying each excluded window.

    Requires store_level_flags.  The final half of replica r is the levels
    with index >= level_counts[r] // 2.  Replicas are counted in row blocks of
    about _FLAG_BLOCK_CELLS flag entries, so the masks never span the whole
    (R, cap) buffer (cap is about 1.2e5 levels at T = 2e5).
    """
    if result.level_flags is None or result.level_counts is None:
        raise ValueError("run was not tracked with store_level_flags")
    flags, n = result.level_flags, result.level_counts
    R, cap = flags.shape
    rows = max(1, _FLAG_BLOCK_CELLS // cap)
    counts = np.zeros((R, len(FLAG_NAMES)), dtype=np.int64)
    for lo in range(0, R, rows):
        nb = n[lo : lo + rows, None]
        # only the columns some replica of the block counts
        c0, c1 = int((nb // 2).min()), int(nb.max())
        cols = np.arange(c0, c1)
        tail = np.where((cols >= nb // 2) & (cols < nb), flags[lo : lo + rows, c0:c1], 0)
        for col in range(len(FLAG_NAMES)):
            counts[lo : lo + rows, col] = np.count_nonzero(tail & (1 << col), axis=1)
    return counts
