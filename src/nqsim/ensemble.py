"""Vectorised replica ensemble: R chains stepped in lock-step, stored site-major.

The engine runs the min and max rules; the softmax kernel is simulated one
chain at a time (`dynamics.run`) only.  Replica r draws from
RandomStream(seed, stream=r) and reproduces `dynamics.run` on that stream bit
for bit (the uniform variates, the inverse-CDF site choice and the float
arithmetic of the kernels are identical; tests pin this).  Reports are
therefore independent of any batching and stay in replica order.

Layout: occupancies and potentials are held site-major, as (M, R) int64
arrays with one contiguous R-vector per site, so each per-step reduction over
the sites runs along axis 0.  Results are returned replica-major, (R, M).
The tie-set ranks below are an (M, M) @ (M, R) product, O(M^2 R) per
lock-step.  At the small rings the suites run that beats numpy's slow axis-0
cumsum, but the cost grows quadratically: from about M = 70, replica-major
(R, M) arrays reduced along axis 1 are faster.

Site draw: the oracle `step` (tests/oracles.py), through `sample_site`, takes
the first site with U < c, where c = cumsum(mask / n) over the n-member min
(or max) tie set.  At a site with k tie-set members at or before it, c holds
the float sum of k copies of 1/n added left to right.  Those sums are
tabulated once as THR[n, k], so the engine gathers c = THR[n, k] instead of
dividing and summing each step.  THR[n, n] is 1.0: c is clamped to 1 from the
last member of the tie set onward, the rule `sample_site` applies, so a draw
never lands outside the tie set when n copies of 1/n add up to less than 1.
The single-chain driver `dynamics.run` reads the same sums from rows it
builds per tie size on first use, and bisects them; `TestRunReplaysStep`
pins it to `step`.

The engine optionally tracks, fully vectorised:
  * per-level statistics (S, Q, W, signatures) with monotonicity, persistence
    and window-exclusion monitors (`levels.LevelTracker`).  Each lock-step
    only copies the potentials of the replicas that opened a level into a
    buffer of a fixed number of cells; the statistics of every buffered level
    are computed in one call when it is full, at the end of each uniform block
    and at the end of the run, and each replica's levels are then resolved in
    order from the state carried between blocks,
  * renewal times (reduced potential identically zero) and the parity-gap
    increments between them,
  * the bounds of `check_bounds`: the even/odd potential-sum identity each
    step (even M only; it fails at odd M), and the neighbour-difference and
    residual bounds over the final half of the run,
  * parity-gap checkpoints, raw allocation sites and, per site, the last step
    at which it received a particle (`last_seen`, (R, M), 0 if never).

Max rule, absorbed phase.  The chosen site is a maximiser and lies in its own
window, so the maximum potential rises by exactly 1 each step and no other
potential rises by more: the max tie set T evolves as T' = T & raised(k) and
never grows.  T is absorbing when every member raises every member: a single
site, or an adjacent pair under the symmetric window (Kemeny & Snell, *Finite
Markov Chains*, ch. 3); `absorbed_max_ties` is the one test of it, for the
engine and the appendix freeze classifier alike.  A replica on an absorbing
pair picks its higher-index member exactly when U >= THR[2, 1] (= 0.5), the
comparison the lock-step draw makes, and a replica on a single site always
picks it.  So once every replica's tie set is absorbing, a max-rule request
that tracks nothing per step (no levels, renewals or bounds) advances the rest
of each uniform block at once: occupancies, potentials and the parity gap
from per-site pick counts, and sites, checkpoints and `last_seen` from the
bool picks.  The picks are computed on the pair replicas' rows only: a
replica on a single site takes it at every step, so no uniform can change
its output, and from the block after absorption on it draws nothing; only
the pairs fill rows of the block.  On this path the blocks start at
_FREEZE_BLOCK_START (16) steps and double, up to the usual size, until
every tie set is absorbing, so a single-site replica draws few uniforms
past its freeze.  On every path each stream fills its row of the block in
place (`Generator.random(out=row)`).

State table (asymmetric min rule).  Under the min rule the reduced potentials
v = u - min u form a Markov chain of their own, with a finite reachable set
under the asymmetric window: 9, 70, 473 and 3111 states from empty at
M = 4, 6, 8 and 10 (Kemeny & Snell, ch. 3).  An asymmetric min-rule request
at M <= 10 that asks for nothing read off the full potentials each step (no
levels or bounds, and no `last_seen`) searches that set from its initial v
(`statetable.min_rule_states`).  From empty every M <= 10 has at most
_TABLE_MAX_STATES states (8192) and M = 11 already has 37 555, so larger
rings are not searched; the search gives up past the cap.  If it succeeds,
the chain runs on a table instead of the lock-step draw.
A draw U falls in grid cell g = floor(U * G), G the smallest power of two
above M.  The n - 1 breakpoints THR[n, 1..n-1] of an n-member tie set lie
about 1/n apart, so a cell holds at most one of them, and the entry for
(state, g) stores it as the cell's cut.  The tie-set rank that U >= cut
selects, #{j : THR[n, j] <= U}, is then the count the lock-step draw makes
from the same floats, so every site is identical.  A lock-step is
e = base + 2g; e += U >= cut[e]; base = next[e].  The entries taken are kept
for one slice of `statetable.SLICE_STEPS` (32) steps, and the slice's
sites, occupancies (bincount), parity gaps (running sums), checkpoints and
renewals (the next state is v == 0) are read off them at once; the final
potentials are the window sums of the final occupancies.  A slice's arrays hold 32 R cells
each (256 KiB at R = 1000), where a whole uniform block of 2^19 cells would
add 4 MiB per array to the peak memory.  Every other request runs the
lock-step loop.

`run_ensemble` estimates the bytes of its large arrays before allocating and
refuses a request above MAX_ENSEMBLE_BYTES with a ValueError.  The state
search runs before that estimate; at M <= 10 it holds at most about 2 MB.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import MAX_TOTAL_PARTICLES, AllocationRule, MaxRule, MinRule, RandomStream
from .levels import FLAG_NAMES, LevelTracker, buffer_columns
from .ring import (
    Neighborhood,
    check_ring_size,
    potentials,
    reduce_potential,
    validate_occupancy,
)

# Uniforms per (R, steps) block drawn ahead of the lock-steps: 4 MiB of float64.
# Unbounded, the block grows with R (31 MiB at R = 1000 and 4096 steps).  Once
# such a block is freed, glibc raises its mmap threshold, so the next one comes
# from the brk heap, where later small allocations pin it and the peak RSS grows.
_UNIF_BLOCK_CELLS = 2**19
# Steps in the first uniform block of a freezable max-rule request.  From
# empty, an asymmetric replica is still unabsorbed after n steps with
# probability 2^-(n-1), so at R = 500 every replica is absorbed within the
# first block of 16 steps about 98.5% of the time.
_FREEZE_BLOCK_START = 16
# Requests whose estimated arrays (`_footprint_bytes`) exceed this are refused
# before anything is allocated: 4 GiB.
MAX_ENSEMBLE_BYTES = 2**32
# Largest reachable reduced-potential set the state-table path steps; 8192
# covers every M <= 10 from empty (3111 states at M = 10, 5266 at M = 9), and
# no larger ring is searched (37 555 states at M = 11).
_TABLE_MAX_STATES = 8192
_TABLE_MAX_M = 10


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
    # the even/odd potential-sum identity each step (even M only), and the
    # neighbour-difference and residual bounds over the final half
    check_bounds: bool = False
    record_sites: bool = False
    track_last_seen: bool = False
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
    # (R, len(FLAG_NAMES)): some level in the final half (index >= level_counts // 2)
    # carries the window; None unless store_level_flags
    final_half_flags: np.ndarray | None = None
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
    # (R, M) int64: last 1-based step at which each site got a particle, 0 if
    # never; None unless track_last_seen
    last_seen: np.ndarray | None = None

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


def absorbed_max_ties(u: np.ndarray, kind: Neighborhood) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each replica's absorbed flag and lowest and highest max site, from site-major u (M, R).

    A max tie set is absorbing when every member raises every member.  Sites are 0-based.
    """
    m = len(u)
    mask = u == u.max(axis=0)
    # escape[i, k] = 1: a particle at site k leaves site i's potential as it is
    escape, k = np.ones((m, m)), np.arange(m)
    for d in kind.offsets:
        escape[(k - d) % m, k] = 0
    absorbed = ~((escape @ mask) * mask).any(axis=0)
    return absorbed, mask.argmax(axis=0), m - 1 - mask[::-1].argmax(axis=0)


def _footprint_bytes(req: EnsembleRequest, m: int, table_states: int = 0) -> int:
    """Estimated bytes of run_ensemble's large arrays for this request.

    Counts the R x T int16 site record, the uniform block and the checkpoints.
    The lock-step loop adds six (M, M) helpers, sixteen (M, R) arrays of eight
    bytes (the state and the per-step temporaries), last_seen and the level
    buffer (an int64 potential per cell, a replica id and a step per column).
    The state-table path (table_states > 0) adds two (M, R) arrays (xi and u),
    the table and the per-slice records.  The state search that precedes the
    estimate is not counted: it runs at M <= 10 only, and holds at most
    _TABLE_MAX_STATES tuples, about 2 MB.
    """
    R, T = req.replicas, req.steps
    block = R * max(1, min(req.chunk_steps, T, max(1, _UNIF_BLOCK_CELLS // R)))
    shared = 8 * (block + len(req.h_checkpoints) * R) + (2 * R * T if req.record_sites else 0)
    if table_states:
        from . import statetable as st

        entries = table_states * 2 * st.table_grid(m)
        slices = st.SLICE_CELL_BYTES * st.SLICE_STEPS * R
        return shared + 16 * m * R + st.TABLE_ENTRY_BYTES * entries + slices
    cells = 6 * m * m + 16 * m * R
    if req.track_last_seen:
        cells += m * R
    if req.track_levels:
        cells += (m + 2) * buffer_columns(m, R)
    return shared + 8 * cells


def run_ensemble(req: EnsembleRequest) -> EnsembleResult:
    rule = req.rule
    if not isinstance(rule, (MinRule, MaxRule)):
        raise ValueError(f"the replica engine runs the min and max rules only, got {rule}")
    m = check_ring_size(req.m, req.kind)
    R, T = req.replicas, req.steps
    if R < 1:
        raise ValueError("replicas must be >= 1")
    if T < 0:
        raise ValueError("steps must be >= 0")
    if req.init is not None and len(req.init) != m:
        raise ValueError(f"init lists {len(req.init)} counts for m={m} sites")
    init = validate_occupancy(req.init, req.kind) if req.init is not None else (0,) * m
    if req.kind.window * (sum(init) + T) > MAX_TOTAL_PARTICLES:
        raise ValueError(f"step budget {T} overflows the int64 potential range")
    if req.store_level_flags and not req.track_levels:
        raise ValueError("level flags require track_levels")
    if any(not 0 <= t <= T for t in req.h_checkpoints):
        raise ValueError(f"h checkpoints must lie in steps 0..{T}, got {tuple(req.h_checkpoints)}")

    # Checks that read the full potentials every step keep the lock-step loop.
    per_step = req.track_levels or req.check_bounds
    is_min = isinstance(rule, MinRule)
    freezable = not is_min and not (per_step or req.track_renewals)
    searched = is_min and req.kind is Neighborhood.ASYMMETRIC and m <= _TABLE_MAX_M and not (
        per_step or req.track_last_seen
    )
    u0 = potentials(init, req.kind)
    reachable = None
    if searched:
        from . import statetable  # imported by the requests that may take this path

        reachable = statetable.min_rule_states(reduce_potential(u0), req.kind, _TABLE_MAX_STATES)
    need = _footprint_bytes(req, m, len(reachable[0]) if reachable else 0)
    if need > MAX_ENSEMBLE_BYTES:
        raise ValueError(
            f"M={m}, {R} replicas and {T} steps need about {need / 2**20:.0f} MiB, "
            f"above the {MAX_ENSEMBLE_BYTES / 2**20:.0f} MiB limit"
        )
    thr = _threshold_table(m)
    tab = statetable.state_table(*reachable, thr) if reachable else None
    del reachable  # the table holds all the state-table path reads

    # Site-major state: row i is site i across all replicas.  The result holds
    # every counter from the start; its (M, R) arrays are transposed at the end.
    xi = np.repeat(np.asarray(init, dtype=np.int64)[:, None], R, axis=1)
    u = np.repeat(np.asarray(u0, dtype=np.int64)[:, None], R, axis=1)
    m_cur = u.min(axis=0)
    res = EnsembleResult(request=req, t=T, xi=xi, u=u)

    # gain[:, k]: the potentials that rise by 1 when site k receives a particle
    eye = np.eye(m, dtype=np.int64)
    gain = sum(np.roll(eye, -d, axis=0) for d in req.kind.offsets)

    levels = None
    if req.track_levels:
        levels = LevelTracker(res, m, req.kind.window * sum(init), req.kind.window, req.store_level_flags)
        levels.gather(np.ones(R, dtype=bool), 0, u)  # level 0 opens at step 0

    # --- renewal tracking state ---
    parity_sign = np.where(np.arange(m) % 2 == 1, 1, -1).astype(np.int64)  # +1 at even 1-based sites
    D = parity_sign @ xi
    if req.track_renewals:
        res.renewal_counts = np.zeros(R, dtype=np.int64)
        has_base = np.zeros(R, dtype=bool)
        d_last = np.zeros(R, dtype=np.int64)
        # zeta_hist[z + cap]: the increments z, clipped to +-cap; every |z| >= cap
        # is in the top bucket of zeta_tail, c = 10 (|z| > 10 * M).
        cap = 10 * m + 1
        zeta_hist = np.zeros(2 * cap + 1, dtype=np.int64)

        def handle_renewals(hit: np.ndarray, d: np.ndarray) -> None:
            # hit (steps, R): renewals, with the parity gap d (steps, R) after
            # each step.  Each renewal is paired with its replica's previous
            # one, in this call or before it: idx runs replica-major.
            idx = np.flatnonzero(hit.T)
            if not idx.size:
                return
            rep, j = np.divmod(idx, len(hit))
            dv = d[j, rep]
            starts = np.flatnonzero(np.concatenate(([True], rep[1:] != rep[:-1])))
            r0 = rep[starts]  # the replicas with renewals, each once
            prev = np.empty_like(dv)
            prev[1:] = dv[:-1]
            prev[starts] = d_last[r0]
            dd = np.delete(dv - prev, starts[~has_base[r0]])
            zeta_hist[:] += np.bincount(np.clip(dd, -cap, cap) + cap, minlength=2 * cap + 1)
            ends = np.append(starts[1:], idx.size)
            res.renewal_counts[r0] += ends - starts
            d_last[r0] = dv[ends - 1]
            has_base[r0] = True

        handle_renewals((u.max(axis=0) == m_cur)[None], D[None])

    check_parity = req.check_bounds and m % 2 == 0
    if req.check_bounds:
        res.comb_violations = np.zeros(R, dtype=np.int64)
        two_on = (np.arange(m) + 2) % m
        res.residual_violations = np.zeros(R, dtype=np.int64)
        resid_sign = parity_sign[:, None] if m % 2 == 0 else np.zeros((m, 1), dtype=np.int64)
    half_start = T - T // 2
    # keys in request order; each value is written when its step is reached
    res.h_checkpoints = dict.fromkeys(int(t) for t in req.h_checkpoints)
    if req.record_sites:
        res.sites = np.zeros((R, T), dtype=np.int16)
    if req.track_last_seen:
        res.last_seen = np.zeros((m, R), dtype=np.int64)
    replica = np.arange(R)
    if 0 in res.h_checkpoints:
        res.h_checkpoints[0] = D / m
    # Each draw returns the first site whose cumulative value c exceeds U.  c is
    # nondecreasing down a column and ends at 1 > U, so that is #{sites: c <= U}.
    thr_flat = thr.ravel()
    # (table_index @ mask)[i] = (m + 1) * n + (tie-set members at sites <= i)
    table_index = np.tril(np.ones((m, m))) + (m + 1)

    def draw(U: np.ndarray) -> np.ndarray:
        mask = u == (m_cur if is_min else u.max(axis=0))
        c = thr_flat.take((table_index @ mask).astype(np.intp))
        return (c <= U).sum(axis=0)

    if tab is not None:
        base = np.zeros(R, dtype=np.intp)  # each replica's state's first entry; v0 is state 0
        renewals = handle_renewals if req.track_renewals else None

    def absorbed_split() -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        # (lo, hi, pairs) once every max tie set is absorbing, lo == hi on a
        # single site and pairs the replicas on two sites; else None
        absorbed, lo, hi = absorbed_max_ties(u, req.kind)
        return (lo, hi, np.flatnonzero(lo != hi)) if absorbed.all() else None

    def per_replica(on_pairs: np.ndarray, on_single: int) -> np.ndarray:
        # an R-vector: on_pairs at the pair replicas, on_single elsewhere
        out = np.full(R, on_single, dtype=np.int64)
        out[pairs] = on_pairs
        return out

    frozen = absorbed_split() if freezable else None
    gens = [RandomStream(req.seed, r).generator() for r in range(R)]
    # the streams that fill the block's rows, in row order
    drawers = gens if frozen is None else [gens[r] for r in frozen[2].tolist()]
    done = 0
    block_steps = min(req.chunk_steps, max(1, _UNIF_BLOCK_CELLS // R))
    # Blocks on the freezable path start short and double until every tie set
    # is absorbing: the draws of the steps after that are read on pairs only.
    grow = min(_FREEZE_BLOCK_START, block_steps) if freezable else block_steps
    # One buffer for every block.  A block allocated before the last one is
    # freed would hold two at once, and the hole the freed one leaves is
    # fragmented by smaller arrays, so the next block extends the heap.
    blocks = np.empty((R, min(block_steps, T)))
    while done < T:
        # Philox gives one double per draw, so how the steps are split into
        # blocks changes no draw.
        csize = min(grow, T - done)
        unif = blocks[: len(drawers), :csize]
        for row, gen in zip(unif, drawers):
            gen.random(out=row)
        if tab is not None:
            statetable.advance(tab, base, unif, done, xi, D, parity_sign, res, renewals)
            done += csize
            continue
        j = 0
        while frozen is None and j < csize:
            sites = draw(unif[:, j].copy())
            j += 1
            t = done + j

            xi += eye.take(sites, axis=1)
            u += gain.take(sites, axis=1)
            D += parity_sign[sites]
            m_new = u.min(axis=0)

            if levels is not None:
                opened = m_new > m_cur
                if opened.any():
                    levels.gather(opened, t, u)
            m_cur = m_new
            if req.track_renewals:
                handle_renewals((u.max(axis=0) == m_new)[None], D[None])
            if check_parity:
                bad = u[0::2].sum(axis=0) != u[1::2].sum(axis=0)
                if bad.any():
                    res.parity_violations += int(bad.sum())
                    if res.first_parity_violation_step is None:
                        res.first_parity_violation_step = t
            if req.check_bounds and t >= half_start:
                dev = np.abs(xi - xi[two_on]).max(axis=0)
                res.comb_max_seen = max(res.comb_max_seen, int(dev.max()))
                res.comb_violations += dev > 2
                resid = np.abs(m * xi - t - resid_sign * D).max(axis=0)
                res.residual_violations += resid > 2 * m * m
            if t in res.h_checkpoints:
                res.h_checkpoints[t] = D / m
            if req.record_sites:
                res.sites[:, t - 1] = sites + 1  # 1-based in all exported data
            if req.track_last_seen:
                res.last_seen[sites, replica] = t
            if freezable:
                frozen = absorbed_split()
                if frozen is not None:
                    pairs = frozen[2]
                    # From here on row i of the block holds pair replica pairs[i].
                    unif[: len(pairs), j:] = unif[pairs, j:]
                    drawers = [gens[r] for r in pairs.tolist()]
        grow = min(2 * grow, block_steps) if frozen is None else block_steps
        if frozen is not None and j < csize:
            # Steps t0 + 1 .. t0 + n at once.  picks[i, c]: pair replica
            # pairs[i] takes its higher site at step t0 + c + 1.  A replica on
            # a single site takes it at every step; it has no row.
            lo, hi, pairs = frozen
            t0, n = done + j, csize - j
            picks = unif[: len(pairs), j:] >= thr[2, 1]
            d_lo, d_hi = parity_sign[lo], parity_sign[hi]
            for t in res.h_checkpoints:
                if t0 < t <= t0 + n:
                    k_hi = per_replica(picks[:, : t - t0].sum(axis=1), 0)
                    res.h_checkpoints[t] = (D + d_lo * (t - t0 - k_hi) + d_hi * k_hi) / m
            if req.record_sites:
                block = res.sites[:, t0 : t0 + n]
                block[:] = lo[:, None] + 1
                on_pairs = block[pairs]
                np.copyto(on_pairs, hi[pairs, None] + 1, where=picks)
                block[pairs] = on_pairs
            if req.track_last_seen:
                rev = picks[:, ::-1]
                last_lo = per_replica(np.where(picks.all(axis=1), 0, t0 + n - rev.argmin(axis=1)), t0 + n)
                last_hi = per_replica(np.where(picks.any(axis=1), t0 + n - rev.argmax(axis=1), 0), 0)
                # lo == hi on a single site: the second write keeps the later step
                seen = res.last_seen
                seen[lo, replica] = np.maximum(seen[lo, replica], last_lo)
                seen[hi, replica] = np.maximum(seen[hi, replica], last_hi)
            n_hi = per_replica(picks.sum(axis=1), 0)
            xi[lo, replica] += n - n_hi
            xi[hi, replica] += n_hi
            u += gain[:, lo] * (n - n_hi) + gain[:, hi] * n_hi
            D += d_lo * (n - n_hi) + d_hi * n_hi
        if levels is not None:
            levels.flush()
        done += csize

    if tab is not None:
        u = gain @ xi  # the window sums of the final occupancies
    res.xi, res.u = np.ascontiguousarray(xi.T), np.ascontiguousarray(u.T)
    if req.track_last_seen:
        res.last_seen = np.ascontiguousarray(res.last_seen.T)
    if levels is not None:
        levels.finish()
    if req.track_renewals:
        # tail[c] = #{|zeta| > c}, zeta = dd / M
        z = np.abs(np.arange(-cap, cap + 1))
        res.zeta_positive = int(zeta_hist[cap + 1 :].sum())
        res.zeta_negative = int(zeta_hist[:cap].sum())
        res.zeta_zero = int(zeta_hist[cap])
        res.zeta_tail = np.array([zeta_hist[z > c * m].sum() for c in range(11)])
    return res
