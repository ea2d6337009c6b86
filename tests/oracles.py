"""Reference oracles: literal definitions the package's fast paths are checked against.

No command runs these and nothing under `src/nqsim` imports them.  Each one
restates its definition directly, so it must stay independent of the code it
checks: it imports nothing from `nqsim.levels`, `nqsim.observers`,
`nqsim.limits`, `nqsim.ensemble`, `nqsim.statetable` or `nqsim.verify`, and
from `nqsim.scaling` only the `FreezeOutcome` type
(`test_imports.test_oracles_import_nothing_they_check` pins this).

  * `step`: one inverse-CDF draw from the probability vector, the oracle for
    `dynamics.run` and the engine's site draw;
  * `stat_S`, `stat_Q`, `stat_W`, `pattern`, `isolated_zero_centers`,
    `literal_window_flags`: the level shapes, the oracle for
    `levels.level_statistics`;
  * `ReferenceLevelLog` and `ReferenceParityGapSeries`: the level and renewal
    monitors of one chain, resolved level by level and renewal by renewal
    from those shapes, the oracle for `levels.LevelTracker` and
    `levels.RenewalTracker` (in the engine, and at R = 1 behind
    `observers.LevelLog` and `observers.ParityGapSeries`), fed every step by
    `run_every_step`;
  * `parity_gap` in exact rationals; `classify_freeze` from an allocation-site
    list; `is_limit_configuration` on exact fraction vectors;
  * `neighborhood` as a set of 1-based sites, and `total_variation`.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np

from nqsim.dynamics import AllocationRule, ChainState, RandomStream, RunResult, _distribution, run, sample_site
from nqsim.ring import Neighborhood, check_ring_size, potentials
from nqsim.scaling import FreezeOutcome


def neighborhood(kind: Neighborhood, i: int, m: int) -> frozenset[int]:
    """The neighbourhood U_i of 1-based site i on a ring of m sites."""
    check_ring_size(m, kind)
    if not 1 <= i <= m:
        raise ValueError(f"site index {i} outside 1..{m}")
    return frozenset((i - 1 + d) % m + 1 for d in kind.offsets)


def transition_distribution(state: ChainState, rule: AllocationRule) -> np.ndarray:
    """Probability of the next particle landing on each site, as float64."""
    return np.array(_distribution(state.u, rule))


def _draw_and_place(
    xi: list[int], u: list[int], offsets: tuple[int, ...], rule: AllocationRule, uniform: float
) -> int:
    """Draw a 0-based site from one uniform and allocate a particle there, in place.

    u_i gains 1 exactly when the site lies in U_i, i.e. for i = site - d over
    the window offsets (for the asymmetric window {i, i+1} that is {k-1, k}).
    """
    site0 = sample_site(_distribution(u, rule), uniform)
    xi[site0] += 1
    m = len(u)
    for d in offsets:
        u[(site0 - d) % m] += 1
    return site0


def step(state: ChainState, rule: AllocationRule, gen) -> tuple[ChainState, int]:
    """Advance one step on `gen.random()`; returns the new state and the 1-based allocated site.

    The literal inverse-CDF draw: it forms the whole probability vector and
    walks its running sums (`dynamics.sample_site`).
    """
    xi = list(state.xi)
    u = list(state.u)
    site0 = _draw_and_place(xi, u, state.kind.offsets, rule, gen.random())
    new_state = ChainState(t=state.t + 1, xi=tuple(xi), u=tuple(u), kind=state.kind)
    return new_state, site0 + 1


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def stat_S(v: Sequence[int]) -> int:
    """Sum of entries >= 2 (entries 0 or 1 contribute nothing)."""
    return sum([x for x in v if x >= 2])


def pattern(v: Sequence[int]) -> tuple[int, ...]:
    """Zero/positive signature of v: 0 stays 0, anything positive becomes 1."""
    return tuple([1 if x > 0 else 0 for x in v])


def stat_Q(v: Sequence[int]) -> int:
    """Count of k with v_{k-1} > 0, v_k = 0, v_{k+1} > 0, cyclically."""
    m = len(v)
    return sum(1 for k in range(m) if v[k] == 0 and v[k - 1] > 0 and v[(k + 1) % m] > 0)


def stat_W(v: Sequence[int]) -> int:
    """Count of cyclic windows (0, positive, positive, 0)."""
    m = len(v)
    return sum(
        1
        for k in range(m)
        if v[k] == 0 and v[(k + 1) % m] > 0 and v[(k + 2) % m] > 0 and v[(k + 3) % m] == 0
    )


def isolated_zero_centers(sig: Sequence[int]) -> frozenset[int]:
    """0-based centers k with signature (positive, zero, positive) around k."""
    m = len(sig)
    return frozenset(
        k for k in range(m) if sig[k] == 0 and sig[k - 1] == 1 and sig[(k + 1) % m] == 1
    )


_WINDOW_NAMES = ("three_positives", "three_zeros", "pair_into_zeros", "lone_positive_in_zeros")


def literal_window_flags(sig: Sequence[int]) -> dict[str, bool]:
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


class ReferenceLevelLog:
    """Level log of one chain, each level resolved from the literal shapes as it opens.

    A level opens at the first record and wherever the minimum potential
    strictly rises.  It counts levels that raise S, lower Q or raise W
    against the level before (and the step of the first S rise), each
    isolated-zero centre an earlier level had and a level lacks, the current
    signature run, and each level's window flags.
    """

    def __init__(self, kind: Neighborhood):
        self.kind = kind
        self.level_count = 0
        self.level_times: list[int] = []
        self._last_t: int | None = None
        self._last_m: int | None = None
        self._prev_stats: tuple[int, int, int] | None = None
        self.s_increase_violations = 0
        self.q_decrease_violations = 0
        self.w_increase_violations = 0
        self.first_s_violation_step = -1
        self.persistence_violations = 0
        self._required_centers: frozenset[int] = frozenset()
        self.flags: list[dict[str, bool]] = []  # each level's `literal_window_flags`
        self.current_signature: tuple[int, ...] | None = None
        self.run_length = 0
        self.run_started_level = 0

    def on_step(self, record) -> None:
        if self._last_t is not None and record.t != self._last_t + 1:
            raise ValueError(f"out-of-order record: t={record.t} after t={self._last_t}")
        opens = self._last_t is None or record.m > self._last_m
        self._last_t = record.t
        self._last_m = record.m
        if opens:
            self._open_level(record)

    def _open_level(self, record) -> None:
        v = record.v
        sig = pattern(v)
        s, q, w = stat_S(v), stat_Q(v), stat_W(v)
        if self._prev_stats is not None:
            prev_s, prev_q, prev_w = self._prev_stats
            if s > prev_s:
                self.s_increase_violations += 1
                if self.first_s_violation_step < 0:
                    self.first_s_violation_step = record.t
            self.q_decrease_violations += q < prev_q
            self.w_increase_violations += w > prev_w
        self._prev_stats = (s, q, w)
        centers = isolated_zero_centers(sig)
        self.persistence_violations += len(self._required_centers - centers)
        self._required_centers |= centers
        if sig == self.current_signature:
            self.run_length += 1
        else:
            self.current_signature = sig
            self.run_length = 1
            self.run_started_level = self.level_count
        self.level_times.append(record.t)
        self.flags.append(literal_window_flags(sig))
        self.level_count += 1

    def flag_counts(self, start_level: int = 0) -> dict[str, int]:
        """Levels from `start_level` on that carry each excluded window."""
        tail = self.flags[start_level:]
        return {name: sum(f[name] for f in tail) for name in _WINDOW_NAMES}

    def report(self) -> dict:
        """The fields of `nqsim simulate`'s "levels" summary."""
        return {
            "levels": self.level_count,
            "level_times_head": self.level_times[:10],
            "s_increase_violations": self.s_increase_violations,
            "q_decrease_violations": self.q_decrease_violations,
            "w_increase_violations": self.w_increase_violations,
            "persistence_violations": self.persistence_violations,
            "final_half_flag_counts": self.flag_counts(self.level_count // 2),
            "stable_run_length": self.run_length,
            "stable_signature": None
            if self.current_signature is None
            else "".join("*" if x else "0" for x in self.current_signature),
        }


class ReferenceParityGapSeries:
    """H(t) at the sample times, the renewal count (reduced potential
    identically zero) and the H increments between consecutive renewals, as a
    `Counter` of exact values.

    H is the paper's parity gap at even M; at odd M the same sums give the
    increments the engine tracks there.
    """

    def __init__(self, m: int, sample_times: Sequence[int] = ()):
        self.m = m
        self.sample_times = frozenset(sample_times)
        self.samples: dict[int, Fraction] = {}
        self.renewals = 0
        self.increments: Counter[Fraction] = Counter()
        self._h_at_last_renewal: Fraction | None = None

    def on_step(self, record) -> None:
        renewal = not any(record.v)
        sampled = record.t in self.sample_times
        if not (renewal or sampled):
            return
        xi = record.xi
        h = Fraction(sum(xi[1::2]) - sum(xi[0::2]), self.m)
        if sampled:
            self.samples[record.t] = h
        if renewal:
            if self._h_at_last_renewal is not None:
                self.increments[h - self._h_at_last_renewal] += 1
            self.renewals += 1
            self._h_at_last_renewal = h

    def report(self) -> dict:
        """The fields of `nqsim simulate`'s "parity_gap" summary."""
        return {
            "renewals": self.renewals,
            "increments": self.increments.total(),
            "increment_positive": sum(n for z, n in self.increments.items() if z > 0),
            "increment_negative": sum(n for z, n in self.increments.items() if z < 0),
        }


def run_every_step(monitors, initial: ChainState, rule: AllocationRule, steps: int,
                   rng: RandomStream, observers: Sequence = ()) -> RunResult:
    """`dynamics.run` with every step kept, each record handed to each monitor's `on_step`.

    `run` calls its own `observers` only at the initial record and the level
    openings; the reference monitors read every step.
    """
    out = run(initial, rule, steps, rng, observers=observers, sample_every=1)
    for rec in out.records:
        for monitor in monitors:
            monitor.on_step(rec)
    return out


def parity_gap(xi: Sequence[int]) -> Fraction:
    """H = (sum over even sites - sum over odd sites) / M, sites 1-based; even M only."""
    m = len(xi)
    if m % 2 != 0:
        raise ValueError(f"parity gap is defined for even M only, got M={m}")
    return Fraction(sum(xi[1::2]) - sum(xi[0::2]), m)


def classify_freeze(
    sites: Sequence[int], m: int, kind: Neighborhood, init: Sequence[int] | None = None
) -> FreezeOutcome:
    """Classify a max-rule run from its 1-based allocation sites (steps 1..T) and `init`.

    Replays the occupancy, takes the final potentials' max tie set and tests
    whether every member raises every member, without numpy.
    """
    xi = list(init) if init is not None else [0] * m
    for site in sites:
        xi[site - 1] += 1
    u = potentials(xi, kind)
    top = max(u)
    ties = [i for i in range(1, m + 1) if u[i - 1] == top]
    # site k raises the potential of site i when k lies in i's window
    if any(k not in neighborhood(kind, i, m) for i in ties for k in ties):
        return FreezeOutcome("unfrozen", (), None)
    ordered = (m, 1) if ties == [1, m] else tuple(ties)  # (M, 1): the pair that wraps around
    last_outside = max((t for t, site in enumerate(sites, 1) if site not in ties), default=0)
    return FreezeOutcome("single" if len(ties) == 1 else "pair", ordered, last_outside + 1)


def is_limit_configuration(x: Sequence[Fraction]) -> bool:
    """Validator on exact fraction vectors, independent of `limits.enumerate_limits`.

    Re-derives alpha from the positive values present and checks every rule,
    without assuming anything the generator did.
    """
    m = len(x)
    if m < 4 or sum(x) != 1:
        return False
    positives = sorted({v for v in x if v > 0})
    if not positives or len(positives) > 2:
        return False
    if len(positives) == 2:
        if positives[1] != 2 * positives[0]:
            return False
        candidates = [positives[1]]
    else:
        candidates = [positives[0], 2 * positives[0]]

    def ok_with(alpha: Fraction) -> bool:
        half = alpha / 2
        for i in range(m):
            v = x[i]
            left, right = x[i - 1], x[(i + 1) % m]
            if v == 0:
                if left == 0 and right == 0:
                    return False
            elif v == half:
                window_ok = False
                for j in (i, i + 1):
                    win = tuple(x[(j + d) % m] for d in range(-3, 3))
                    if win == (alpha, Fraction(0), half, half, Fraction(0), alpha):
                        window_ok = True
                        break
                if not window_ok:
                    return False
            elif v == alpha:
                if left != 0 or right != 0:
                    return False
            else:
                return False
        if m % 3 == 0:
            for j in range(3):
                if min(x[k] for k in range(j, m, 3)) != 0:
                    return False
        return True

    return any(ok_with(alpha) for alpha in candidates)
