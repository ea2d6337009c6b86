"""Reference oracles: literal definitions the package's fast paths are checked against.

No command runs these and nothing under `src/nqsim` imports them.  Each one
restates its definition directly, so it must stay independent of the code it
checks: it imports nothing from `nqsim.levels`, `nqsim.limits`,
`nqsim.ensemble`, `nqsim.statetable` or `nqsim.verify`, and from
`nqsim.scaling` only the `FreezeOutcome` type
(`test_imports.test_oracles_import_nothing_they_check` pins this).

  * `step`: one inverse-CDF draw from the probability vector, the oracle for
    `dynamics.run` and the engine's site draw;
  * `stat_Q`, `stat_W`, `isolated_zero_centers`, `literal_window_flags`: the
    level shapes, the oracle for `levels.level_statistics`;
  * `parity_gap` in exact rationals; `classify_freeze` from an allocation-site
    list; `is_limit_configuration` on exact fraction vectors;
  * `neighborhood` as a set of 1-based sites, and `total_variation`.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from nqsim.dynamics import AllocationRule, ChainState, _distribution, sample_site
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
