"""State-table engine for the min rule's reduced chain v = u - min u.

Under the min rule the next state of v depends on v and the draw alone, so v
is a Markov chain of its own (Kemeny & Snell, *Finite Markov Chains*, ch. 3).
Under the asymmetric window its reachable set is finite: 9, 70, 473 and 3111
states from empty at M = 4, 6, 8 and 10.  `min_rule_states` finds that set,
`state_table` turns it into a transition table, and `advance` steps an
ensemble on it (see the "State table" paragraph of `ensemble`, which imports
this module only for requests that can take this path).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ring import Neighborhood

# Bytes per table entry: next base (8), cut (8), site (2), renewal flag (1).
TABLE_ENTRY_BYTES = 19
# Lock-steps per slice: a slice's records are (slice, R) arrays, 256 KiB each
# at R = 1000.
SLICE_STEPS = 32
# Bytes per slice cell (uniforms, entries, sites, parity gaps, renewal flags
# and temporaries).
SLICE_CELL_BYTES = 64


@lru_cache(maxsize=4)
def min_rule_states(
    v0: tuple[int, ...], kind: Neighborhood, limit: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] | None:
    """The reduced potentials v = u - min u reachable from v0 under the min rule.

    Breadth-first search.  Returns the states in discovery order, v0 first,
    and for each state the index of the next state when each member of its
    min tie set, in site order, receives the particle.  Returns None as soon
    as a state beyond `limit` is found.  Results are cached: a run of
    requests at one ring size searches once, also where the search gives up.
    """
    m, offsets = len(v0), kind.offsets
    index = {v0: 0}
    states, successors = [v0], []
    for v in states:  # the list grows while it is read: breadth first
        row = []
        for k, x in enumerate(v):
            if x:
                continue
            w = list(v)
            for d in offsets:
                w[(k - d) % m] += 1
            if 0 not in w:  # every minimiser was raised, each by 1
                w = [y - 1 for y in w]
            w = tuple(w)
            j = index.get(w)
            if j is None:
                if len(states) >= limit:
                    return None
                j = index[w] = len(states)
                states.append(w)
            row.append(j)
        successors.append(tuple(row))
    return tuple(states), tuple(successors)


def table_grid(m: int) -> int:
    """Grid cells per unit interval: the smallest power of two above M."""
    return 1 << m.bit_length()


@dataclass(frozen=True)
class StateTable:
    """Min-rule transitions, one entry e = state * stride + 2g + side each.

    A draw U lies in grid cell g = floor(U * grid), and takes side 1 when
    U >= cut[state * stride + 2g] (2.0 where no breakpoint of the state's tie
    set lies in the cell), side 0 otherwise.
    """

    stride: int  # entries per state: 2 * grid
    next: np.ndarray  # (entries,) intp: the next state's first entry
    cut: np.ndarray  # (entries,) float64, read at even entries
    site: np.ndarray  # (entries,) int16: the 0-based site that receives the particle
    renew: np.ndarray  # (entries,) bool: the next state is v == 0


def state_table(states: tuple, successors: tuple, thr: np.ndarray) -> StateTable:
    """The table of `min_rule_states`' chain, given the engine's thresholds THR (M+1, M+1)."""
    m = len(thr) - 1
    grid = table_grid(m)
    # rank[n, g, side]: the tie-set rank a draw in cell g takes, below (0) or at
    # or above (1) the cell's cut.  The n - 1 breakpoints THR[n, 1..n-1] lie
    # about 1/n apart, so a cell narrower than 1/M holds at most one of them.
    cell_low = np.arange(grid) / grid
    rank = np.zeros((m + 1, grid, 2), dtype=np.intp)
    cut = np.full((m + 1, grid), 2.0)
    for n in range(2, m + 1):
        breaks = thr[n, 1:n]
        cells = (breaks * grid).astype(np.intp)
        assert (np.diff(cells) > 0).all()
        cut[n, cells] = breaks
        rank[n, :, 0] = np.searchsorted(breaks, cell_low)
        rank[n, :, 1] = rank[n, :, 0] + (cut[n] < 2.0)
    v = np.array(states)
    n = (v == 0).sum(axis=1)
    members = np.argsort(v != 0, axis=1, kind="stable")  # tie-set sites first, in site order
    succ = np.array([row + (0,) * (m - len(row)) for row in successors], dtype=np.intp)
    r = rank[n]  # (states, grid, 2)
    state = np.arange(len(states))[:, None, None]
    nxt = succ[state, r]
    zero = (0,) * m
    renew = nxt == (states.index(zero) if zero in states else -1)
    cuts = np.stack([cut[n], np.full((len(states), grid), 2.0)], axis=-1)
    return StateTable(
        2 * grid,
        (nxt * 2 * grid).ravel(),
        cuts.ravel(),
        members[state, r].astype(np.int16).ravel(),
        renew.ravel(),
    )


def advance(tab: StateTable, base, unif, t0: int, xi, D, parity_sign, res, renewals) -> None:
    """Advance every replica through steps t0 + 1 .. t0 + unif.shape[1], a slice at a time.

    unif (R, steps) holds the draws.  base (R,) is each replica's state's first
    entry; base, the site-major occupancies xi (M, R) and the parity gap D (R,)
    are updated in place.  The result `res` receives the site record and the
    checkpoints its request asks for; `renewals(hit, d)`, if given, receives
    each slice's renewals with the parity gap after each step, (slice, R) each.
    """
    for j in range(0, unif.shape[1], SLICE_STEPS):
        # a call per slice, so that a slice's arrays are freed before the next one's
        _slice(tab, base, unif[:, j : j + SLICE_STEPS], t0 + j, xi, D, parity_sign, res, renewals)


def _slice(tab, base, unif, t, xi, D, parity_sign, res, renewals) -> None:
    m, R = xi.shape
    steps = unif.shape[1]
    U = np.ascontiguousarray(unif.T)  # (steps, R): row j is step t + j + 1
    # 2 * floor(U * grid), the offset of U's cell in a state's entries; float64
    # converts to int32 several times faster than to int64
    entry = (U * tab.stride).astype(np.int32)
    entry &= -2
    entry = entry.astype(np.intp)
    for e, u_j in zip(entry, U):  # each row becomes the entry its step takes
        e += base
        e += u_j >= tab.cut.take(e)
        tab.next.take(e, out=base, mode="clip")  # e is in range; "raise" would buffer
    sites = tab.site.take(entry)
    cell = np.multiply(sites, R, dtype=np.intp)  # site-major cell of xi
    cell += np.arange(R)
    xi += np.bincount(cell.ravel(), minlength=m * R).reshape(m, R)
    if res.sites is not None:
        res.sites[:, t : t + steps] = sites.T + 1
    if renewals is not None or max(res.h_checkpoints, default=0) > t:
        d = parity_sign.take(sites)
        d[0] += D
        for j in range(1, steps):  # row by row: numpy's cumsum is slower here
            d[j] += d[j - 1]
        # d[j]: the parity gap after step t + j + 1
        for tc in res.h_checkpoints:
            if t < tc <= t + steps:
                res.h_checkpoints[tc] = d[tc - t - 1] / m
        if renewals is not None:
            renewals(tab.renew.take(entry), d)
        D[:] = d[-1]
