"""State-table engine for the min rule's reduced chain v = u - min u.

Under the min rule the next state of v depends on v and the draw alone, so v
is a Markov chain of its own (Kemeny & Snell, *Finite Markov Chains*, ch. 3).
Under the asymmetric window its reachable set is finite: 9, 70, 473 and 3111
states from empty at M = 4, 6, 8 and 10.  `min_rule_states` finds that set,
`state_table` turns it into a transition table, and `walk` steps an
ensemble through one slice of draws on it (see the "State table" paragraph
of `ensemble`, which imports this module only for requests that can take
this path).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ring import Neighborhood

# Bytes per table entry: next base (8), cut (8), site (2), renewal flag (1).
TABLE_ENTRY_BYTES = 19


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


def state_table(states: tuple, successors: tuple, rank: np.ndarray, cut: np.ndarray) -> StateTable:
    """The table of `min_rule_states`' chain, given the engine's grid cuts (`ensemble._cell_cuts`).

    rank[n, g, side] is the tie-set rank a draw in cell g takes below (0) or at
    or above (1) the cell's cut cut[n, g].
    """
    m = len(cut) - 1
    grid = cut.shape[1]
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


def walk(tab: StateTable, base: np.ndarray, draws: np.ndarray, renewals: bool) -> tuple:
    """Step every replica through one slice of draws (R, steps).

    base (R,) is each replica's state's first entry, updated in place.  Returns
    the 0-based sites (steps, R), row j for the slice's step j, and, if
    `renewals`, whether each step ends on v == 0 (steps, R), else None.
    """
    U = np.ascontiguousarray(draws.T)
    # 2 * floor(U * grid), the offset of U's cell in a state's entries; float64
    # converts to int32 several times faster than to int64
    entry = (U * tab.stride).astype(np.int32)
    entry &= -2
    entry = entry.astype(np.intp)
    for e, u_j in zip(entry, U):  # each row becomes the entry its step takes
        e += base
        e += u_j >= tab.cut.take(e)
        tab.next.take(e, out=base, mode="clip")  # e is in range; "raise" would buffer
    return tab.site.take(entry), tab.renew.take(entry) if renewals else None
