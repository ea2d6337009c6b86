"""Reachable states of the min rule's reduced chain v = u - min u.

Under the min rule the next state of v depends on v and the draw alone, so v
is a Markov chain of its own (Kemeny & Snell, *Finite Markov Chains*, ch. 3).
Under the asymmetric window its reachable set is finite: 9, 70, 473 and 3111
states from empty at M = 4, 6, 8 and 10.  `min_rule_states` finds that set;
`ensemble` turns it into a table of the same kind as its tie-set codes (see
its "Tables" paragraph), and imports this module only for the requests that
can walk it.
"""
from __future__ import annotations

from functools import lru_cache

from .ring import Neighborhood


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
