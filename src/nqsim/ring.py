"""Cyclic-lattice primitives: neighbourhoods, occupancy counts and site potentials.

Sites are numbered 1..M in all public inputs and outputs; internal arrays are
0-based.  The asymmetric neighbourhood of site i is {i, i+1}, the symmetric one
is {i-1, i, i+1}, indices wrapping around the ring.  The potential of a site is
the total occupancy inside its neighbourhood; the reduced potential is its
excess over the current minimum.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence


class Neighborhood(Enum):
    ASYMMETRIC = "asym"
    SYMMETRIC = "sym"

    @property
    def offsets(self) -> tuple[int, ...]:
        """0-based window offsets of a site's neighbourhood relative to itself."""
        return (0, 1) if self is Neighborhood.ASYMMETRIC else (-1, 0, 1)

    @property
    def window(self) -> int:
        return len(self.offsets)

    @property
    def min_sites(self) -> int:
        # Below these sizes the windows degenerate: duplicate sites for M=2,
        # and for symmetric M=3 every window covers the whole ring, so all
        # potentials stay equal forever.  Both are rejected outright.
        return 3 if self is Neighborhood.ASYMMETRIC else 4

    @classmethod
    def parse(cls, text: str) -> "Neighborhood":
        key = text.strip().lower()
        if key in ("asym", "asymmetric"):
            return cls.ASYMMETRIC
        if key in ("sym", "symmetric"):
            return cls.SYMMETRIC
        raise ValueError(f"unknown neighbourhood kind {text!r} (expected 'asym' or 'sym')")


def check_ring_size(m: int, kind: Neighborhood) -> int:
    if m < kind.min_sites:
        raise ValueError(
            f"ring size M={m} is below the minimum {kind.min_sites} for the "
            f"{kind.value} neighbourhood"
        )
    return m


def potentials(xi: Sequence, kind: Neighborhood) -> tuple:
    """Window sums u_i = sum of xi over U_i, for every site.

    Accepts any numeric entries (ints during simulation, Fractions when
    checking algebraic solutions).
    """
    m = check_ring_size(len(xi), kind)
    if kind is Neighborhood.ASYMMETRIC:
        return tuple(xi[i] + xi[(i + 1) % m] for i in range(m))
    return tuple(xi[(i - 1) % m] + xi[i] + xi[(i + 1) % m] for i in range(m))


def reduce_potential(u: Sequence) -> tuple:
    """Excess of each potential over the minimum; always has a zero entry."""
    if len(u) < 3:
        raise ValueError(f"potential vector of length {len(u)} is below the ring minimum")
    lo = min(u)
    return tuple(val - lo for val in u)


def validate_occupancy(counts: Iterable[int], kind: Neighborhood) -> tuple[int, ...]:
    xi = tuple(counts)
    check_ring_size(len(xi), kind)
    for i, c in enumerate(xi):
        if not isinstance(c, int) or c < 0:
            raise ValueError(f"occupancy at site {i + 1} must be a non-negative integer, got {c!r}")
    return xi
