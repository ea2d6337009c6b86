"""Enumeration of the stable limiting fraction vectors on the ring.

A limiting configuration assigns each site a fraction from {0, alpha/2, alpha}
summing to 1, subject to the local rules of the symmetric dynamics: full-value
sites are isolated by zeros, half-value sites come in adjacent pairs embedded
in the exact window (full, 0, half, half, 0, full), zeros never run three in a
row, and when 3 | M each residue class mod 3 must contain a zero.  A
configuration is reachable from the empty start iff every zero has both
neighbours positive.

Every rule but the mod-3 one reads at most two sites on each side, so one
table, `_SITE_OK` over the 3^5 windows (a, b, c, d, e) centred on c, holds
them all; the set is a cyclic subshift of finite type.  `enumerate_limits`
generates it by a depth-first search over symbol strings that checks each
window once it is placed, up to M = MAX_ENUMERATE_M.  `brute_force_oracle`
re-derives it by literally filtering all 3^M strings, site-major in blocks
of 3^ORACLE_TAIL strings that share their first symbols, without the window
table: an independent check for the tests, and the work of the benchmark's
chain-exact oracle jobs.  The validator on exact fraction vectors,
`is_limit_configuration`, is in tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

import numpy as np

ZERO, HALF, FULL = 0, 1, 2

# Largest ring `enumerate_limits` lists.  The set doubles about every two sites:
# 382 106 limits at M = 36, listed in 10.9 s and 394 MiB peak RSS on a 2-CPU
# Xeon (M = 34: 6.2 s, 204 MiB), so M = 40 would pass 1.5 GiB.
MAX_ENUMERATE_M = 36


@dataclass(frozen=True)
class LimitConfiguration:
    x: tuple[Fraction, ...]
    alpha: Fraction
    achievable_from_empty: bool
    symbols: tuple[int, ...]

    @cached_property
    def x_float(self) -> tuple[float, ...]:
        """x as floats, converted once (float of a Fraction is correctly rounded)."""
        return tuple(float(v) for v in self.x)

    @property
    def label(self) -> str:
        return "(" + ",".join(str(v) for v in self.x) + ")"


@dataclass(frozen=True)
class RotationClass:
    representative: LimitConfiguration
    orbit_size: int


def _config_from_symbols(symbols: Sequence[int]) -> LimitConfiguration:
    n_full = sum(1 for s in symbols if s == FULL)
    n_half = sum(1 for s in symbols if s == HALF)
    alpha = Fraction(2, 2 * n_full + n_half)
    values = {ZERO: Fraction(0), HALF: alpha / 2, FULL: alpha}
    return LimitConfiguration(
        x=tuple(values[s] for s in symbols),
        alpha=alpha,
        achievable_from_empty=tag_achievability(symbols),
        symbols=tuple(symbols),
    )


def tag_achievability(symbols: Sequence[int]) -> bool:
    """True iff every zero entry has both cyclic neighbours positive."""
    m = len(symbols)
    return all(
        not (symbols[i] == ZERO and (symbols[i - 1] == ZERO or symbols[(i + 1) % m] == ZERO))
        for i in range(m)
    )


def _site_ok(a: int, b: int, c: int, d: int, e: int) -> bool:
    """Whether site c may hold its symbol, given neighbours b, d and second neighbours a, e."""
    if c == FULL:
        return b == ZERO and d == ZERO
    if c == HALF:  # one half neighbour; the pair sits in (full, 0, half, half, 0, full)
        if d == HALF:
            return b == ZERO and a == FULL
        return b == HALF and d == ZERO and e == FULL
    return b != ZERO or d != ZERO


# _SITE_OK[w]: the rule for the 5-symbol window with base-3 code w (first symbol
# most significant).  Derived prunes on a 4-symbol code w: _OPEN_OK, some fifth
# symbol lets its third site pass; _START_OK, as the first four symbols of a
# string, some last two symbols let sites 0 and 1 pass.
_SITE_OK = tuple(_site_ok(*w) for w in product((ZERO, HALF, FULL), repeat=5))
_OPEN_OK = tuple(any(_SITE_OK[3 * w : 3 * w + 3]) for w in range(81))
_START_OK = tuple(
    any(_SITE_OK[27 * yz + w // 3] and _SITE_OK[81 * (yz % 3) + w] for yz in range(9))
    for w in range(81)
)


def _closes(s: Sequence[int], m: int) -> bool:
    """The wrap-around sites m - 2, m - 1, 0, 1 and the mod-3 rule of a full string."""
    for i in (m - 2, m - 1, 0, 1):
        w = 0
        for d in range(-2, 3):
            w = 3 * w + s[(i + d) % m]
        if not _SITE_OK[w]:
            return False
    return m % 3 != 0 or all(ZERO in s[j::3] for j in range(3))


def enumerate_limits(m: int) -> tuple[LimitConfiguration, ...]:
    """All limiting configurations on m sites, as anchored sequences.

    Deterministic lexicographic order over symbols (zero < half < full).
    Rings above MAX_ENUMERATE_M are refused before anything is built.
    """
    if m < 4:
        raise ValueError(f"limit enumeration needs M >= 4, got {m}")
    if m > MAX_ENUMERATE_M:
        raise ValueError(f"limit enumeration is supported up to M={MAX_ENUMERATE_M}, got M={m}")
    found: list[LimitConfiguration] = []
    s = [ZERO] * m

    def rec(k: int, w: int) -> None:
        # w: base-3 code of the last four placed symbols s[k - 4 .. k - 1]
        if k == m:
            if _closes(s, m):
                found.append(_config_from_symbols(s))
            return
        for sym in (ZERO, HALF, FULL):
            s[k] = sym
            w5 = 3 * w + sym
            # Site k - 2 now has its window (from k = 4; at k = 3 sites 0 and 1
            # wait for the last two symbols), and site k - 1 must stay completable.
            if k < 3 or (_SITE_OK[w5] if k > 3 else _START_OK[w5]) and _OPEN_OK[w5 % 81]:
                rec(k + 1, w5 % 81)

    rec(0, 0)
    return tuple(found)


# The oracle's block holds every string with the same first M - ORACLE_TAIL
# symbols: 3^9 strings, which bounds its memory.
ORACLE_TAIL = 9


def brute_force_oracle(m: int) -> tuple[LimitConfiguration, ...]:
    """Second, independently coded filter over all 3^M symbol strings.

    The strings are taken in blocks that fix the first M - b symbols (the
    head), with b = min(M, ORACLE_TAIL), in the lexicographic order of
    itertools.product.  A block is held site-major: row j holds symbol
    M - b + j of its 3^b strings, the same rows for every block, and a head
    symbol is a constant.  Each local rule is applied literally as a mask,
    elementwise over the rows of a site and its neighbours, and "some site"
    is an OR of rows.  An oracle for the tests and the benchmark; the budget
    caps M at 16.
    """
    if m < 4:
        raise ValueError(f"limit enumeration needs M >= 4, got {m}")
    if m > 16:
        raise ValueError(f"3^M budget exceeded for M={m}")
    b = min(m, ORACLE_TAIL)
    symbols = np.arange(3, dtype=np.int8)
    tail = np.array([np.tile(np.repeat(symbols, 3 ** (b - 1 - j)), 3**j) for j in range(b)])
    tail_is = [(row == ZERO, row == HALF, row == FULL) for row in tail]
    constant = (np.zeros(3**b, dtype=bool), np.ones(3**b, dtype=bool))  # read only
    found = []
    for head in product((ZERO, HALF, FULL), repeat=m - b):
        head_is = [(constant[s == ZERO], constant[s == HALF], constant[s == FULL]) for s in head]
        zero, half, full = zip(*head_is, *tail_is)  # per site; index i - 1 wraps, i + 1 is taken mod m
        # window (full, 0, half, half, 0, full) over symbols j-3 .. j+2
        window = [
            full[j - 3] & zero[j - 2] & half[j - 1] & half[j] & zero[(j + 1) % m] & full[(j + 2) % m]
            for j in range(m)
        ]
        positive = np.zeros(3**b, dtype=bool)  # no alpha > 0 can give the zero string sum 1
        bad = np.zeros(3**b, dtype=bool)
        for i in range(m):
            left_zero, right_zero = zero[i - 1], zero[(i + 1) % m]
            positive |= ~zero[i]
            bad |= zero[i] & left_zero & right_zero
            bad |= full[i] & ~(left_zero & right_zero)
            bad |= half[i] & ~(window[i] | window[(i + 1) % m])
        valid = positive & ~bad
        if m % 3 == 0:
            for j in range(3):
                valid &= np.any(zero[j::3], axis=0)
        hits = tail[:, np.flatnonzero(valid)].T.tolist()
        found.extend(_config_from_symbols(head + tuple(row)) for row in hits)
    return tuple(found)


def _rotations(symbols: tuple[int, ...]) -> list[tuple[int, ...]]:
    m = len(symbols)
    return [symbols[r:] + symbols[:r] for r in range(m)]


def rotation_classes(configs: Iterable[LimitConfiguration]) -> tuple[RotationClass, ...]:
    """Partition into orbits under cyclic rotation.

    The representative is the member whose symbol string is lexicographically
    minimal (zero < half < full); classes are returned sorted by it.
    """
    by_symbols = {c.symbols: c for c in configs}
    seen: set[tuple[int, ...]] = set()
    classes = []
    for symbols in sorted(by_symbols):
        if symbols in seen:
            continue
        orbit = set(_rotations(symbols))
        missing = orbit - set(by_symbols)
        if missing:
            raise ValueError(f"rotation {min(missing)} of {symbols} missing from input set")
        seen |= orbit
        rep = min(orbit)
        classes.append(RotationClass(by_symbols[rep], orbit_size=len(orbit)))
    return tuple(classes)


def summary_counts(configs: Sequence[LimitConfiguration]) -> dict[str, int]:
    """The four table counts: sequences and rotation classes, total and from-empty."""
    classes = rotation_classes(configs)
    return {
        "all_total": len(configs),
        "all_from_empty": sum(1 for c in configs if c.achievable_from_empty),
        "classes_total": len(classes),
        "classes_from_empty": sum(1 for k in classes if k.representative.achievable_from_empty),
    }
