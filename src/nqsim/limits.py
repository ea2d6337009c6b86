"""Enumeration of the stable limiting fraction vectors on the ring.

A limiting configuration assigns each site a fraction from {0, alpha/2, alpha}
summing to 1, subject to the local rules of the symmetric dynamics: full-value
sites are isolated by zeros, half-value sites come in adjacent pairs embedded
in the exact window (full, 0, half, half, 0, full), zeros never run three in a
row, and when 3 | M each residue class mod 3 must contain a zero.  A
configuration is reachable from the empty start iff every zero has both
neighbours positive.

`enumerate_limits` generates the set by a pruned depth-first search over
symbol strings; `brute_force_oracle` re-derives it by literally filtering all
3^M strings and exists purely as an independent check for tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

ZERO, HALF, FULL = 0, 1, 2


@dataclass(frozen=True)
class LimitConfiguration:
    x: tuple[Fraction, ...]
    alpha: Fraction
    achievable_from_empty: bool
    symbols: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.x)

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


def _cyclic_ok(s: Sequence[int], m: int) -> bool:
    # Structural check used by the generator (run/pair form of the rules).
    if not any(s):
        return False
    for i in range(m):
        left, right = s[i - 1], s[(i + 1) % m]
        if s[i] == FULL:
            if left != ZERO or right != ZERO:
                return False
        elif s[i] == HALF:
            if (left == HALF) == (right == HALF):
                return False  # halves pair with exactly one half neighbour
            if right == HALF:
                if left != ZERO or s[i - 2] != FULL:
                    return False
            else:
                if right != ZERO or s[(i + 2) % m] != FULL:
                    return False
        else:
            if left == ZERO and right == ZERO:
                return False
    if m % 3 == 0:
        for j in range(3):
            if not any(s[k] == ZERO for k in range(j, m, 3)):
                return False
    return True


def _prefix_ok(s: list[int], k: int) -> bool:
    # Sound prunes on the decided prefix s[0..k]; wraparound is left to the
    # final check.
    if k >= 1:
        a, b = s[k - 1], s[k]
        if a == FULL and b == FULL:
            return False
        if (a == FULL and b == HALF) or (a == HALF and b == FULL):
            return False
        if b == HALF and a == HALF and k >= 2 and s[k - 2] != ZERO:
            return False
        if b == HALF and a == HALF and k >= 3 and s[k - 3] != FULL:
            return False
    if k >= 2:
        if s[k - 2] == ZERO and s[k - 1] == ZERO and s[k] == ZERO:
            return False
        if s[k - 2] != ZERO and s[k - 1] != ZERO and s[k] != ZERO:
            return False
        if s[k - 1] == HALF and s[k] != HALF and s[k - 2] != HALF:
            return False  # interior half with no half neighbour
    if k >= 3 and s[k - 3] == HALF and s[k - 2] == HALF:
        # pair fully interior: right flank must be (0, full)
        if s[k - 1] != ZERO or s[k] != FULL:
            return False
    return True


def enumerate_limits(m: int) -> tuple[LimitConfiguration, ...]:
    """All limiting configurations on m sites, as anchored sequences.

    Deterministic lexicographic order over symbols (zero < half < full).
    """
    if m < 4:
        raise ValueError(f"limit enumeration needs M >= 4, got {m}")
    found: list[LimitConfiguration] = []
    s = [ZERO] * m

    def rec(k: int) -> None:
        if k == m:
            if _cyclic_ok(s, m):
                found.append(_config_from_symbols(s))
            return
        for sym in (ZERO, HALF, FULL):
            s[k] = sym
            if _prefix_ok(s, k):
                rec(k + 1)

    rec(0)
    return tuple(found)


def is_limit_configuration(x: Sequence[Fraction]) -> bool:
    """Independent validator on exact fraction vectors (used by tests).

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


_ORACLE_BLOCK = 3**8  # symbol strings decoded per block; bounds the oracle's memory


def brute_force_oracle(m: int) -> tuple[LimitConfiguration, ...]:
    """Second, independently coded filter over all 3^M symbol strings.

    Strings are decoded in fixed blocks, in the lexicographic order of
    itertools.product, and each local rule is applied literally as an array
    mask over the block.  Test-only oracle; the budget caps M at 16.
    """
    if m < 4:
        raise ValueError(f"limit enumeration needs M >= 4, got {m}")
    if m > 16:
        raise ValueError(f"3^M budget exceeded for M={m}")

    def shift(a: np.ndarray, d: int) -> np.ndarray:  # column i holds symbol i + d, cyclically
        return np.roll(a, -d, axis=1)

    found = []
    for start in range(0, 3**m, _ORACLE_BLOCK):
        codes = np.arange(start, min(start + _ORACLE_BLOCK, 3**m), dtype=np.int64)
        s = np.empty((len(codes), m), dtype=np.int8)
        for k in range(m - 1, -1, -1):  # first symbol most significant
            codes, s[:, k] = np.divmod(codes, 3)
        left, right = shift(s, -1), shift(s, 1)
        valid = (s != ZERO).any(axis=1)  # no alpha > 0 can give the zero string sum 1
        valid &= ~((s == ZERO) & (left == ZERO) & (right == ZERO)).any(axis=1)
        valid &= ~((s == FULL) & ((left != ZERO) | (right != ZERO))).any(axis=1)
        # window (full, 0, half, half, 0, full) over symbols j-3 .. j+2
        window = np.ones(s.shape, dtype=bool)
        for d, want in zip(range(-3, 3), (FULL, ZERO, HALF, HALF, ZERO, FULL)):
            window &= shift(s, d) == want
        valid &= ~((s == HALF) & ~(window | shift(window, 1))).any(axis=1)
        if m % 3 == 0:
            for j in range(3):
                valid &= (s[:, j::3] == ZERO).any(axis=1)
        found.extend(_config_from_symbols(tuple(row)) for row in s[valid].tolist())
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
