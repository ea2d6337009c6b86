"""Level-time detection, per-level statistics and renewal bookkeeping.

A level opens whenever the running minimum potential strictly increases; all
per-level statistics are computed at the opening step.  The statistics are:

  S  -- sum of reduced-potential entries that are >= 2
  Q  -- number of isolated zeros flanked by positives, cyclically
  W  -- number of cyclic windows (0, positive, positive, 0) ("doubles")

plus the zero/positive signature of the reduced potentials.  The monotone
behaviour of S (asymmetric) and of Q and W (symmetric), the persistence of
(positive, 0, positive) triples and the eventual exclusion of certain windows
are tracked as violation counts and one flag byte per level.  Q, W, the
window flags and the isolated zeros read only the signature, and come from
the engine's definition, `levels.level_statistics`.  Each observer keeps only
what its report reads, so a long chain without a trajectory runs in constant
memory.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .levels import FLAG_NAMES, level_statistics
from .ring import Neighborhood

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import TrajectoryRecord
    from .limits import LimitConfiguration

# Convergence defaults: agreeing level signatures that make a chain stable, and
# the L-infinity distance within which its fractions match a limit.
STABILITY_WINDOW = 25
MATCH_TOLERANCE = 0.02


def stat_S(v: Sequence[int]) -> int:
    """Sum of entries >= 2 (entries 0 or 1 contribute nothing)."""
    return sum([x for x in v if x >= 2])


def pattern(v: Sequence[int]) -> tuple[int, ...]:
    """Zero/positive signature of v: 0 stays 0, anything positive becomes 1."""
    return tuple([1 if x > 0 else 0 for x in v])


def pattern_str(signature: Sequence[int]) -> str:
    return "".join("*" if s else "0" for s in signature)


# A signature goes to `level_statistics` as one column of potentials over a
# minimum of 0; this is that minimum, and the column order.
_ZERO = np.zeros(1, dtype=np.intp)


def _shape(sig: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(Q, W, flag byte, isolated-zero centres) of a signature, by `level_statistics`.

    The centres are an int bitmask: bit k marks a centre at 0-based site k.
    """
    col = np.array(sig, dtype=np.int64)[:, None]
    _, stats, centers, flag_bits = level_statistics(col, _ZERO, col.sum(axis=0), True, _ZERO)
    # row k of centers marks a centre at site k + 1
    mask = np.packbits(np.roll(centers[:, 0], 1), bitorder="little").tobytes()
    return int(stats[1, 0]), int(stats[2, 0]), int(flag_bits[0]), int.from_bytes(mask, "little")


class LevelLog:
    """Per-chain level log with monotonicity and persistence monitors.

    It keeps only what `report()` and `detect_convergence` read: counts, the
    first ten level times, the previous level's (S, Q, W), the required
    isolated-zero centres, the current signature run and one flag byte per
    level (bit i marks `FLAG_NAMES[i]`), since the final half starts at a
    level known only at the end.  A lost centre counts once per level that
    lacks it.

    Each new signature's shape is read from `levels.level_statistics`, the
    definition the engine uses, and memoised; the tests check that definition
    against the literal ones in tests/oracles.py on every signature up to
    M = 14.  LevelLog resolves levels one at a time, and the tests pin the
    engine's block-wise counts, violations and signature runs to it replica
    by replica.
    """

    def __init__(self, kind: Neighborhood):
        self.kind = kind
        self.level_count = 0
        self._times_head: list[int] = []
        self._last_t: int | None = None
        self._last_m: int | None = None
        self._prev_stats: tuple[int, int, int] | None = None
        self.s_increase_violations = 0
        self.q_decrease_violations = 0
        self.w_increase_violations = 0
        self.persistence_violations = 0
        self._required_centers = 0  # bitmask, as `_shape` gives the centres
        self._flags = bytearray()
        # signature -> `_shape(signature)`, filled as signatures appear
        self._shapes: dict[tuple[int, ...], tuple[int, int, int, int]] = {}
        # signature run tracking for convergence detection
        self.current_signature: tuple[int, ...] | None = None
        self.run_length = 0
        self.run_started_level = 0

    def on_step(self, record: "TrajectoryRecord") -> None:
        if self._last_t is not None and record.t != self._last_t + 1:
            raise ValueError(f"out-of-order record: t={record.t} after t={self._last_t}")
        opens = self._last_t is None or record.m > self._last_m
        self._last_t = record.t
        self._last_m = record.m
        if opens:
            self._open_level(record)

    def _open_level(self, record: "TrajectoryRecord") -> None:
        v = record.v
        sig = pattern(v)
        shape = self._shapes.get(sig)
        if shape is None:
            shape = self._shapes[sig] = _shape(sig)
        q, w, flag_byte, centers = shape
        s = stat_S(v)
        if self._prev_stats is not None:
            prev_s, prev_q, prev_w = self._prev_stats
            self.s_increase_violations += s > prev_s
            self.q_decrease_violations += q < prev_q
            self.w_increase_violations += w > prev_w
        self._prev_stats = (s, q, w)
        required = self._required_centers
        self.persistence_violations += (required & ~centers).bit_count()
        self._required_centers = required | centers
        if sig == self.current_signature:
            self.run_length += 1
        else:
            self.current_signature = sig
            self.run_length = 1
            self.run_started_level = self.level_count
        if self.level_count < 10:
            self._times_head.append(record.t)
        self._flags.append(flag_byte)
        self.level_count += 1

    def flag_counts(self, start_level: int = 0) -> dict[str, int]:
        """Levels from `start_level` on that carry each excluded window."""
        tail = self._flags[start_level:]
        codes = range(1 << len(FLAG_NAMES))
        return {
            name: sum(tail.count(b) for b in codes if b >> i & 1)
            for i, name in enumerate(FLAG_NAMES)
        }

    def report(self) -> dict:
        return {
            "levels": self.level_count,
            "level_times_head": list(self._times_head),
            "s_increase_violations": self.s_increase_violations,
            "q_decrease_violations": self.q_decrease_violations,
            "w_increase_violations": self.w_increase_violations,
            "persistence_violations": self.persistence_violations,
            "final_half_flag_counts": self.flag_counts(self.level_count // 2),
            "stable_run_length": self.run_length,
            "stable_signature": pattern_str(self.current_signature)
            if self.current_signature is not None
            else None,
        }


class ParityGapSeries:
    """Tracks H(t) at the sample times, the renewal count (reduced potential
    identically zero) and the H increments between consecutive renewals, as a
    `Counter` of exact values.  Asymmetric even-M chains only.

    This is the reference oracle for the engine's renewal and checkpoint
    tracking, in exact rationals.  It stays in the package for
    `nqsim simulate` and for the benchmark's per-layer probes.
    """

    def __init__(self, m: int, sample_times: Sequence[int] = ()):
        if m % 2 != 0:
            raise ValueError(f"parity gap series needs even M, got {m}")
        self.m = m
        self.sample_times = frozenset(sample_times)
        self.samples: dict[int, Fraction] = {}
        self.renewals = 0
        self.increments: Counter[Fraction] = Counter()
        self._d_at_last_renewal: int | None = None

    def on_step(self, record: "TrajectoryRecord") -> None:
        renewal = not any(record.v)
        sampled = record.t in self.sample_times
        if not (renewal or sampled):
            return
        # H times M as an integer; the Fraction is built only where it is kept.
        xi = record.xi
        d = sum(xi[1::2]) - sum(xi[0::2])
        if sampled:
            self.samples[record.t] = Fraction(d, self.m)
        if renewal:
            if self._d_at_last_renewal is not None:
                self.increments[Fraction(d - self._d_at_last_renewal, self.m)] += 1
            self.renewals += 1
            self._d_at_last_renewal = d

    def report(self) -> dict:
        return {
            "renewals": self.renewals,
            "increments": self.increments.total(),
            "increment_positive": sum(n for z, n in self.increments.items() if z > 0),
            "increment_negative": sum(n for z, n in self.increments.items() if z < 0),
        }


class RenewalCounter:
    """Counts visits to the all-zero reduced potential (any M)."""

    def __init__(self):
        self.renewals = 0

    def on_step(self, record: "TrajectoryRecord") -> None:
        if not any(record.v):
            self.renewals += 1

    def report(self) -> dict:
        return {"renewals": self.renewals}


@dataclass(frozen=True)
class ConvergenceVerdict:
    mode: str  # "symmetric", "flat" (asym odd M) or "comb" (asym even M)
    stable: bool
    stable_signature: tuple[int, ...] | None
    stability_started_level: int | None
    empirical: tuple[float, ...]
    matched: "LimitConfiguration | None"
    matched_distance: float | None


def limit_floats(limits: Sequence["LimitConfiguration"]) -> np.ndarray:
    """The limits' fractions as one (L, M) float array, for `nearest_limit`."""
    return np.array([config.x_float for config in limits], dtype=np.float64)


def nearest_limit(
    empirical: Sequence[float], x: np.ndarray, tolerance: float = MATCH_TOLERANCE
) -> tuple[int | None, float | None]:
    """Row of x (from `limit_floats`) closest to empirical in L-infinity, and its distance.

    The row is the first minimiser, and None if it lies beyond tolerance (or x
    has no rows).  The distances are the float differences a scan over the
    configurations takes, so each match and distance is the scan's.
    """
    if not len(x):
        return None, None
    dist = np.abs(np.asarray(empirical, dtype=np.float64) - x).max(axis=1)
    best = int(dist.argmin())
    return (best if dist[best] <= tolerance else None), float(dist[best])


def match_limit(
    empirical: Sequence[float],
    limits: Sequence["LimitConfiguration"],
    tolerance: float = MATCH_TOLERANCE,
) -> tuple["LimitConfiguration | None", float | None]:
    """Closest enumerated configuration in L-infinity, if within tolerance."""
    best, dist = nearest_limit(empirical, limit_floats(limits), tolerance)
    return (None if best is None else limits[best]), dist


def detect_convergence(
    log: LevelLog,
    xi: Sequence[int],
    t: int,
    limits: Sequence["LimitConfiguration"] | None = None,
    stability_window: int = STABILITY_WINDOW,
) -> ConvergenceVerdict | None:
    """Convergence verdict, or None while the signature is still unstable.

    Symmetric chains are matched against the enumerated limit set once the
    last `stability_window` level signatures agree.  Asymmetric chains are
    never matched; they report the flat (odd M) / comb (even M) regime.
    """
    empirical = tuple(x / t if t > 0 else 0.0 for x in xi)
    stable = log.run_length >= stability_window
    if log.kind is Neighborhood.ASYMMETRIC:
        return ConvergenceVerdict(
            mode="flat" if len(xi) % 2 == 1 else "comb",
            stable=stable,
            stable_signature=log.current_signature if stable else None,
            stability_started_level=log.run_started_level if stable else None,
            empirical=empirical,
            matched=None,
            matched_distance=None,
        )
    if not stable:
        return None
    if limits is None:
        raise ValueError("symmetric convergence matching needs the enumerated limit set")
    matched, dist = match_limit(empirical, limits)
    return ConvergenceVerdict(
        mode="symmetric",
        stable=True,
        stable_signature=log.current_signature,
        stability_started_level=log.run_started_level,
        empirical=empirical,
        matched=matched,
        matched_distance=dist,
    )
