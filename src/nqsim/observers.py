"""Level-time detection, per-level statistics and renewal bookkeeping.

A level opens whenever the running minimum potential strictly increases; all
per-level statistics are computed at the opening step.  The statistics are:

  S  -- sum of reduced-potential entries that are >= 2
  Q  -- number of isolated zeros flanked by positives, cyclically
  W  -- number of cyclic windows (0, positive, positive, 0) ("doubles")

plus the zero/positive signature of the reduced potentials.  The monotone
behaviour of S (asymmetric) and of Q and W (symmetric), the persistence of
(positive, 0, positive) triples and the eventual exclusion of certain windows
are tracked as violation logs that the verification suites turn into
pass/fail verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .ensemble import FLAG_NAMES
from .ring import Neighborhood

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import TrajectoryRecord
    from .limits import LimitConfiguration


def stat_S(v: Sequence[int]) -> int:
    """Sum of entries >= 2 (entries 0 or 1 contribute nothing)."""
    return sum(x for x in v if x >= 2)


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


def pattern(v: Sequence[int]) -> tuple[int, ...]:
    """Zero/positive signature of v: 0 stays 0, anything positive becomes 1."""
    return tuple(1 if x > 0 else 0 for x in v)


def pattern_str(signature: Sequence[int]) -> str:
    return "".join("*" if s else "0" for s in signature)


# Excluded windows as byte strings of zero/positive marks, read from a site onward.
_FLAG_WINDOWS = {
    "three_positives": bytes((1, 1, 1)),
    "three_zeros": bytes((0, 0, 0)),
    "pair_into_zeros": bytes((1, 1, 0, 0)),
    "lone_positive_in_zeros": bytes((0, 0, 1, 0, 0)),
}


def _window_flags(sig: Sequence[int]) -> dict[str, bool]:
    """Which excluded windows occur anywhere in the 0/1 signature, cyclically."""
    # Every window starts at a site k < M and ends by k + 4, so the signature
    # repeated up to M + 4 marks holds each cyclic window as a substring.
    marks = bytes(sig)
    ring = (marks * 3)[: len(marks) + 4]
    return {name: window in ring for name, window in _FLAG_WINDOWS.items()}


def isolated_zero_centers(sig: Sequence[int]) -> frozenset[int]:
    """0-based centers k with signature (positive, zero, positive) around k."""
    m = len(sig)
    return frozenset(
        k for k in range(m) if sig[k] == 0 and sig[k - 1] == 1 and sig[(k + 1) % m] == 1
    )


@dataclass(frozen=True)
class LevelRecord:
    index: int
    t: int
    m: int
    v: tuple[int, ...]
    S: int
    Q: int
    W: int
    signature: tuple[int, ...]
    flags: dict


class LevelLog:
    """Per-chain level log with monotonicity and persistence monitors.

    This is the reference oracle for the engine's level tracking: the tests
    pin `ensemble.run_ensemble`'s counts, violations and signature runs to it
    replica by replica.  It stays in the package for `nqsim simulate` and for
    the benchmark's per-layer probes.
    """

    def __init__(self, kind: Neighborhood):
        self.kind = kind
        self.levels: list[LevelRecord] = []
        self._last_t: int | None = None
        self._last_m: int | None = None
        # violation logs: (level index, previous value, new value)
        self.s_increase_violations: list[tuple[int, int, int]] = []
        self.q_decrease_violations: list[tuple[int, int, int]] = []
        self.w_increase_violations: list[tuple[int, int, int]] = []
        self.persistence_violations: list[tuple[int, int]] = []  # (level index, center)
        self._required_centers: frozenset[int] = frozenset()
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
        level = LevelRecord(
            index=len(self.levels),
            t=record.t,
            m=record.m,
            v=v,
            S=stat_S(v),
            Q=stat_Q(v),
            W=stat_W(v),
            signature=sig,
            flags=_window_flags(sig),
        )
        if self.levels:
            prev = self.levels[-1]
            if level.S > prev.S:
                self.s_increase_violations.append((level.index, prev.S, level.S))
            if level.Q < prev.Q:
                self.q_decrease_violations.append((level.index, prev.Q, level.Q))
            if level.W > prev.W:
                self.w_increase_violations.append((level.index, prev.W, level.W))
        centers = isolated_zero_centers(sig)
        for lost in self._required_centers - centers:
            self.persistence_violations.append((level.index, lost + 1))
        self._required_centers = self._required_centers | centers
        if sig == self.current_signature:
            self.run_length += 1
        else:
            self.current_signature = sig
            self.run_length = 1
            self.run_started_level = level.index
        self.levels.append(level)

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def flag_counts(self, start_level: int = 0) -> dict[str, int]:
        counts = dict.fromkeys(FLAG_NAMES, 0)
        for level in self.levels[start_level:]:
            for name in counts:
                if level.flags[name]:
                    counts[name] += 1
        return counts

    def report(self) -> dict:
        half = self.level_count // 2
        return {
            "levels": self.level_count,
            "level_times_head": [lv.t for lv in self.levels[:10]],
            "s_increase_violations": len(self.s_increase_violations),
            "q_decrease_violations": len(self.q_decrease_violations),
            "w_increase_violations": len(self.w_increase_violations),
            "persistence_violations": len(self.persistence_violations),
            "final_half_flag_counts": self.flag_counts(half),
            "stable_run_length": self.run_length,
            "stable_signature": pattern_str(self.current_signature)
            if self.current_signature is not None
            else None,
        }


def parity_gap(xi: Sequence[int]) -> Fraction:
    """H = (sum over even sites - sum over odd sites) / M, sites 1-based; even M only."""
    m = len(xi)
    if m % 2 != 0:
        raise ValueError(f"parity gap is defined for even M only, got M={m}")
    return Fraction(sum(xi[1::2]) - sum(xi[0::2]), m)


class ParityGapSeries:
    """Tracks H(t), renewal times (reduced potential identically zero) and the
    H increments between consecutive renewals.  Asymmetric even-M chains only.

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
        self.renewal_times: list[int] = []
        self.increments: list[Fraction] = []
        self._d_at_last_renewal: int | None = None

    def on_step(self, record: "TrajectoryRecord") -> None:
        # H times M as an integer; the Fraction is built only where it is kept.
        xi = record.xi
        d = sum(xi[1::2]) - sum(xi[0::2])
        if record.t in self.sample_times:
            self.samples[record.t] = Fraction(d, self.m)
        if not any(record.v):
            if self._d_at_last_renewal is not None:
                self.increments.append(Fraction(d - self._d_at_last_renewal, self.m))
            self.renewal_times.append(record.t)
            self._d_at_last_renewal = d

    def report(self) -> dict:
        nonzero = [z for z in self.increments if z != 0]
        return {
            "renewals": len(self.renewal_times),
            "increments": len(self.increments),
            "increment_positive": sum(1 for z in nonzero if z > 0),
            "increment_negative": sum(1 for z in nonzero if z < 0),
        }


class RenewalCounter:
    """Counts visits to the all-zero reduced potential (any M)."""

    def __init__(self):
        self.times: list[int] = []

    def on_step(self, record: "TrajectoryRecord") -> None:
        if not any(record.v):
            self.times.append(record.t)

    def report(self) -> dict:
        return {"renewals": len(self.times)}


@dataclass(frozen=True)
class ConvergenceVerdict:
    mode: str  # "symmetric", "flat" (asym odd M) or "comb" (asym even M)
    stable: bool
    stable_signature: tuple[int, ...] | None
    stability_started_level: int | None
    empirical: tuple[float, ...]
    matched: "LimitConfiguration | None"
    matched_distance: float | None


def match_limit(
    empirical: Sequence[float],
    limits: Sequence["LimitConfiguration"],
    tolerance: float = 0.02,
) -> tuple["LimitConfiguration | None", float | None]:
    """Closest enumerated configuration in L-infinity, if within tolerance."""
    best = None
    best_dist = None
    for config in limits:
        dist = max(abs(e - x) for e, x in zip(empirical, config.x_float))
        if best_dist is None or dist < best_dist:
            best, best_dist = config, dist
    if best is not None and best_dist is not None and best_dist <= tolerance:
        return best, best_dist
    return None, best_dist


def detect_convergence(
    log: LevelLog,
    xi: Sequence[int],
    t: int,
    limits: Sequence["LimitConfiguration"] | None = None,
    stability_window: int = 25,
    match_tolerance: float = 0.02,
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
    matched, dist = match_limit(empirical, limits, match_tolerance)
    return ConvergenceVerdict(
        mode="symmetric",
        stable=True,
        stable_signature=log.current_signature,
        stability_started_level=log.run_started_level,
        empirical=empirical,
        matched=matched,
        matched_distance=dist,
    )
