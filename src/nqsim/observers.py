"""Single-chain monitors for `dynamics.run`, and convergence detection.

A level opens whenever the running minimum potential strictly increases.
`LevelLog` and `ParityGapSeries` are R = 1 front ends of the engine's
`levels.LevelTracker` and `levels.RenewalTracker`: each `on_step` keeps what
the tracker reads at a level opening or a renewal, passes it on in blocks of
at most `levels.FLUSH_LEVELS`, and `report()` reads the tracker's fields.  So
a chain's S, Q, W, persistence, signature runs, window flags and renewal
increments have the engine's one definition.  Their memory does not
grow with the chain, except for one flag byte per level that `LevelLog`
keeps: the final half starts at a level known only at the end.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .levels import FLAG_NAMES, FLUSH_LEVELS, LevelTracker, RenewalTracker
from .ring import Neighborhood

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import TrajectoryRecord
    from .limits import LimitConfiguration

# Convergence defaults: agreeing level signatures that make a chain stable, and
# the L-infinity distance within which its fractions match a limit.
STABILITY_WINDOW = 25
MATCH_TOLERANCE = 0.02


def pattern_str(signature: Sequence[int]) -> str:
    return "".join("*" if s else "0" for s in signature)


class LevelLog:
    """Per-chain level log: `levels.LevelTracker` at R = 1, with window flags.

    `on_step` keeps each level's potentials and step, and gathers them as
    replica 0's a flush block at a time.  Besides the tracker it keeps only
    the first ten level times and one flag byte per level (bit i marks
    `FLAG_NAMES[i]`), from the runs each flush returns.
    """

    def __init__(self, kind: Neighborhood):
        self.kind = kind
        self._times_head: list[int] = []
        self._last_t: int | None = None
        self._last_m: int | None = None
        self._flags = bytearray()
        self._u = array("q")  # the potentials and steps of the levels not yet gathered
        self._t = array("q")
        self._res = SimpleNamespace()
        self._tracker: LevelTracker | None = None  # made at the first record, which fixes M

    def on_step(self, record: "TrajectoryRecord") -> None:
        if self._last_t is not None and record.t != self._last_t + 1:
            raise ValueError(f"out-of-order record: t={record.t} after t={self._last_t}")
        opens = self._last_t is None or record.m > self._last_m
        self._last_t = record.t
        self._last_m = record.m
        if opens:
            if self._tracker is None:
                # S reads the potentials' sum at each level, as total0 + window * t
                window = self.kind.window
                total0 = sum(record.u) - window * record.t
                self._tracker = LevelTracker(self._res, 1, len(record.u), total0, window, True)
            if len(self._times_head) < 10:
                self._times_head.append(record.t)
            self._u.extend(record.u)
            self._t.append(record.t)
            if len(self._t) == self._tracker.block:
                self._flush()

    def _flush(self) -> None:
        """Gather the pending levels and resolve every level, keeping the flag bytes of its runs."""
        runs = None
        if n := len(self._t):
            u = np.array(self._u).reshape(n, -1).T
            runs = self._tracker.gather(np.zeros(n, dtype=np.intp), np.array(self._t), u)
            del self._u[:], self._t[:]
        if runs is None:  # the block was not full
            runs = self._tracker.flush()
        if runs is not None:
            self._flags += np.repeat(*runs).tobytes()

    def _field(self, name: str) -> int:
        """Field `name` of the tracker's result, with every level resolved."""
        if self._tracker is None:
            return 0
        self._flush()
        return int(getattr(self._res, name)[0])

    @property
    def level_count(self) -> int:
        return self._field("level_counts")

    @property
    def run_started_level(self) -> int:
        return self._field("run_started_level")

    @property
    def run_length(self) -> int:
        return self.level_count - self.run_started_level

    @property
    def current_signature(self) -> tuple[int, ...] | None:
        """The last level's zero/positive signature (1: positive)."""
        if self._tracker is None:
            return None
        self._flush()
        return self._tracker.signature(0)

    def report(self) -> dict:
        levels = self.level_count
        tail = np.frombuffer(self._flags, dtype=np.uint8)[levels // 2 :]
        signature = self.current_signature
        return {
            "levels": levels,
            "level_times_head": list(self._times_head),
            **{key: self._field(name) for key, name in (
                ("s_increase_violations", "s_violations"),
                ("q_decrease_violations", "q_violations"),
                ("w_increase_violations", "w_violations"),
                ("persistence_violations", "persistence_violations"),
            )},
            "final_half_flag_counts": {
                name: int(np.count_nonzero(tail & (1 << i))) for i, name in enumerate(FLAG_NAMES)
            },
            "stable_run_length": self.run_length,
            "stable_signature": None if signature is None else pattern_str(signature),
        }


class ParityGapSeries:
    """Per-chain renewals: `levels.RenewalTracker` at R = 1.

    A renewal is a step with the reduced potential identically zero.
    `on_step` keeps the parity gap (times M) at each renewal and passes them
    to the tracker in blocks.  `report()` gives the renewal count and the
    signs of the parity-gap increments between consecutive renewals, which
    `nqsim simulate` reports for asymmetric even M; at odd M it reports the
    count alone.
    """

    def __init__(self, m: int):
        self._res = SimpleNamespace()
        self._tracker = RenewalTracker(self._res, 1, m)
        self._gaps: list[int] = []

    def on_step(self, record: "TrajectoryRecord") -> None:
        if any(record.v):
            return
        xi = record.xi
        self._gaps.append(sum(xi[1::2]) - sum(xi[0::2]))
        if len(self._gaps) == FLUSH_LEVELS:
            self._flush()

    def _flush(self) -> None:
        if self._gaps:
            d = np.array(self._gaps, dtype=np.int64)[:, None]
            self._tracker.gather(np.ones(d.shape, dtype=bool), d)
            self._gaps.clear()

    def report(self) -> dict:
        self._flush()
        self._tracker.finish()
        res = self._res
        return {
            "renewals": int(res.renewal_counts[0]),
            "increments": res.zeta_positive + res.zeta_negative + res.zeta_zero,
            "increment_positive": res.zeta_positive,
            "increment_negative": res.zeta_negative,
        }


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
