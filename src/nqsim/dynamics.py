"""Transition kernels (min / softmax / max potential) and the chain driver.

One particle arrives per step and is placed at a site drawn from the kernel:
uniformly over the minimisers of the potential, proportionally to beta^u, or
uniformly over the maximisers.  Randomness comes from a counter-based Philox
generator (numpy's philox4x64) keyed by (seed, stream), so trajectories are
reproducible across platforms and replicas get independent streams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ring import Neighborhood, check_ring_size, potentials, reduce_potential, validate_occupancy

RNG_ALGORITHM = "philox4x64:numpy"

# Guard for the int64 arithmetic of the vectorised engine: window * total
# particles must stay far from 2^63.
MAX_TOTAL_PARTICLES = 2**61


@dataclass(frozen=True)
class MinRule:
    name = "min"


@dataclass(frozen=True)
class MaxRule:
    name = "max"


@dataclass(frozen=True)
class Softmax:
    beta: float
    name = "softmax"

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"softmax beta must be positive and finite, got {self.beta}")


AllocationRule = MinRule | Softmax | MaxRule


def parse_rule(name: str, beta: float | None = None) -> AllocationRule:
    key = name.strip().lower()
    if key == "min":
        return MinRule()
    if key == "max":
        return MaxRule()
    if key == "softmax":
        if beta is None:
            raise ValueError("softmax rule requires beta")
        return Softmax(float(beta))
    raise ValueError(f"unknown allocation rule {name!r}")


@dataclass(frozen=True)
class RandomStream:
    """A (seed, stream) pair naming one reproducible draw sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for field_name, value in (("seed", self.seed), ("stream", self.stream)):
            if not 0 <= value < 2**64:
                raise ValueError(f"{field_name} must fit in 64 bits, got {value}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ChainState:
    t: int
    xi: tuple[int, ...]
    u: tuple[int, ...]
    kind: Neighborhood

    @property
    def min_potential(self) -> int:
        return min(self.u)

    @property
    def size(self) -> int:
        return len(self.xi)

    @classmethod
    def from_occupancy(cls, counts: Iterable[int], kind: Neighborhood) -> "ChainState":
        xi = validate_occupancy(counts, kind)
        return cls(t=0, xi=xi, u=potentials(xi, kind), kind=kind)

    @classmethod
    def empty(cls, m: int, kind: Neighborhood) -> "ChainState":
        check_ring_size(m, kind)
        return cls.from_occupancy((0,) * m, kind)


@dataclass(frozen=True)
class TrajectoryRecord:
    t: int
    xi: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]
    m: int
    site: int | None  # 1-based allocated site; None for the initial record

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "xi": list(self.xi),
            "u": list(self.u),
            "v": list(self.v),
            "m": self.m,
            "site": self.site,
        }


def _record(state: ChainState, site: int | None) -> TrajectoryRecord:
    return TrajectoryRecord(
        t=state.t, xi=state.xi, u=state.u, v=reduce_potential(state.u),
        m=state.min_potential, site=site,
    )


def _distribution(u: Sequence[int], rule: AllocationRule) -> list[float]:
    """`transition_distribution` as a Python list, the form `step` samples from."""
    if isinstance(rule, (MinRule, MaxRule)):
        extreme = min(u) if isinstance(rule, MinRule) else max(u)
        p = 1.0 / u.count(extreme)
        return [p if x == extreme else 0.0 for x in u]
    beta = rule.beta
    if beta == 1.0:
        return [1.0 / len(u)] * len(u)
    u = np.asarray(u, dtype=np.int64)
    anchor = u.min() if beta < 1.0 else u.max()
    with np.errstate(over="raise"):
        try:
            w = np.power(beta, (u - anchor).astype(np.float64))
        except FloatingPointError as exc:  # pragma: no cover - unreachable after anchoring
            raise FloatingPointError(f"softmax weight overflow at beta={beta}") from exc
    # numpy's pairwise sum, the order the ensemble engine normalises in
    return (w / w.sum()).tolist()


def transition_distribution(state: ChainState, rule: AllocationRule) -> np.ndarray:
    """Probability of the next particle landing on each site, as float64.

    Min/max vectors are the exact rationals 1/|tie set| rendered to floats.
    The softmax weights are stabilised by factoring out the extreme potential
    so every exponentiation stays in [0, 1].
    """
    return np.array(_distribution(state.u, rule))


def sample_site(probabilities: Sequence[float], uniform: float) -> int:
    """Inverse-CDF draw of a 0-based site from one uniform variate in [0, 1).

    Returns the first site whose cumulative probability exceeds the variate,
    summing left to right as np.cumsum does.  The cumulative value is clamped
    to 1 from the last site of positive probability onward, so rounding in the
    sum can never push the draw onto a site of probability 0 or out of range
    (n copies of the float 1/n can add up to less than 1, e.g. n = 6, 7, 10).
    Ties inside min/max sets are resolved by the draw itself, uniformly over
    the set.
    """
    last = len(probabilities) - 1
    while not probabilities[last]:
        last -= 1
    c = 0.0
    for i in range(last):
        c += probabilities[i]
        if uniform < c:
            return i
    return last


def step(
    state: ChainState, rule: AllocationRule, gen: np.random.Generator
) -> tuple[ChainState, int]:
    """Advance one step; returns the new state and the 1-based allocated site.

    The potential cache is updated incrementally: u_i gains 1 exactly for the
    sites whose neighbourhood contains the allocation.
    """
    site0 = sample_site(_distribution(state.u, rule), gen.random())
    m = state.size
    xi = list(state.xi)
    xi[site0] += 1
    u = list(state.u)
    # u_i gains 1 exactly when site0 lies in U_i: i = site0 - d over the
    # window offsets (for the asymmetric window {i, i+1} that is {k-1, k}).
    for d in state.kind.offsets:
        u[(site0 - d) % m] += 1
    new_state = ChainState(t=state.t + 1, xi=tuple(xi), u=tuple(u), kind=state.kind)
    return new_state, site0 + 1


@dataclass
class RunResult:
    final: ChainState
    records: list[TrajectoryRecord]
    reports: dict[str, dict]


def run(
    initial: ChainState,
    rule: AllocationRule,
    steps: int,
    rng: RandomStream,
    observers: Sequence = (),
    sample_every: int = 1000,
    include_level_steps: bool = False,
) -> RunResult:
    """Drive a single chain for `steps` steps.

    Observers see every step (including the initial record).  The returned
    records are the initial state, every `sample_every`-th step, optionally
    every step at which the minimum potential rose, and the final state.
    Identical (initial, rule, seed, stream, steps, stride) arguments give
    identical output.

    This pure-Python stepper is the reference oracle for the vectorised
    engine: replica r of `ensemble.run_ensemble` must reproduce it on stream
    (seed, r), which the tests and the benchmark's stream check assert.  It
    stays in the package for that check as well as for `nqsim simulate`.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    total_final = sum(initial.xi) + steps
    if initial.kind.window * total_final > MAX_TOTAL_PARTICLES:
        raise ValueError(f"step budget {steps} overflows the int64 potential range")

    gen = rng.generator()
    state = initial
    rec = _record(state, None)
    records = [rec]
    for obs in observers:
        obs.on_step(rec)

    last_m = state.min_potential
    for k in range(steps):
        state, site = step(state, rule, gen)
        rec = _record(state, site)
        for obs in observers:
            obs.on_step(rec)
        opened = state.min_potential > last_m
        last_m = state.min_potential
        if state.t % sample_every == 0 or k == steps - 1 or (include_level_steps and opened):
            records.append(rec)

    reports = {}
    for obs in observers:
        if hasattr(obs, "report"):
            reports[type(obs).__name__] = obs.report()
    return RunResult(final=state, records=records, reports=reports)
