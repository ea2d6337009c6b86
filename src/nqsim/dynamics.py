"""Transition kernels (min / softmax / max potential) and the chain driver.

One particle arrives per step and is placed at a site drawn from the kernel:
uniformly over the minimisers of the potential, proportionally to beta^u, or
uniformly over the maximisers.  Randomness comes from a counter-based Philox
generator (numpy's philox4x64) keyed by (seed, stream), so trajectories are
reproducible across platforms and replicas get independent streams.

The literal inverse-CDF oracle, `step` in tests/oracles.py, forms the
probability vector (`_distribution`) and walks its running sums
(`sample_site`).  `run`, the single-chain driver, draws the same sites more
cheaply under the min and max rules (a binary search in the cached running
sums of 1/n, `_TIE_ROWS`); `TestRunReplaysStep` pins it to `step` record by
record.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .ring import Neighborhood, check_ring_size, potentials, validate_occupancy

RNG_ALGORITHM = "philox4x64:numpy"

# Guard for the int64 arithmetic of the vectorised engine: window * total
# particles must stay far from 2^63.
MAX_TOTAL_PARTICLES = 2**61

# Uniforms `run` draws per generator call.
DRAW_BLOCK = 4096


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
        return np.random.Generator(np.random.Philox(_stream_key(self.seed, self.stream)))


def _stream_key(seed: int, stream: int):
    """A seed sequence that hands Philox the key (seed, stream) as it is.

    Philox takes the key with counter 0, exactly as `Philox(key=...)` does,
    and no `SeedSequence` is built from OS entropy (several microseconds a
    stream).
    """
    return _stream_key_type()(seed, stream)


@lru_cache(maxsize=1)
def _stream_key_type() -> type:
    # Defined on first use, since numpy.random is not imported with this module.
    from numpy.random.bit_generator import ISeedSequence

    class StreamKey(ISeedSequence):
        # the generator keeps its seed sequence: two ints, not a key array
        __slots__ = ("seed", "stream")

        def __init__(self, seed: int, stream: int):
            self.seed, self.stream = seed, stream

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # Philox asks for its key: two 64-bit words
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a stream key is two uint64 words, not {n_words} of {np.dtype(dtype)}")
            return np.array([self.seed, self.stream], dtype=np.uint64)

        def __reduce__(self):
            # the class is local, so a pickled generator names the factory
            return _stream_key, (self.seed, self.stream)

    return StreamKey


@dataclass(frozen=True)
class ChainState:
    t: int
    xi: tuple[int, ...]
    u: tuple[int, ...]
    kind: Neighborhood

    @property
    def min_potential(self) -> int:
        return min(self.u)

    @classmethod
    def from_occupancy(cls, counts: Iterable[int], kind: Neighborhood) -> "ChainState":
        xi = validate_occupancy(counts, kind)
        return cls(t=0, xi=xi, u=potentials(xi, kind), kind=kind)

    @classmethod
    def empty(cls, m: int, kind: Neighborhood) -> "ChainState":
        check_ring_size(m, kind)
        return cls.from_occupancy((0,) * m, kind)


class TrajectoryRecord(NamedTuple):
    """One step of a chain: time, occupancy, potentials, reduced potentials
    v = u - m, minimum potential m and the 1-based site that received the
    particle (None for the initial record).

    A tuple, so that `run` builds one per step cheaply; records compare
    equal field by field, in this order.
    """

    t: int
    xi: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]
    m: int
    site: int | None

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "xi": list(self.xi),
            "u": list(self.u),
            "v": list(self.v),
            "m": self.m,
            "site": self.site,
        }

    def to_json_line(self) -> str:
        """`json.JSONEncoder(sort_keys=True).encode(self.to_json_dict())`, built directly.

        The keys are written in sorted order with the encoder's default
        separators; a list of ints prints as JSON does.
        """
        t, xi, u, v, m, site = self
        site = "null" if site is None else site
        return f'{{"m": {m}, "site": {site}, "t": {t}, "u": {[*u]}, "v": {[*v]}, "xi": {[*xi]}}}'


def _distribution(u: Sequence[int], rule: AllocationRule) -> list[float]:
    """Probability of the next particle landing on each site, as a list of floats.

    Min/max vectors are the exact rationals 1/|tie set| rendered to floats.
    The softmax weights are stabilised by factoring out the extreme potential
    so every exponentiation stays in [0, 1].
    """
    if isinstance(rule, (MinRule, MaxRule)):
        extreme = min(u) if isinstance(rule, MinRule) else max(u)
        p = 1.0 / u.count(extreme)
        return [p if x == extreme else 0.0 for x in u]
    beta = rule.beta
    u = np.asarray(u, dtype=np.int64)
    anchor = u.min() if beta < 1.0 else u.max()
    with np.errstate(over="raise"):
        try:
            w = np.power(beta, (u - anchor).astype(np.float64))
        except FloatingPointError as exc:  # pragma: no cover - unreachable after anchoring
            raise FloatingPointError(f"softmax weight overflow at beta={beta}") from exc
    # numpy's pairwise sum, the order the ensemble engine normalises in
    return (w / w.sum()).tolist()


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


class _TieRows(dict):
    """n -> the n-1 float sums of k copies of 1/n (k = 1..n-1), added left to right.

    These are the running sums `sample_site` forms at the first n-1 members
    of an n-member tie set (the zero probabilities between members add 0.0),
    so the member it returns for a variate U is the number of sums <= U:
    `bisect_right(row, U)`.  A row is built on its first use.  It is kept
    only while all kept rows hold at most `budget` floats: a chain from
    empty at M meets a new tie size every two or three steps of its first
    level, and keeping them all would take O(M^2) floats.
    """

    def __init__(self, budget: int):
        super().__init__()
        self.budget = budget
        self.size = 0

    def __missing__(self, n: int) -> list[float]:
        row = list(accumulate(repeat(1.0 / n, n - 1)))
        if self.size + len(row) <= self.budget:
            self[n] = row
            self.size += len(row)
        return row


# About 2 MiB of floats: every tie size up to M = 361.
_TIE_ROWS = _TieRows(2**16)


@dataclass
class RunResult:
    final: ChainState
    records: list[TrajectoryRecord]


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
    identical output.  The chain lives in two lists updated in place; a
    `ChainState` is built only for the final state.

    Under the min and max rules the site is the tie member at
    `bisect_right(_TIE_ROWS[n], U)`, the site `sample_site` returns for the
    uniform tie distribution (see `_TieRows`).  The softmax rule draws
    through `sample_site(_distribution(u, rule), U)` itself.
    `TestRunReplaysStep` pins every record, under every rule, to a loop of
    `step`, the literal inverse-CDF oracle in tests/oracles.py.

    This pure-Python stepper is the reference for the vectorised engine:
    replica r of `ensemble.run_ensemble` must reproduce it on stream
    (seed, r), which the tests and the benchmark's stream check assert.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    total_final = sum(initial.xi) + steps
    if initial.kind.window * total_final > MAX_TOTAL_PARTICLES:
        raise ValueError(f"step budget {steps} overflows the int64 potential range")

    gen = rng.generator()
    offsets = initial.kind.offsets
    xi = list(initial.xi)
    u = list(initial.u)
    t = initial.t
    lo = min(u)
    rec = TrajectoryRecord(t, initial.xi, initial.u, tuple([x - lo for x in u]), lo, None)
    records = [rec]
    notify = [obs.on_step for obs in observers]
    for on_step in notify:
        on_step(rec)

    is_min = isinstance(rule, MinRule)
    ties = is_min or isinstance(rule, MaxRule)
    rows = _TIE_ROWS
    new_record = tuple.__new__  # TrajectoryRecord(...) without its Python-level __new__
    m = len(u)
    last_t = t + steps
    while t < last_t:
        # Philox gives the same doubles in one block as in scalar calls
        for uniform in gen.random(min(DRAW_BLOCK, last_t - t)).tolist():
            if ties:
                extreme = lo if is_min else max(u)
                members = [i for i, x in enumerate(u) if x == extreme]
                site0 = members[bisect_right(rows[len(members)], uniform)]
            else:
                site0 = sample_site(_distribution(u, rule), uniform)
            xi[site0] += 1
            for d in offsets:  # u_i gains 1 for i = site - d: U_i holds the site
                u[(site0 - d) % m] += 1
            t += 1
            prev = lo
            lo = min(u)
            v = tuple([x - lo for x in u])
            rec = new_record(TrajectoryRecord, (t, tuple(xi), tuple(u), v, lo, site0 + 1))
            for on_step in notify:
                on_step(rec)
            if t % sample_every == 0 or t == last_t or (include_level_steps and lo > prev):
                records.append(rec)
    final = ChainState(t=t, xi=tuple(xi), u=tuple(u), kind=initial.kind)
    return RunResult(final=final, records=records)
