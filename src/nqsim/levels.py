"""Level tracking for the replica ensemble, resolved in cell-bounded blocks.

Under the min rule a level opens each time a replica's minimum potential
rises.  At each opening the engine reads the level statistics (S, Q, W and
the zero/positive signature) and keeps monotonicity, persistence and
window-exclusion monitors.  `level_statistics` is the package's one
definition of Q, W, the window flags and the isolated-zero centres;
`observers.LevelLog`, the single-chain reference for the monitors, reads its
shapes from it too.

Each lock-step only copies the potentials of the replicas that opened a level,
with their ids and the step, into one buffer of about LEVEL_BLOCK_CELLS cells.
The buffer is resolved when it is full, at the end of each uniform block and
at the end of the run.  A flush computes every gathered level's statistics in
one call: each site's window of five zero/positive marks is coded as a 5-bit
number, and a code starts an isolated zero, a double or an excluded window when
its low bits match the shape.  The levels are then ordered replica-major, so
each replica's levels form one segment, seeded with what earlier blocks
carried: the previous (S, Q, W), the required isolated-zero centres (an
exclusive segmented prefix-OR; Blelloch, *Prefix sums and their applications*,
1990), the current signature and the last level carrying each excluded
window.  Signatures and centres are (M, N) boolean patterns, exact at any M.
A replica carries an excluded window in the final half exactly when its last
level carrying it has index >= level_count // 2, so no per-level record is
kept.  Batching changes no result: only the order of independent reads moves.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .ensemble import EnsembleResult

# Windows excluded in the limit, as zero/positive shapes read from a site k
# onward; level flag bit i marks shape i.
_FLAG_SHAPES = {
    "three_positives": (1, 1, 1),
    "three_zeros": (0, 0, 0),
    "pair_into_zeros": (1, 1, 0, 0),
    "lone_positive_in_zeros": (0, 0, 1, 0, 0),
}
FLAG_NAMES = tuple(_FLAG_SHAPES)  # level flag column order everywhere
_ISOLATED_ZERO = (1, 0, 1)  # Q counts these (centred on k + 1)
_DOUBLE = (0, 1, 1, 0)  # W counts these
_WINDOW = 5  # sites per window code; the longest shape
# Cells (sites x levels) of potentials gathered before one statistics call:
# 128 KiB of int64.  A batch of a fixed number of lock-steps would grow with R
# (10 MiB and a 36 MiB statistics peak for one 1048-step block at M = 5,
# R = 500).  2^15 cells raised the peak RSS of a process running
# `verify --suite sym` at M = 5, R = 500 by about 1 MiB, 2^14 by about 0.5 MiB,
# for a few percent of speed.  The buffer is allocated once per run: a freed
# large block raises glibc's mmap threshold, and the next one then comes from
# the brk heap, where later small allocations pin it and the peak RSS grows.
LEVEL_BLOCK_CELLS = 2**14
# A level may not raise S, lower Q or raise W.
_WORSE = (np.greater, np.less, np.greater)


def _worse_than(stats, prev):
    """Rows S, Q, W of stats violating against prev, elementwise."""
    return np.stack([worse(x, y) for worse, x, y in zip(_WORSE, stats, prev)])


def _window_code(shape: tuple[int, ...]) -> tuple[np.uint8, np.uint8]:
    """(mask, value): a window code (bit d: site k + d positive) starts with `shape` when code & mask == value."""
    return np.uint8(2 ** len(shape) - 1), np.uint8(sum(want << d for d, want in enumerate(shape)))


_ISOLATED_ZERO_CODE = _window_code(_ISOLATED_ZERO)
_DOUBLE_CODE = _window_code(_DOUBLE)
_FLAG_CODES = tuple(_window_code(shape) for shape in _FLAG_SHAPES.values())
_FLAG_BIT = (1 << np.arange(len(FLAG_NAMES), dtype=np.uint8))[:, None]


def level_statistics(u, m_new, u_total, with_flags: bool, order: np.ndarray) -> tuple:
    """Level statistics of site-major potentials u (M, N) with column minima m_new.

    u_total is each column's potential sum (window * particles).  Returns the
    signature pos (M, N), the stacked S, Q, W (3, N), the isolated-zero centres
    (M, N; row k: a centre at site k + 1) and, if with_flags, the flag bits
    (bit i: FLAG_NAMES[i]), each with its columns taken in `order`.
    Every (M, N) temporary is one byte per cell, and counts over the sites are
    summed as uint16 below M = 2^16 (the engine's size guard refuses any M
    near it; a single chain may pass it).  u's rows must be contiguous:
    reductions over the sites of an F-ordered array run an order of
    magnitude slower.
    """
    m = len(u)
    count_type = np.uint16 if m < 2**16 else np.int64

    def count(marks):
        return np.add.reduce(marks, axis=0, dtype=count_type)

    pos = u > m_new
    # S = sum(v) less its entries equal to 1, v = u - m_new
    s = u_total - m * m_new - count(u == m_new + 1)
    pos, s = pos.take(order, axis=1), s.take(order)
    # code[k] = sum over d of pos[k + d] * 2^d, with the rows of pos repeated
    # cyclically (a uint8 product is several times faster than a shift)
    ring = pos.view(np.uint8).take(np.arange(m + _WINDOW - 1) % m, axis=0)
    code = ring[:m].copy()
    for d in range(1, _WINDOW):
        code += ring[d : d + m] * np.uint8(2**d)

    def starts_with(mask_value):
        return code & mask_value[0] == mask_value[1]

    centers = starts_with(_ISOLATED_ZERO_CODE)
    stats = np.stack([s, count(centers), count(starts_with(_DOUBLE_CODE))])
    flag_bits = None
    if with_flags:
        bits = np.zeros_like(code)
        for i, mask_value in enumerate(_FLAG_CODES):
            bits += starts_with(mask_value).view(np.uint8) * np.uint8(1 << i)
        flag_bits = np.bitwise_or.reduce(bits, axis=0)
    return pos, stats, centers, flag_bits


def buffer_columns(m: int, replicas: int) -> int:
    """Columns of the level buffer: those below the cell budget, and one more lock-step's openings."""
    return (LEVEL_BLOCK_CELLS - 1) // m + replicas


class _Block(NamedTuple):
    """A flush's levels, replica-major: each replica's levels form one segment."""

    rep: np.ndarray  # each level's replica
    head: np.ndarray  # whether it starts its segment
    starts: np.ndarray  # each segment's first level
    last: np.ndarray  # and its last
    r0: np.ndarray  # and its replica
    offset: np.ndarray  # its place in the segment: it is its replica's level level_counts + offset

    @classmethod
    def of(cls, rep: np.ndarray) -> _Block:
        n = len(rep)
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(rep[1:], rep[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        ends = np.append(starts[1:], n)
        offset = np.arange(n) - np.repeat(starts, ends - starts)
        return cls(rep, head, starts, ends - 1, rep.take(starts), offset)


class LevelTracker:
    """Level counters of one ensemble run, written into its result.

    `gather` records each lock-step's openings; `flush` resolves the buffer
    and `finish` the run.  A signature run starts at the last level whose
    signature differs from the one before, so its length is
    level_counts - run_started_level.
    """

    def __init__(self, res: EnsembleResult, m: int, total0: int, window: int, with_flags: bool):
        R = res.request.replicas
        self.res, self.total0, self.window, self.with_flags = res, total0, window, with_flags
        cap = buffer_columns(m, R)
        self.u = np.empty((m, cap), dtype=np.int64)
        self.rep = np.empty(cap, dtype=np.intp)
        self.t = np.empty(cap, dtype=np.int64)
        self.fill = 0
        res.level_counts = np.zeros(R, dtype=np.int64)
        # The sentinels compare the first level against values no level violates.
        big = np.iinfo(np.int64).max
        self.prev_stats = np.repeat([[big], [-1], [big]], R, axis=1)
        self.stat_viol = np.zeros((3, R), dtype=np.int64)
        res.s_violations, res.q_violations, res.w_violations = self.stat_viol
        res.first_s_violation_step = np.full(R, -1, dtype=np.int64)
        self.required = np.zeros((m, R), dtype=bool)
        res.persistence_violations = np.zeros(R, dtype=np.int64)
        self.cur_sig = np.zeros((m, R), dtype=bool)
        res.run_started_level = np.zeros(R, dtype=np.int64)
        # last_flag[i, r]: index of replica r's last level carrying FLAG_NAMES[i], -1 if none
        self.last_flag = np.full((len(FLAG_NAMES), R), -1, dtype=np.int64)

    def gather(self, opened: np.ndarray, t: int, u: np.ndarray) -> None:
        """Record the levels opened at step t; flush once the cell budget is reached."""
        idx = opened.nonzero()[0]
        a = self.fill
        self.fill = b = a + idx.size
        self.u[:, a:b] = u.take(idx, axis=1)
        self.rep[a:b] = idx
        self.t[a:b] = t
        if b * len(u) >= LEVEL_BLOCK_CELLS:
            self.flush()

    def flush(self) -> None:
        n, self.fill = self.fill, 0
        if not n:
            return
        # Replica-major, steps ascending within each replica.  take() keeps
        # the arrays C-ordered; fancy indexing along axis 1 would not.
        order = np.argsort(self.rep[:n], kind="stable")
        u = self.u[:, :n]  # rows contiguous, so reductions over the sites are fast
        pos, stats, centers, flag_bits = level_statistics(
            u, u.min(axis=0), self.total0 + self.window * self.t[:n], self.with_flags, order
        )
        blk = _Block.of(self.rep.take(order))
        self._monotone(stats, order, blk)
        self._persistence(centers, blk)
        self._runs(pos, blk)
        if self.with_flags:
            self._flags(flag_bits, blk)
        self.res.level_counts[blk.r0] += blk.last + 1 - blk.starts

    def _monotone(self, stats, order, blk: _Block) -> None:
        """S, Q and W against the level before, in this block or carried in."""
        bad = np.empty(stats.shape, dtype=bool)
        bad[:, 1:] = _worse_than(stats[:, 1:], stats[:, :-1])
        bad[:, blk.starts] = _worse_than(stats.take(blk.starts, axis=1), self.prev_stats.take(blk.r0, axis=1))
        self.prev_stats[:, blk.r0] = stats.take(blk.last, axis=1)
        self.stat_viol[:, blk.r0] += np.add.reduceat(bad, blk.starts, axis=1, dtype=np.int64)
        col = np.flatnonzero(bad[0])
        if col.size:
            rs = blk.rep[col]
            new = np.append(True, rs[1:] != rs[:-1])  # each replica's first S violation
            first, ts = rs[new], self.t.take(order[col[new]])
            unset = self.res.first_s_violation_step[first] < 0
            self.res.first_s_violation_step[first[unset]] = ts[unset]

    def _persistence(self, centers, blk: _Block) -> None:
        """Each centre an earlier level required and a level lacks is one persistence violation.

        seen: the inclusive prefix-OR of the centres in each segment, by
        doubling steps; the centres carried in are ORed in afterwards.
        """
        carried = self.required.take(blk.r0, axis=1)
        seen = centers.copy()
        step, longest = 1, blk.offset.max() + 1
        while step < longest:
            seen[:, step:] |= seen[:, :-step] & (blk.offset[step:] >= step)
            step *= 2
        before = np.repeat(carried, blk.last + 1 - blk.starts, axis=1)
        before[:, 1:] |= seen[:, :-1] & ~blk.head[1:]
        lost = np.add.reduce(before > centers, axis=0, dtype=np.int64)
        self.res.persistence_violations[blk.r0] += np.add.reduceat(lost, blk.starts)
        self.required[:, blk.r0] = seen.take(blk.last, axis=1) | carried

    def _runs(self, pos, blk: _Block) -> None:
        """A level whose signature differs from the one before it starts a new run."""
        changed = np.empty(len(blk.rep), dtype=bool)
        (pos[:, 1:] != pos[:, :-1]).any(axis=0, out=changed[1:])
        changed[blk.starts] = (pos.take(blk.starts, axis=1) != self.cur_sig.take(blk.r0, axis=1)).any(axis=0)
        self.cur_sig[:, blk.r0] = pos.take(blk.last, axis=1)
        resets = np.flatnonzero(changed)
        if resets.size:
            rr = blk.rep[resets]
            final = np.append(rr[1:] != rr[:-1], True)
            resets, rr = resets[final], rr[final]
            self.res.run_started_level[rr] = self.res.level_counts[rr] + blk.offset[resets]

    def _flags(self, flag_bits, blk: _Block) -> None:
        """The last level carrying each excluded window."""
        hits = np.flatnonzero(flag_bits & _FLAG_BIT)  # over (flag, level), row-major
        if hits.size:
            row, col = np.divmod(hits, len(blk.rep))
            key = row * self.last_flag.shape[1] + blk.rep[col]  # nondecreasing
            final = np.append(key[1:] != key[:-1], True)
            key, col = key[final], col[final]
            self.last_flag.reshape(-1)[key] = self.res.level_counts[blk.rep[col]] + blk.offset[col]

    def finish(self) -> None:
        self.flush()
        res = self.res
        res.run_length = res.level_counts - res.run_started_level
        if self.with_flags:
            res.final_half_flags = (self.last_flag >= res.level_counts // 2).T
