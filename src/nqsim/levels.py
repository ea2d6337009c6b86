"""Level and renewal tracking for R chains, levels resolved in cell-bounded blocks.

Under the min rule a level opens each time a replica's minimum potential
rises.  At each opening the engine reads the level statistics (S, Q, W and
the zero/positive signature) and keeps monotonicity, persistence and
window-exclusion monitors.  `level_statistics` is the package's one
definition of S, Q, W, the window flags and the isolated-zero centres, and
`LevelTracker` and `RenewalTracker` its one definition of the monitors: the
replica engine runs them at R replicas, and `observers.LevelLog` and
`observers.ParityGapSeries` run them at R = 1 for a single chain.  The tests
check both against the literal monitors in tests/oracles.py.

Each lock-step only copies the potentials of the replicas that opened a level,
with their ids and the step, into one buffer of about LEVEL_BLOCK_CELLS cells,
or FLUSH_LEVELS levels a replica if fewer.  The buffer is resolved when it is
full, at the end of each uniform block and at the end of the run.  A flush
reads S off the potentials of every gathered level.  The levels are then
ordered replica-major, so each replica's levels form one segment, and each
segment is cut into runs of levels with one zero/positive signature.
Each run's signature is packed into a key of uint64
words (bit k of word w: site 64 w + k is positive; one word up to M = 64;
`_pack_words`).  Q, W, the flag byte and the isolated-zero centres depend on
the signature alone: they are computed once per distinct key
(`_signature_shapes`) and taken for each run.  A site's window of five
zero/positive marks is coded as a 5-bit number, and a code starts an
isolated zero, a double or an excluded window when its low bits match the
shape.  S is compared level by level; Q and W, which are constant on a run,
run by run.  Each segment is seeded with what earlier blocks carried: the
previous (S, Q, W), the required isolated-zero centres, a packed mask (a
segmented prefix-OR over the runs; Blelloch, *Prefix sums and their
applications*, 1990), the current signature key and the last level carrying
each excluded window.  Keys are exact at any M.  A replica carries an
excluded window in the final half exactly when its last level carrying it has
index >= level_count // 2, so no per-level record is kept.  Batching changes
no result: only the order of independent reads moves.
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
# Cells (sites x levels) of potentials gathered before one flush: 192 KiB of
# int64, about 4900 levels at M = 5.  A flush holds a few dozen bytes of
# per-level arrays besides the buffer (S, the signatures, the replica order),
# so at M = 5, R = 500 the buffer and one flush add about 0.4 MiB to a run's
# peak.  A batch of a fixed number of lock-steps would grow with R (10 MiB
# and a 36 MiB statistics peak for one 1048-step block at M = 5, R = 500).
# The buffer is allocated once per run: a freed large block raises glibc's
# mmap threshold, and the next one then comes from the brk heap, where later
# small allocations pin it and the peak RSS grows.
LEVEL_BLOCK_CELLS = 3 * 2**13
# and at most FLUSH_LEVELS levels a replica: a single chain's flush at the cell
# budget would add hundreds of KB to its peak memory, one of 512 levels tens.
FLUSH_LEVELS = 512
# A level may not raise S, lower Q or raise W.
_WORSE = (np.greater, np.less, np.greater)


def _window_code(shape: tuple[int, ...]) -> tuple[np.uint8, np.uint8]:
    """(mask, value): a window code (bit d: site k + d positive) starts with `shape` when code & mask == value."""
    return np.uint8(2 ** len(shape) - 1), np.uint8(sum(want << d for d, want in enumerate(shape)))


_ISOLATED_ZERO_CODE = _window_code(_ISOLATED_ZERO)
_DOUBLE_CODE = _window_code(_DOUBLE)
_FLAG_CODES = tuple(_window_code(shape) for shape in _FLAG_SHAPES.values())
_FLAG_BIT = (1 << np.arange(len(FLAG_NAMES), dtype=np.uint8))[:, None]


def _count(marks: np.ndarray) -> np.ndarray:
    """Marks per column of a boolean (M, N) array, summed as uint16 below M = 2^16.

    The engine's size guard refuses any M near 2^16; a single chain may pass it.
    """
    return np.add.reduce(marks, axis=0, dtype=np.uint16 if len(marks) < 2**16 else np.int64)


def _stat_s(u, m_new, u_total) -> np.ndarray:
    """S of site-major potentials u (M, N): sum(v) less its entries equal to 1, v = u - m_new."""
    return u_total - len(u) * m_new - _count(u == m_new + 1)


def _signature_shapes(pos: np.ndarray, with_flags: bool) -> tuple:
    """Q and W (2, N), the isolated-zero centres (M, N; row k: a centre at site k + 1)
    and, if with_flags, the flag bits (bit i: FLAG_NAMES[i]) of the signatures pos (M, N).

    Every (M, N) temporary is one byte per cell.  pos's rows must be
    contiguous: reductions over the sites of an F-ordered array run an order
    of magnitude slower.
    """
    m = len(pos)
    # code[k] = sum over d of pos[k + d] * 2^d, with the rows of pos repeated
    # cyclically (a uint8 product is several times faster than a shift)
    ring = pos.view(np.uint8).take(np.arange(m + _WINDOW - 1) % m, axis=0)
    code = ring[:m].copy()
    for d in range(1, _WINDOW):
        code += ring[d : d + m] * np.uint8(2**d)

    def starts_with(mask_value):
        return code & mask_value[0] == mask_value[1]

    centers = starts_with(_ISOLATED_ZERO_CODE)
    q_w = np.stack([_count(centers), _count(starts_with(_DOUBLE_CODE))])
    flag_bits = None
    if with_flags:
        bits = np.zeros_like(code)
        for i, mask_value in enumerate(_FLAG_CODES):
            bits += starts_with(mask_value).view(np.uint8) * np.uint8(1 << i)
        flag_bits = np.bitwise_or.reduce(bits, axis=0)
    return q_w, centers, flag_bits


def level_statistics(u, m_new, u_total, with_flags: bool, order: np.ndarray) -> tuple:
    """Level statistics of site-major potentials u (M, N) with column minima m_new.

    u_total is each column's potential sum (window * particles).  Returns the
    signature pos (M, N), the stacked S, Q, W (3, N), the isolated-zero centres
    and, if with_flags, the flag bits, as `_signature_shapes` gives them, each
    with its columns taken in `order`.
    """
    pos = (u > m_new).take(order, axis=1)
    q_w, centers, flag_bits = _signature_shapes(pos, with_flags)
    return pos, np.vstack([_stat_s(u, m_new, u_total).take(order), q_w]), centers, flag_bits


def _pack_words(marks: np.ndarray) -> np.ndarray:
    """The uint64 words (W, N) of a boolean (M, N) array: bit k of word w is row 64 w + k."""
    m, n = marks.shape
    # Byte j of a column's little-endian words holds rows 8 j .. 8 j + 7.
    bits = np.zeros((n, 8 * ((m + 7) // 8)), dtype=bool)
    bits[:, :m] = marks.T
    octets = np.zeros((n, 8 * ((m + 63) // 64)), dtype=np.uint8)
    octets[:, : (m + 7) // 8] = np.packbits(bits, bitorder="little").reshape(n, -1)
    return np.ascontiguousarray(octets.view("<u8").T, dtype=np.uint64)


def _key_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a column of each distinct key, each column's key id) of uint64 keys (W, N).

    A key of several words is ranked word by word: the ids so far and the
    word's own ranks (each below N) combine into one int64.
    """
    _, ids = np.unique(keys[0], return_inverse=True)
    for word in keys[1:]:
        _, low = np.unique(word, return_inverse=True)
        _, ids = np.unique(ids * (low.max() + 1) + low, return_inverse=True)
    first = np.empty(ids.max() + 1, dtype=np.intp)
    first[ids] = np.arange(len(ids))  # any column of a key will do
    return first, ids


def block_levels(m: int, replicas: int) -> int:
    """Levels gathered before a flush: the cell budget's, and at most FLUSH_LEVELS a replica."""
    return min(-(-LEVEL_BLOCK_CELLS // m), FLUSH_LEVELS * replicas)


def buffer_columns(m: int, replicas: int) -> int:
    """Columns of the level buffer: those of a block but one, and one more lock-step's openings."""
    return block_levels(m, replicas) - 1 + replicas


def _replica_type(replicas: int):
    # a stable argsort of uint16 is a radix sort, ten times faster than one of intp
    return np.uint16 if replicas <= 2**16 else np.intp


def buffer_bytes(m: int, replicas: int) -> int:
    """Bytes of the level buffer: an int64 potential per cell, a replica id and a step per column."""
    return (8 * m + np.dtype(_replica_type(replicas)).itemsize + 8) * buffer_columns(m, replicas)


class _Block(NamedTuple):
    """A flush's levels, or runs of levels, replica-major: each replica's form one segment."""

    rep: np.ndarray  # each unit's replica
    head: np.ndarray  # whether it starts its segment
    starts: np.ndarray  # each segment's first unit
    last: np.ndarray  # and its last
    r0: np.ndarray  # and its replica

    @classmethod
    def of(cls, rep: np.ndarray) -> _Block:
        head = np.empty(len(rep), dtype=bool)
        head[0] = True
        np.not_equal(rep[1:], rep[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        last = np.append(starts[1:], len(rep)) - 1
        return cls(rep, head, starts, last, rep.take(starts).astype(np.intp))

    def offset(self) -> np.ndarray:
        """Each unit's place in its segment."""
        return np.arange(len(self.rep)) - np.repeat(self.starts, self.last + 1 - self.starts)


class LevelTracker:
    """Level counters of R replicas, written into `res` (an `EnsembleResult`, or
    any object that takes the same attributes).

    `gather` records each lock-step's openings; `flush` resolves the buffer
    and `finish` the run.  A signature run starts at the last level whose
    signature differs from the one before, so its length is
    level_counts - run_started_level.
    """

    def __init__(self, res: EnsembleResult, R: int, m: int, total0: int, window: int, with_flags: bool):
        self.res, self.total0, self.window, self.with_flags = res, total0, window, with_flags
        self.block = block_levels(m, R)
        cap = buffer_columns(m, R)
        self.u = np.empty((m, cap), dtype=np.int64)
        self.rep = np.empty(cap, dtype=_replica_type(R))
        self.t = np.empty(cap, dtype=np.int64)
        self.fill = 0
        res.level_counts = np.zeros(R, dtype=np.int64)
        # The sentinels compare the first level against values no level violates.
        big = np.iinfo(np.int64).max
        self.prev_stats = np.repeat([[big], [-1], [big]], R, axis=1)
        self.stat_viol = np.zeros((3, R), dtype=np.int64)
        res.s_violations, res.q_violations, res.w_violations = self.stat_viol
        res.first_s_violation_step = np.full(R, -1, dtype=np.int64)
        words = (m + 63) // 64
        # packed as the keys are: the required centres (bit k: a centre at
        # site k + 1) and the current signature
        self.required = np.zeros((words, R), dtype=np.uint64)
        res.persistence_violations = np.zeros(R, dtype=np.int64)
        self.cur_sig = np.zeros((words, R), dtype=np.uint64)
        res.run_started_level = np.zeros(R, dtype=np.int64)
        # last_flag[i, r]: index of replica r's last level carrying FLAG_NAMES[i], -1 if none
        self.last_flag = np.full((len(FLAG_NAMES), R), -1, dtype=np.int64)

    def gather(self, idx: np.ndarray, t: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Record the levels replicas idx opened at step t (or steps t), their potentials u (M, len(idx)).

        Takes one lock-step's openings, or a block into an empty buffer; flushes
        once a block is gathered and returns what the flush returns.
        """
        a = self.fill
        self.fill = b = a + len(idx)
        self.u[:, a:b] = u
        self.rep[a:b] = idx
        self.t[a:b] = t
        return self.flush() if b >= self.block else None

    def flush(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Resolve the buffered levels.

        With flags, returns each run's flag byte and length, replica-major
        (the engine keeps only each flag's last level; a single chain's final
        half is known only at its end).
        """
        n, self.fill = self.fill, 0
        if not n:
            return None
        u = self.u[:, :n]  # rows contiguous, so reductions over the sites are fast
        m_new = u.min(axis=0)
        pos = u > m_new
        s = _stat_s(u, m_new, self.total0 + self.window * self.t[:n])
        del m_new
        # Replica-major, steps ascending within each replica.
        order = np.argsort(self.rep[:n], kind="stable")
        levels = _Block.of(self.rep.take(order))
        self._monotone(0, s.take(order), levels, order)
        del s
        # Runs: the levels of a segment between two changes of signature.  Q,
        # W, the centres and the flags are the same on every level of a run.
        pos = pos.take(order, axis=1)
        new = levels.head.copy()
        new[1:] |= (pos[:, 1:] != pos[:, :-1]).any(axis=0)
        start = np.flatnonzero(new)
        pos = pos.take(start, axis=1)  # each run's signature
        del new
        keys = _pack_words(pos)
        first, ids = _key_ids(keys)
        # the shapes of each distinct signature, once
        q_w, centers, flag_bits = _signature_shapes(pos.take(first, axis=1), self.with_flags)
        del pos
        runs = _Block.of(levels.rep.take(start))
        length = np.append(start[1:], n) - start
        # each run's first level's place in its segment
        level = start - np.repeat(levels.starts, runs.last + 1 - runs.starts)
        for row, x in enumerate(q_w.take(ids, axis=1), 1):
            self._monotone(row, x, runs)
        self._persistence(_pack_words(centers).take(ids, axis=1), length, runs)
        self._runs(keys, level, runs)
        run_flags = None
        if self.with_flags:
            run_flags = flag_bits.take(ids)
            self._flags(run_flags, level + length - 1, runs)
        self.res.level_counts[levels.r0] += levels.last + 1 - levels.starts
        return None if run_flags is None else (run_flags, length)

    def signature(self, r: int) -> tuple[int, ...]:
        """Replica r's current zero/positive signature (1: positive), as of the last flush."""
        key = self.cur_sig[:, r].astype("<u8").view(np.uint8)
        return tuple(np.unpackbits(key, count=len(self.u), bitorder="little").tolist())

    def _monotone(self, row: int, x, blk: _Block, order=None) -> None:
        """Statistic `row` (S, Q or W) of each level or run x against the one before it.

        The first of a segment is compared with the value carried in.  A
        run's levels share its Q and W, so only its first level can violate
        them.  `order` maps the levels to the buffer, for the step of each
        replica's first S violation.
        """
        worse, prev = _WORSE[row], self.prev_stats[row]
        bad = np.empty(len(x), dtype=bool)
        worse(x[1:], x[:-1], out=bad[1:])
        bad[blk.starts] = worse(x.take(blk.starts), prev.take(blk.r0))
        prev[blk.r0] = x.take(blk.last)
        col = np.flatnonzero(bad)  # violations are rare
        rs = blk.rep[col]
        self.stat_viol[row] += np.bincount(rs, minlength=len(prev))
        if order is not None and col.size:
            new = np.append(True, rs[1:] != rs[:-1])  # each replica's first S violation
            first, ts = rs[new].astype(np.intp), self.t.take(order[col[new]])
            unset = self.res.first_s_violation_step[first] < 0
            self.res.first_s_violation_step[first[unset]] = ts[unset]

    def _persistence(self, centers, length, runs: _Block) -> None:
        """Each centre an earlier level required and a level lacks is one persistence violation.

        centers (W, runs): each run's packed centres.  seen: their inclusive
        prefix-OR in each segment, by doubling steps, with the centres carried
        in ORed into the segment's first run.  A level's centres lie in its
        seen, so it lacks popcount(seen) - popcount(centres) required ones,
        the same on every level of a run.
        """
        seen = centers.copy()
        seen[:, runs.starts] |= self.required.take(runs.r0, axis=1)
        offset = runs.offset()
        step, longest = 1, offset.max() + 1
        while step < longest:
            seen[:, step:] |= np.where(offset[step:] >= step, seen[:, :-step], 0)
            step *= 2
        lost = np.add.reduce(np.bitwise_count(seen) - np.bitwise_count(centers), axis=0, dtype=np.int64)
        self.res.persistence_violations[runs.r0] += np.add.reduceat(lost * length, runs.starts)
        self.required[:, runs.r0] = seen.take(runs.last, axis=1)

    def _runs(self, keys, level, runs: _Block) -> None:
        """A level whose signature differs from the one before it starts a new signature run.

        keys (W, runs): each run's key; a run differs from the run before it
        in its segment, and the first from the signature carried in.
        """
        changed = np.ones(len(level), dtype=bool)
        changed[runs.starts] = (keys.take(runs.starts, axis=1) != self.cur_sig.take(runs.r0, axis=1)).any(axis=0)
        self.cur_sig[:, runs.r0] = keys.take(runs.last, axis=1)
        resets = np.flatnonzero(changed)
        if resets.size:
            rr = runs.rep[resets]
            final = np.append(rr[1:] != rr[:-1], True)
            resets, rr = resets[final], rr[final].astype(np.intp)
            self.res.run_started_level[rr] = self.res.level_counts[rr] + level[resets]

    def _flags(self, flag_bits, last_level, runs: _Block) -> None:
        """The last level carrying each excluded window: the last level of the last run carrying it."""
        hits = np.flatnonzero(flag_bits & _FLAG_BIT)  # over (flag, run), row-major
        if hits.size:
            row, col = np.divmod(hits, len(runs.rep))
            key = row * self.last_flag.shape[1] + runs.rep[col]  # nondecreasing
            final = np.append(key[1:] != key[:-1], True)
            key, col = key[final], col[final]
            self.last_flag.reshape(-1)[key] = self.res.level_counts[runs.rep[col]] + last_level[col]

    def finish(self) -> None:
        self.flush()
        res = self.res
        res.run_length = res.level_counts - res.run_started_level
        if self.with_flags:
            res.final_half_flags = (self.last_flag >= res.level_counts // 2).T


class RenewalTracker:
    """Renewal counters of R replicas, written into `res` as `LevelTracker`'s are.

    A renewal is a step at which every potential is equal.  `gather` takes
    each renewal with the parity gap (times M) after its step and pairs it
    with its replica's previous renewal; `finish` writes the increments'
    sign counts and tail.
    """

    def __init__(self, res: EnsembleResult, R: int, m: int):
        self.res, self.m = res, m
        res.renewal_counts = np.zeros(R, dtype=np.int64)
        self.has_base = np.zeros(R, dtype=bool)
        self.d_last = np.zeros(R, dtype=np.int64)
        # hist[b + 11]: the increments z in signed buckets b = sign(z) min(ceil(|z| / M), 11).
        # |z| > c M exactly when |b| > c, so the histogram's size does not grow with M.
        self.hist = np.zeros(23, dtype=np.int64)

    def gather(self, hit: np.ndarray, d: np.ndarray) -> None:
        """hit (steps, R): renewals, with the parity gap d (steps, R) after each step.

        Each renewal is paired with its replica's previous one, in this call
        or before it: idx runs replica-major.
        """
        idx = np.flatnonzero(hit.T)
        if not idx.size:
            return
        rep, j = np.divmod(idx, len(hit))
        dv = d[j, rep]
        starts = np.flatnonzero(np.concatenate(([True], rep[1:] != rep[:-1])))
        r0 = rep[starts]  # the replicas with renewals, each once
        prev = np.empty_like(dv)
        prev[1:] = dv[:-1]
        prev[starts] = self.d_last[r0]
        dd = np.delete(dv - prev, starts[~self.has_base[r0]])
        b = np.minimum((np.abs(dd) + (self.m - 1)) // self.m, 11)
        b *= np.sign(dd)
        b += 11
        self.hist += np.bincount(b, minlength=23)
        ends = np.append(starts[1:], idx.size)
        self.res.renewal_counts[r0] += ends - starts
        self.d_last[r0] = dv[ends - 1]
        self.has_base[r0] = True

    def finish(self) -> None:
        res, hist = self.res, self.hist
        res.zeta_positive = int(hist[12:].sum())
        res.zeta_negative = int(hist[:11].sum())
        res.zeta_zero = int(hist[11])
        # tail[c] = #{|zeta| > c}, zeta = z / M
        b = np.abs(np.arange(-11, 12))
        res.zeta_tail = np.array([hist[b > c].sum() for c in range(11)])
