"""Exact solvability of the occupancy-from-potential linear systems.

The asymmetric system u_k = xi_k + xi_{k+1} has a unique solution for odd M
and is solvable for even M exactly when the alternating (odd vs even index)
sums of u agree, leaving one free parameter.  The symmetric system
u_k = xi_{k-1} + xi_k + xi_{k+1} is uniquely solvable unless M is divisible
by 3, in which case solvability requires the three residue-class sums of u to
coincide and leaves two free parameters.

One solver per window takes a batch of rows of integer numerators n, shape
(N, M), and returns per row the outcome and the integer numerators of xi over
one denominator.  Both recurrences are prefix sums, so a batch takes O(M)
numpy passes whatever N.  The arithmetic is exact: in Python ints for an
object array, and in int64 while every value fits (with |n| <= 60, every
value stays below 2^62 up to 2^50 sites).  The scalar solvers scale u to integers over
one common denominator, solve it as one object row, and build
fractions.Fraction entries only at the boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class Unique:
    xi: tuple[Fraction, ...]


@dataclass(frozen=True)
class Family:
    """Affine solution family; the base has all free parameters set to 0."""

    base: tuple[Fraction, ...]
    free_parameters: int


@dataclass(frozen=True)
class Infeasible:
    condition: str  # "parity" for asymmetric even M, "mod3" for symmetric 3|M


SolveOutcome = Unique | Family | Infeasible

# Per-row outcome codes of the batch solvers.
UNIQUE, FAMILY, INFEASIBLE = 0, 1, 2


class BatchSolution(NamedTuple):
    outcome: np.ndarray  # (N,) UNIQUE, FAMILY or INFEASIBLE
    x: np.ndarray  # (N, M) numerators of xi (of the family base) over den; junk where infeasible
    den: int


def _scaled(u: Sequence) -> tuple[list[int], int]:
    """Integers n and a common denominator d > 0 with u_k = n_k / d exactly."""
    if all(isinstance(x, int) for x in u):
        return [int(x) for x in u], 1
    uf = [Fraction(x) for x in u]
    d = math.lcm(*(x.denominator for x in uf))
    return [x.numerator * (d // x.denominator) for x in uf], d


def solve_asym_batch(n: np.ndarray) -> BatchSolution:
    """Solve u_k = xi_k + xi_{k+1} for each row of numerators n, shape (N, M), M >= 3.

    x_k = (-1)^k (x_0 + f c_k) with c_k = sum_{j<k} (-1)^{j+1} n_j.  At odd M,
    f = 2, x_0 = sum_even n - sum_odd n = -c_M and den = 2.  At even M the
    base has x_0 = 0, f = 1 and den = 1, and a row is solvable iff c_M = 0.
    """
    rows, m = n.shape
    if m < 3:
        raise ValueError(f"asymmetric system needs M >= 3, got {m}")
    sign = 1 - 2 * (np.arange(m) % 2)  # (-1)^k
    s = -sign * n
    c = np.cumsum(s, axis=1)
    total = c[:, -1].copy()
    c -= s  # the exclusive prefix sums c_k
    if m % 2 == 1:
        c *= 2
        c -= total[:, None]
        c *= sign
        return BatchSolution(np.full(rows, UNIQUE), c, 2)
    c *= sign
    return BatchSolution(np.where(total == 0, FAMILY, INFEASIBLE), c, 1)


# xi_k's coefficients of xi_1 (row 0) and xi_2 (row 1) when the symmetric
# equations 2..M-1 propagate them; both repeat with period 3.
_PERIOD3 = np.array([[1, 0, -1], [0, 1, -1]])


def solve_sym_batch(n: np.ndarray) -> BatchSolution:
    """Solve u_k = xi_{k-1} + xi_k + xi_{k+1} for each row of numerators n, shape (N, M), M >= 4.

    Equations 2..M-1 give xi_k = p_k + a_k xi_1 + b_k xi_2 with p_1 = p_2 = 0,
    p_3 = n_2 and p_k = p_{k-3} + n_{k-1} - n_{k-2}: a prefix sum along each
    residue class mod 3.  At 3 | M the base is p (den = 1), solvable iff the
    three residue-class sums of n agree.  Otherwise equations 1 and M close the
    loop with a 2x2 determinant of +-3, so den = 3.
    """
    rows, m = n.shape
    if m < 4:
        raise ValueError(f"symmetric system needs M >= 4, got {m}")
    e = np.zeros((rows, m + (-m) % 3), dtype=n.dtype)
    e[:, 2] = n[:, 1]
    e[:, 3:m] = n[:, 2 : m - 1] - n[:, 1 : m - 2]
    p = np.cumsum(e.reshape(rows, -1, 3), axis=1).reshape(rows, -1)[:, :m]
    if m % 3 == 0:
        sums = n.reshape(rows, -1, 3).sum(axis=1)
        feasible = (sums[:, 0] == sums[:, 1]) & (sums[:, 1] == sums[:, 2])
        return BatchSolution(np.where(feasible, FAMILY, INFEASIBLE), p, 1)

    a, b = _PERIOD3[:, np.arange(m) % 3]
    # eq 1: xi_M + xi_1 + xi_2 = u_1 ; eq M: xi_{M-1} + xi_M + xi_1 = u_M
    a11, a12 = int(a[m - 1]) + 1, int(b[m - 1]) + 1
    a21, a22 = int(a[m - 2] + a[m - 1]) + 1, int(b[m - 2] + b[m - 1])
    det = a11 * a22 - a12 * a21
    assert abs(det) == 3, f"closing determinant {det} for M={m}"
    r1 = n[:, 0] - p[:, m - 1]
    r2 = n[:, m - 1] - p[:, m - 2] - p[:, m - 1]
    # 3 * xi_1 and 3 * xi_2 by Cramer's rule, the sign of det moved into them
    x1 = (det // 3) * (r1 * a22 - r2 * a12)
    x2 = (det // 3) * (a11 * r2 - a21 * r1)
    x = 3 * p + a * x1[:, None] + b * x2[:, None]
    return BatchSolution(np.full(rows, UNIQUE), x, 3)


def _solve_one(solve, u: Sequence, condition: str, free_parameters: int) -> SolveOutcome:
    """One exact row of a batch solver, with Fraction entries."""
    n, d = _scaled(u)
    outcome, x, den = solve(np.array([n], dtype=object))
    if outcome[0] == INFEASIBLE:
        return Infeasible(condition)
    xi = tuple(Fraction(v, den * d) for v in x[0].tolist())
    return Unique(xi) if outcome[0] == UNIQUE else Family(xi, free_parameters)


def solve_occupancy_asym(u: Sequence) -> SolveOutcome:
    """Solve u_k = xi_k + xi_{k+1} on a ring of M = len(u) >= 3 sites."""
    return _solve_one(solve_asym_batch, u, "parity", 1)


def solve_occupancy_sym(u: Sequence) -> SolveOutcome:
    """Solve u_k = xi_{k-1} + xi_k + xi_{k+1} on a ring of M = len(u) >= 4 sites."""
    return _solve_one(solve_sym_batch, u, "mod3", 2)


def parity_invariant(v: Sequence) -> bool:
    """Whether the odd-site and even-site sums of v coincide (even M only)."""
    m = len(v)
    if m % 2 != 0:
        raise ValueError(f"parity condition is defined for even M only, got M={m}")
    return sum(v[0::2]) == sum(v[1::2])


def mod3_invariant(values: Sequence) -> bool:
    """Whether the three residue-class sums coincide (M divisible by 3 only)."""
    m = len(values)
    if m % 3 != 0:
        raise ValueError(f"mod-3 condition is defined for M divisible by 3 only, got M={m}")
    sums = [sum(values[j::3]) for j in range(3)]
    return sums[0] == sums[1] == sums[2]
