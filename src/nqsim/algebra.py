"""Exact solvability of the occupancy-from-potential linear systems.

The asymmetric system u_k = xi_k + xi_{k+1} has a unique solution for odd M
and is solvable for even M exactly when the alternating (odd vs even index)
sums of u agree, leaving one free parameter.  The symmetric system
u_k = xi_{k-1} + xi_k + xi_{k+1} is uniquely solvable unless M is divisible
by 3, in which case solvability requires the three residue-class sums of u to
coincide and leaves two free parameters.

All arithmetic is exact: the potentials are scaled to integers over one
common denominator, the recurrences and the Unique/Family/Infeasible
boundaries run in integer arithmetic without any floating point, and only the
returned entries are built as fractions.Fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


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


def _scaled(u: Sequence) -> tuple[list[int], int]:
    """Integers n and a common denominator d > 0 with u_k = n_k / d exactly."""
    if all(isinstance(x, int) for x in u):
        return [int(x) for x in u], 1
    uf = [Fraction(x) for x in u]
    d = math.lcm(*(x.denominator for x in uf))
    return [x.numerator * (d // x.denominator) for x in uf], d


def solve_occupancy_asym(u: Sequence) -> SolveOutcome:
    """Solve u_k = xi_k + xi_{k+1} on a ring of M = len(u) >= 3 sites."""
    m = len(u)
    if m < 3:
        raise ValueError(f"asymmetric system needs M >= 3, got {m}")
    n, d = _scaled(u)

    if m % 2 == 1:
        # xi_1 = (u_M - u_{M-1} + ... - u_2 + u_1) / 2, then peel off one
        # equation at a time; x holds 2 * d * xi.
        x = [sum(n[0::2]) - sum(n[1::2])]
        for k in range(1, m):
            x.append(2 * n[k - 1] - x[k - 1])
        return Unique(tuple(Fraction(v, 2 * d) for v in x))

    if sum(n[0::2]) != sum(n[1::2]):
        return Infeasible("parity")
    x = [0]  # d * base
    for k in range(1, m):
        x.append(n[k - 1] - x[k - 1])
    return Family(tuple(Fraction(v, d) for v in x), free_parameters=1)


def _propagate_sym(n: list[int]) -> list[int]:
    # Equations 2..M-1 determine xi_3..xi_M from xi_1 = xi_2 = 0.
    p = [0, 0]
    for k in range(2, len(n)):
        p.append(n[k - 1] - p[k - 1] - p[k - 2])
    return p


def solve_occupancy_sym(u: Sequence) -> SolveOutcome:
    """Solve u_k = xi_{k-1} + xi_k + xi_{k+1} on a ring of M = len(u) >= 4 sites."""
    m = len(u)
    if m < 4:
        raise ValueError(f"symmetric system needs M >= 4, got {m}")
    n, d = _scaled(u)

    if m % 3 == 0:
        sums = [sum(n[j::3]) for j in range(3)]
        if not sums[0] == sums[1] == sums[2]:
            return Infeasible("mod3")
        return Family(tuple(Fraction(v, d) for v in _propagate_sym(n)), free_parameters=2)

    # Propagate symbolically: xi_k = p_k + a_k*xi_1 + b_k*xi_2 (p held as
    # d * p) where the homogeneous coefficients cycle with period 3 (a, b,
    # -a-b).  The two unused equations (k=1 and k=M) close the loop; their
    # 2x2 determinant is -3 whenever M is not divisible by 3.
    p = _propagate_sym(n)
    a = [1, 0]
    b = [0, 1]
    for k in range(2, m):
        a.append(-a[k - 1] - a[k - 2])
        b.append(-b[k - 1] - b[k - 2])

    # eq 1: xi_M + xi_1 + xi_2 = u_1 ; eq M: xi_{M-1} + xi_M + xi_1 = u_M
    a11, a12 = a[m - 1] + 1, b[m - 1] + 1
    a21, a22 = a[m - 2] + a[m - 1] + 1, b[m - 2] + b[m - 1]
    r1 = n[0] - p[m - 1]
    r2 = n[m - 1] - p[m - 2] - p[m - 1]
    det = a11 * a22 - a12 * a21
    assert abs(det) == 3, f"closing determinant {det} for M={m}"
    # det * d * xi_1 and det * d * xi_2 (Cramer's rule)
    x1 = r1 * a22 - r2 * a12
    x2 = a11 * r2 - a21 * r1
    return Unique(tuple(Fraction(det * p[k] + a[k] * x1 + b[k] * x2, det * d) for k in range(m)))


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
