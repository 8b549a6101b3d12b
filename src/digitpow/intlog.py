"""Exact integer routes to the floor-of-logarithm quantities.

floor(x * log2(10)) equals bit_length(10**x) - 1 exactly: 10**x is
never a power of two for x >= 1, so its bit length decides every
comparison against powers of two without rounding concerns.  The same
quantity powers the digit-count formula check and the bound recurrence
on nonzero-digit positions.  No floating point is used anywhere here.

floor_log2_pow10 builds the values for x = 0..xmax in one numpy pass
from two adjacent continued-fraction convergents P1/Q1 < log2 10 <
P2/Q2.  For x >= 1, x*P1/Q1 < x*log2 10 < x*P2/Q2, so where
x*P1 // Q1 == x*P2 // Q2 that common value is the floor; where they
differ (at x = Q2, for one) the value comes from the bit length
of 10**x.  The bracket itself is checked exactly, 2**P1 < 10**Q1 and
2**P2 > 10**Q2, once per process.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Adjacent convergents of log2 10 = [3; 3, 9, 2, 2, 4, 6, 2, 1, 1, 3, 1, ...].
# Measured builds, certification included: the convergent pair before,
# 42039/12655, 70777/21306 takes 2.8 ms to x = 32707 (n = 1e5) but
# 6.8 s to x = 333334 (n = 1e6), with 1 and 200 exact fallbacks;
# this pair takes 20 ms and 0.26 s, with 0 and 7.
_LOWER = (254370, 76573)
_UPPER = (325147, 97879)

# bound_table(16) would need 10**(B_15 + 1) with B_15 = 25731874; the
# cost grows about 7x per k (K = 14 took 1.7 s, K = 15 10.7 s)
BOUND_TABLE_MAX_K = 15


def exact_floor_log2_pow10(x: int) -> int:
    """floor(x * log2(10)) for x >= 1; 0 for x = 0."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return (10**x).bit_length() - 1


@lru_cache(maxsize=None)
def _certify(lower: tuple[int, int], upper: tuple[int, int]) -> None:
    """Raise unless lower < log2 10 < upper, decided on exact powers."""
    (p1, q1), (p2, q2) = lower, upper
    if not (2**p1 < 10**q1 and 2**p2 > 10**q2):
        raise RuntimeError(f"{p1}/{q1} and {p2}/{q2} do not bracket log2 10")


def floor_log2_pow10(xmax: int) -> np.ndarray:
    """floor(x * log2(10)) for x = 0..xmax as a fresh int64 array."""
    if xmax < 0:
        raise ValueError(f"xmax must be >= 0, got {xmax}")
    (p1, q1), (p2, q2) = _LOWER, _UPPER
    if xmax > np.iinfo(np.int64).max // max(p1, p2):
        raise ValueError(f"xmax {xmax} would overflow int64 in x * {max(p1, p2)}")
    _certify(_LOWER, _UPPER)
    x = np.arange(xmax + 1, dtype=np.int64)
    out = x * p1
    out //= q1
    x *= p2  # in place: two row-sized arrays live, not four
    x //= q2
    for i in np.flatnonzero(out != x).tolist():
        out[i] = exact_floor_log2_pow10(i)
    return out


def bound_table(k_max: int) -> tuple[int, ...]:
    """Iterate B_1 = 0, B_k = floor(log2(10) * (B_{k-1} + 1)) for k <= k_max.

    Entries grow roughly 4x per step and the exact power of ten behind
    each floor grows with them, so k_max is capped at BOUND_TABLE_MAX_K.
    """
    if not 1 <= k_max <= BOUND_TABLE_MAX_K:
        raise ValueError(f"need 1 <= k_max <= {BOUND_TABLE_MAX_K}, got {k_max}")
    entries = [0]
    for _ in range(k_max - 1):
        entries.append(exact_floor_log2_pow10(entries[-1] + 1))
    return tuple(entries)


def digit_sum_exceeds_log4(n: int, s: int) -> bool:
    """Exact truth of s > log4(n): equivalent to 2*s >= bit_length(n)."""
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    return 2 * s >= n.bit_length()


def digit_count_range(dc: int, gap: np.ndarray) -> tuple[int, int]:
    """(lo, hi) such that 2**n has dc digits exactly when lo <= n <= hi.

    gap is floor_log2_pow10(xmax) for some xmax >= dc.  Both sides of
    10**(dc-1) <= 2**n < 10**dc reduce to bit-length comparisons because
    10**x is never a power of two; the range is empty for dc < 1.
    """
    if dc < 1:
        return 1, 0
    return (int(gap[dc - 1]) + 1 if dc > 1 else 0), int(gap[dc])

