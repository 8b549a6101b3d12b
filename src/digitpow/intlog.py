"""Exact integer routes to the floor-of-logarithm quantities.

floor(x * log2(10)) equals bit_length(10**x) - 1 exactly: 10**x is
never a power of two for x >= 1, so its bit length decides every
comparison against powers of two without rounding concerns.  The same
quantity powers the digit-count formula check and the bound recurrence
on nonzero-digit positions.  No floating point is used anywhere here.

floor_log2_pow10(x) computes one value when a caller needs it, from two
adjacent continued-fraction convergents P1/Q1 < log2 10 < P2/Q2.  For
x >= 1, x*P1/Q1 < x*log2 10 < x*P2/Q2, so where x*P1 // Q1 ==
x*P2 // Q2 that common value is the floor; where they differ (at
x = Q2, for one) the value comes from the bit length of 10**x.  The
bracket itself is checked exactly, 2**P1 < 10**Q1 and 2**P2 > 10**Q2,
from the bit lengths of 5**Q1 and 5**Q2, once per process.  A sweep
reads about 80 values: the 64 of its position table's head, B_1..B_15,
and two per digit count it meets.
"""

from __future__ import annotations

from functools import lru_cache

# Adjacent convergents of log2 10 = [3; 3, 9, 2, 2, 4, 6, 2, 1, 1, 3, 1, ...].
# Their floors differ at 7 x below 333334 (n = 1e6): 97879, 174452,
# 195758, 251025, 272331, 293637 and 327598; the pair before,
# 42039/12655, 70777/21306, differs at 17 x up to 10**5 and 200 below
# 333334.  Certifying this pair takes about 4.4 ms (best of 15, shared
# 2-vCPU Xeon).
_LOWER = (254370, 76573)
_UPPER = (325147, 97879)

# B_15 = 25731874 lies past the top digit of any value bignum.digit_tally
# counts (at most 1864135 limbs, about 1.68e7 digits), so no sweep row
# reads B_16; check_positions refuses a value whose top digit reaches B_15
BOUND_TABLE_MAX_K = 15


def _exact_floor_log2_pow10(x: int) -> int:
    """floor(x * log2(10)) for x >= 1; 0 for x = 0."""
    return (10**x).bit_length() - 1


@lru_cache(maxsize=None)
def _certify(lower: tuple[int, int], upper: tuple[int, int]) -> None:
    """Raise unless lower < log2 10 < upper, decided exactly.  For Q >= 1,
    2**P < 10**Q is 2**(P-Q) < 5**Q; 5**Q, odd and above 1, lies strictly
    between 2**(b-1) and 2**b for b its bit length, so that is P - Q < b,
    and 2**P > 10**Q is P - Q >= b.  No 2**P or 10**Q is formed."""
    (p1, q1), (p2, q2) = lower, upper
    if not (p1 - q1 < (5**q1).bit_length() and p2 - q2 >= (5**q2).bit_length()):
        raise RuntimeError(f"{p1}/{q1} and {p2}/{q2} do not bracket log2 10")


def floor_log2_pow10(x: int) -> int:
    """floor(x * log2(10)) for x >= 0."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    _certify(_LOWER, _UPPER)
    (p1, q1), (p2, q2) = _LOWER, _UPPER
    lo = x * p1 // q1
    return lo if lo == x * p2 // q2 else _exact_floor_log2_pow10(x)


def bound_table(k_max: int) -> tuple[int, ...]:
    """Iterate B_1 = 0, B_k = floor(log2(10) * (B_{k-1} + 1)) for k <= k_max."""
    if not 1 <= k_max <= BOUND_TABLE_MAX_K:
        raise ValueError(f"need 1 <= k_max <= {BOUND_TABLE_MAX_K}, got {k_max}")
    entries = [0]
    for _ in range(k_max - 1):
        entries.append(floor_log2_pow10(entries[-1] + 1))
    return tuple(entries)


def digit_sum_exceeds_log4(n: int, s: int) -> bool:
    """Exact truth of s > log4(n): equivalent to 2*s >= bit_length(n)."""
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    return 2 * s >= n.bit_length()


def digit_count_range(dc: int) -> tuple[int, int]:
    """(lo, hi) such that 2**n has dc digits exactly when lo <= n <= hi.

    Both sides of 10**(dc-1) <= 2**n < 10**dc reduce to bit-length
    comparisons because 10**x is never a power of two; the range is
    empty for dc < 1.
    """
    if dc < 1:
        return 1, 0
    return (floor_log2_pow10(dc - 1) + 1 if dc > 1 else 0), floor_log2_pow10(dc)
