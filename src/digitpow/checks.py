"""Digit-position checks and the split bound on powers of two.

Two families of checks run per exponent:

* the positions e_1 < e_2 < ... of the nonzero digits must satisfy
  e_1 = 0, the consecutive-position bound
  e_k <= floor(log2(10) * (e_{k-1} + 1)), e_k <= B_k for the iterated
  bounds B_1 = 0, B_k = floor(log2(10) * (B_{k-1} + 1)), and
  e_k < 4**(k-1);
* the split bound: writing 2**n = low + high * 10**k with low < 10**k
  and high > 0 forces 2**k | low and low >= 2**k.

Both are checked in full for every exponent, in exact integer
arithmetic.  The tests compare both against direct reference routes on
Python ints (tests/oracles.py).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bignum import mod_pow2, trailing_zero_digits
from .power import PowerState


class PositionChecks(NamedTuple):
    gap_ok: bool
    fourpow_ok: bool  # includes the e_1 = 0 requirement
    bound_ok: bool  # e_k <= B_k against the iterated bound table


def check_positions(pos: np.ndarray, gap_values: np.ndarray) -> PositionChecks:
    """Position checks on one value's nonzero digits.

    pos holds the nonzero-digit positions ascending; gap_values[x] is
    floor(x * log2(10)) and must cover index pos[-1] + 1.  The bounds
    e_k <= B_k and e_k < 4**(k-1) grow about 4x per k, so only the first
    few digits can break them: once a bound passes pos[-1], every later
    position is within it.
    """
    m = pos.size
    if m == 0:
        raise ValueError("no nonzero digits")
    # index the shifted view rather than build pos + 1: one m-sized
    # temporary less per row; freed at the top of the heap, such
    # temporaries made glibc trim and regrow it on every row (about 57
    # page faults per row at n = 80000)
    gap_ok = bool(np.all(pos[1:] <= gap_values[1:][pos[:-1]]))
    last = int(pos[-1])
    bound_ok = True
    k, b = 0, 0  # B_1 = 0, B_k = gap_values[B_{k-1} + 1]
    while bound_ok and k < m and b <= last:
        bound_ok = int(pos[k]) <= b
        k, b = k + 1, int(gap_values[b + 1])
    fourpow_ok = True
    k, cap = 0, 1  # at k = 0, pos[0] < 4**0 is e_1 = 0
    while fourpow_ok and k < m and cap <= last:
        fourpow_ok = int(pos[k]) < cap
        k, cap = k + 1, 4 * cap
    return PositionChecks(gap_ok, fourpow_ok, bound_ok)


def scan_splits(state: PowerState, kmax: int) -> tuple[int, list[int]]:
    """Split-bound check at every k in 1..kmax; returns (kmax, failed positions).

    kmax must be at most digit_count-1 so the high part is positive;
    the caller derives it from the digit count.  No low part
    A = x mod 10**k is formed: for any positive x and k >= 1,

    * 2**k divides 10**k, so A = x (mod 2**k), and 2**k | A exactly
      when k <= v2(x);
    * A > 0 exactly when k exceeds the number of trailing zero digits
      of x;
    * a positive multiple of 2**k is at least 2**k, so A >= 2**k
      follows from the two above.

    So the failed positions are 1..zeros and v2+1..kmax, disjoint
    because 10**zeros | x makes zeros <= v2.  None of this assumes x is
    a power of two, so they are those the split oracle in
    tests/oracles.py, which forms each A directly, reports.  The only
    big-integer work is x mod 2**kmax.
    """
    if state.multiplier != 2:
        raise ValueError("the split bound applies to powers of two")
    if kmax < 1:
        return 0, []
    x = state.value
    if x.is_zero():
        return kmax, list(range(1, kmax + 1))  # A = 0 at every position
    low = mod_pow2(x, kmax)
    v2 = (low & -low).bit_length() - 1 if low else kmax
    zeros = trailing_zero_digits(x)
    return kmax, [*range(1, min(zeros, kmax) + 1), *range(v2 + 1, kmax + 1)]
