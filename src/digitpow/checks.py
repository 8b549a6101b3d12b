"""Digit-position checks and the split bound on powers of two.

Two families of checks run per exponent:

* the positions e_1 < e_2 < ... of the nonzero digits must satisfy
  e_1 = 0, the consecutive-position bound
  e_k <= floor(log2(10) * (e_{k-1} + 1)), and e_k < 4**(k-1);
* the split bound: writing 2**n = low + high * 10**k with low < 10**k
  and high > 0 forces 2**k | low and low >= 2**k.

Everything here is exact integer arithmetic.  The tests compare both
against direct reference routes on Python ints (tests/oracles.py).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .bignum import mod_pow2, trailing_zero_digits
from .power import PowerState


class PositionChecks(NamedTuple):
    gap_ok: bool
    fourpow_ok: bool  # includes the e_1 = 0 requirement
    bound_ok: bool  # e_k <= B_k against the iterated bound table


def check_positions(
    pos: np.ndarray,
    gap_values: np.ndarray,
    bound_caps: np.ndarray,
    four_caps: np.ndarray,
) -> PositionChecks:
    """Vectorized position checks on one value's nonzero digits.

    pos holds the nonzero-digit positions ascending; gap_values must
    cover index pos[-1] + 1 and the caps arrays must have length >= m.
    """
    m = pos.size
    if m == 0:
        raise ValueError("no nonzero digits")
    # index the shifted view rather than build pos + 1: one m-sized
    # temporary less per row, and with three of them freed at the top of
    # the heap glibc trimmed and regrew it on every row (about 57 page
    # faults per row at n = 80000)
    gap_ok = bool(np.all(pos[1:] <= gap_values[1:][pos[:-1]]))
    e1_ok = bool(pos[0] == 0)
    fourpow_ok = e1_ok and bool(np.all(pos < four_caps[:m]))
    bound_ok = bool(np.all(pos <= bound_caps[:m]))
    return PositionChecks(gap_ok, fourpow_ok, bound_ok)


def scan_splits(state: PowerState, ks: Iterable[int]) -> tuple[int, list[int]]:
    """Batch split-bound check; returns (positions checked, failed positions).

    Every k must lie in 1..digit_count-1 so the high part is positive;
    the caller derives that range from the digit count.  No low part
    A = x mod 10**k is formed: for any positive x and k >= 1,

    * 2**k divides 10**k, so A = x (mod 2**k), and 2**k | A exactly
      when k <= v2(x);
    * A > 0 exactly when k exceeds the number of trailing zero digits
      of x;
    * a positive multiple of 2**k is at least 2**k, so A >= 2**k
      follows from the two above.

    None of this assumes x is a power of two, so the failed positions
    are those the split oracle in tests/oracles.py, which forms each A
    directly, reports.  The only big-integer work is x mod 2**K for the
    largest K.
    """
    if state.multiplier != 2:
        raise ValueError("the split bound applies to powers of two")
    todo = sorted(set(ks))
    if not todo:
        return 0, []
    x = state.value
    if x.is_zero():
        return len(todo), todo  # A = 0 at every position
    kmax = todo[-1]
    low = mod_pow2(x, kmax)
    v2 = (low & -low).bit_length() - 1 if low else kmax
    zeros = trailing_zero_digits(x)
    return len(todo), [k for k in todo if k <= zeros or k > v2]
