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

The position checks read the value's base-10**9 limbs and expand the
digits of only a few of them, without losing exactness:

* Consecutive-position bound.  With gap[x] = floor(x * log2(10)),
  gap[p + 1] >= p + 17 for every p >= 6: the integer gap[p + 1] - p
  exceeds (log2(10) - 1) * (p + 1) >= 16.25 (it is exactly 17 at p = 6,
  and 14 at p = 5).  Two consecutive nonzero digits that span no all-zero
  limb sit in the same limb or in adjacent ones, so they are at most 17
  apart, and the pair can fail only if its lower digit is below 6, in
  limb 0.  So the pairs whose lower digit lies in limb 0, plus one pair
  across each maximal run of zero limbs (the top nonzero digit below
  the run and the bottom nonzero digit above it), decide the check for
  every pair.
* The iterated bounds and e_k < 4**(k-1).  B_k >= 3**(k-1), and B_k <
  4**(k-1) because log2(10) < 4; once B_k passes the top position both
  hold for every later digit.  So only e_1..e_K count, K about
  log3 of the digit count, and every nonzero limb holds at least one
  nonzero digit: the lowest K + 1 nonzero limbs hold them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bignum import LIMB_DIGITS, digit_span, low_digit_positions, mod_pow2, trailing_zero_digits
from .power import PowerState


class PositionChecks(NamedTuple):
    gap_ok: bool
    fourpow_ok: bool  # includes the e_1 = 0 requirement
    bound_ok: bool  # e_k <= B_k against the iterated bound table


def check_positions(limbs: np.ndarray, gap_values: np.ndarray) -> PositionChecks:
    """Position checks on the nonzero digits of one value.

    limbs are the value's canonical base-10**9 limbs, lowest first;
    gap_values[x] is floor(x * log2(10)) and must cover index
    digit_count.  See the module docstring for why the digits of a few
    limbs decide every check.
    """
    count = np.count_nonzero(limbs)
    if count == 0:
        raise ValueError("no nonzero digits")
    last = LIMB_DIGITS * (limbs.size - 1) + len(str(int(limbs[-1]))) - 1
    bounds = [0]  # B_1 = 0, B_k = gap_values[B_{k-1} + 1], to the first past last
    while bounds[-1] <= last:
        bounds.append(int(gap_values[bounds[-1] + 1]))
    # the walks read e_k for k <= len(bounds); limb 0 holds at most nine
    # digits, so the pairs whose lower digit lies there are among the
    # first nine pairs
    need = max(len(bounds), LIMB_DIGITS + 1)
    if count < limbs.size:
        nz = np.flatnonzero(limbs)
    else:  # no zero limb
        nz = np.arange(min(need, limbs.size))
    low = low_digit_positions(limbs, nz, need)
    bound_ok = all(e <= b for e, b in zip(low, bounds))
    fourpow_ok = all(e < 4**k for k, e in zip(range(len(bounds)), low))
    gap_ok = all(b <= gap_values[a + 1] for a, b in zip(low, low[1 : LIMB_DIGITS + 1]))
    if gap_ok and count < limbs.size - nz[0]:  # a zero limb between nonzero ones
        jump = np.flatnonzero(np.diff(nz) > 1)
        _, below = digit_span(limbs, nz[jump])
        above, _ = digit_span(limbs, nz[jump + 1])
        gap_ok = bool(np.all(above <= gap_values[below + 1]))
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
