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

* Consecutive-position bound.  With g(x) = floor(x * log2(10)) =
  intlog.floor_log2_pow10(x), g(p + 1) >= p + 17 for every p >= 6: the
  integer g(p + 1) - p exceeds (log2(10) - 1) * (p + 1) >= 16.25 (it is
  exactly 17 at p = 6, and 14 at p = 5).  Two consecutive nonzero digits
  that span no all-zero limb sit in the same limb or in adjacent ones,
  so they are at most 17 apart, and the pair can fail only if its lower
  digit is below 6, in limb 0.  So the pairs whose lower digit lies in
  limb 0, plus one pair across each maximal run of zero limbs (the top
  nonzero digit below the run and the bottom nonzero digit above it),
  decide the check for every pair.
* The iterated bounds and e_k < 4**(k-1).  B_k >= 3**(k-1), and B_k <
  4**(k-1) because log2(10) < 4; once B_k passes the top position both
  hold for every later digit.  So only e_1..e_K count, K about
  log3 of the digit count, and every nonzero limb holds at least one
  nonzero digit: the lowest K + 1 nonzero limbs hold them.  And e_k <=
  B_k implies e_k < 4**(k-1), so one loop decides both, reading
  4**(k-1) only where e_k > B_k.

A shortcut decides most rows from limb 0 alone.  If no limb is zero
and limb 0 has nonzero digits at positions 0 and 5 and at least one
among positions 1..3, every check passes:

* e_1 = 0, e_2 <= 3 = B_2 and e_3 <= 5 <= 13 = B_3.
* Limb 0 holds e_1..e_3 and every higher limb is nonzero, so e_k <=
  9 * (k - 2) - 1 = 9k - 19 for k >= 4, and 9k - 19 <= 3**(k-1) <= B_k
  < 4**(k-1).
* A pair with lower digit a = 0 ends at e_2 <= 3 = g(1).  A pair with a
  in 1..4 ends at or below 5 < 6 = g(2) <= g(a + 1).
* A pair with a = 5 ends in limb 0 or in limb 1, which is nonzero, so
  at or below 17 <= 19 = g(6).
* A pair with a >= 6 passes by the bound above, as there is no run of
  zero limbs.

Of the rows n = 30..10**5 of a sweep of 2**n, nine in ten take it; the
others expand their low limbs.

A corrupt value, one with a limb outside 0..10**9-1, is caught by one
range rule before either route: all three checks fail when any of the
lowest `need` nonzero limbs, the ones the walk may expand, is out of
range.  So the shortcut and the walk give a corrupt value the same
verdicts, and no table lookup reads past a chunk table.

What depends on no value is computed once, at import, so before any
sweep forks, and read by every row of a sweep and by decompose: BOUNDS,
B_1..B_15 from intlog.bound_table, which a row cuts at its top digit by
bisection; FOURS, the powers 4**(k-1) beside them; and G_HEAD, g(0..63),
all that the pairs in limb 0 read unless the lowest limbs hold few
nonzero digits.
Any other g(x) a row needs, for a pair higher up or across a run of
zero limbs, is computed when it is read.  So check_positions refuses a
value whose top digit sits at or past B_15 = 25731874, where B_16 would
be needed; a sweep never gets there, since bignum.digit_tally refuses a
value of more than 1864135 limbs first.  A row then expands the few
limbs it needs three digits at a time, from a table of the nonzero
positions of every 3-digit chunk.

A row that holds 2**n meets the split bound at every k <= min(n,
digit_count - 1), where the high part is positive: 2**k divides 10**k
and 2**n, so it divides the low part A = 2**n mod 10**k; 10**k does
not divide 2**n, so A > 0; and a positive multiple of 2**k is at least
2**k.  So a sweep of 2**n decides the split bound by proving that each
row holds 2**n (sweep.py), and forms no A.  Its lemma2_ok rests on two
facts: the state a band starts its rows from, at n = first row - 1,
equals 2**n as a Python int (PowerState.is_exact), and each row holds
twice the row before, certified from the limbs by bignum.is_doubled (a
proof for any int32 limbs, see its docstring).  A row whose link is
not certified fails, and so does every later row of its band: none of
them is proven to hold 2**n.  tests/oracles.py forms each A directly.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from .bignum import LIMB_BASE, LIMB_DIGITS, digit_span, low_digit_positions
from .intlog import BOUND_TABLE_MAX_K, bound_table, floor_log2_pow10


class PositionChecks(NamedTuple):
    gap_ok: bool
    fourpow_ok: bool  # includes the e_1 = 0 requirement
    bound_ok: bool  # e_k <= B_k against the iterated bound table


_PASSED = PositionChecks(True, True, True)


# the first nine pairs read g(a + 1) at their lower digit a, below 63
# unless the lowest seven limbs hold fewer than nine nonzero digits;
# past G_HEAD a pair computes its g(a + 1)
_HEAD = 64
BOUNDS = bound_table(BOUND_TABLE_MAX_K)
FOURS = tuple(4**k for k in range(BOUND_TABLE_MAX_K))
G_HEAD = tuple(floor_log2_pow10(x) for x in range(_HEAD))


def check_positions(limbs: np.ndarray, digit_count: int) -> PositionChecks:
    """Position checks on the nonzero digits of one value.

    limbs are the value's base-10**9 limbs, lowest first, and
    digit_count its number of digits, whose top one must sit below B_15.
    See the module docstring for why limb 0 decides most values,
    and the digits of a few limbs decide every value.  If any of the
    lowest `need` nonzero limbs lies outside 0..10**9-1, which no
    canonical value holds, all three fail.
    """
    size = limbs.size
    count = np.count_nonzero(limbs)
    if count == 0:
        raise ValueError("no nonzero digits")
    last = digit_count - 1
    if last >= BOUNDS[-1]:
        raise ValueError(f"top digit position {last} is not below B_{len(BOUNDS)} = {BOUNDS[-1]}")
    # the walks read e_k for k up to the first B_k past last, and limb 0
    # holds at most nine digits, so the pairs whose lower digit lies
    # there are among the first nine pairs
    need = max(bisect_right(BOUNDS, last) + 1, LIMB_DIGITS + 1)
    if count == size:  # no zero limb
        low_limbs = limbs[:need].tolist()
        pairs = enumerate(low_limbs)
    else:
        nz = np.flatnonzero(limbs)
        idx = nz[:need]
        low_limbs = limbs[idx].tolist()
        pairs = zip(idx.tolist(), low_limbs)
    if min(low_limbs) < 0 or max(low_limbs) >= LIMB_BASE:  # a corrupt value
        return PositionChecks(False, False, False)
    v0 = low_limbs[0]
    if count == size and v0 % 10 and v0 // 100000 % 10 and v0 // 10 % 1000:
        return _PASSED  # the shortcut of the module docstring
    low = low_digit_positions(pairs, need)
    # B_k < 4**(k-1), so e_k <= B_k passes both; past the first B_k
    # above last every e_k passes both, so zip may run past it
    bound_ok = fourpow_ok = True
    for e, b, f in zip(low, BOUNDS, FOURS):
        if e > b:
            bound_ok = False
            if e >= f:
                fourpow_ok = False
                break
    gap_ok = True
    for a, b in zip(low, low[1 : LIMB_DIGITS + 1]):
        if b > (G_HEAD[a + 1] if a + 1 < _HEAD else floor_log2_pow10(a + 1)):
            gap_ok = False
            break
    if gap_ok and count < size and count < size - nz[0]:  # a zero limb between nonzero ones
        jump = np.flatnonzero(np.diff(nz) > 1)
        _, below = digit_span(limbs, nz[jump])
        above, _ = digit_span(limbs, nz[jump + 1])
        gap_ok = all(a <= floor_log2_pow10(b + 1) for a, b in zip(above.tolist(), below.tolist()))
    return PositionChecks(gap_ok, fourpow_ok, bound_ok)
