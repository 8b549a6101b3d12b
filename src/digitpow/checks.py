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
  nonzero digit: the lowest K + 1 nonzero limbs hold them.  And e_k <=
  B_k implies e_k < 4**(k-1), so one loop decides both, reading
  4**(k-1) only where e_k > B_k.

What depends only on the floor table is built once per table
(PositionTable): the whole sequence B_k up to the table's end, which a
row cuts at its top digit by bisection, the powers 4**(k-1) beside it,
and the table's first 64 entries as Python ints, which are all that
the pairs in limb 0 read.  A sweep builds it with its table and again
whenever the table grows.  A row then expands the few limbs it needs
three digits at a time, from a table of the nonzero positions of every
3-digit chunk.

The split bound forms no low part A = x mod 10**k of a value x > 0:

* 2**k divides 10**k, so A = x (mod 2**k), and 2**k | A exactly when
  k <= v2(x);
* A > 0 exactly when k exceeds the number of trailing zero digits of x;
* a positive multiple of 2**k is at least 2**k, so A >= 2**k follows
  from the two above.

So for kmax <= digit_count-1 the failed positions are 1..zeros and
v2+1..kmax, disjoint because 10**zeros | x makes zeros <= v2.  None of
this assumes x is a power of two, so they are those the split oracle
in tests/oracles.py, which forms each A directly, reports.  The
trailing zeros are read from the row's own limbs; v2 needs a radix
conversion, x mod 2**K (bignum.mod_pow2), which is almost all of a
row's split cost.

split_verdict decides one row of a doubling chain from the row
before it, and converts only where the row cannot follow that row.
The state carried from row to row is a SplitBase: the row's limbs and
what is proven of v2 of their value, exactly v2 when v2 < bits, only
v2 >= bits otherwise.  When bignum.is_doubled certifies, from the limbs
alone, that a row holds twice the base's value (a proof for any limbs,
see its docstring), the row's v2 is one more, exact or at least bits +
1, and that decides every k <= kmax when it is exact or bits + 1 >=
kmax.  Any other row, the first with no base, converts on its own: r =
x mod 2**kmax, and v2 = v2(r) exactly when r != 0, else v2 >= kmax.  A
zero row converts to 0 and takes kmax as its trailing zeros, so it
fails at every position; only zero is certified to double into zero,
and zero's v2 is never exact, so a row after a zero follows it only
with bits enough, and fails at every position too.

In a sweep the bits always suffice: kmax = min(n, digit_count - 1)
grows by at most 1 per step, a converted row knows kmax bits of
itself, and a certified row one more than the row before.  So an
unbroken chain converts once, at its first row, and then only a row
whose link fails converts; the rows after it follow from it.

Each row is decided from a private, read-only copy of its limbs, taken
before anything is read from them, and that copy is the base the next
row links to.  So a base always holds the value its v2 was proven of:
if the row's own array changes after its verdict, the next value is
doubled from the changed array, the link from the unchanged copy fails
its certificate, and that row converts on its own rather than linking
to itself.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from .bignum import (
    LIMB_DIGITS,
    DecimalNat,
    digit_span,
    is_doubled,
    low_digit_positions,
    mod_pow2,
    trailing_zero_digits,
)


class PositionChecks(NamedTuple):
    gap_ok: bool
    fourpow_ok: bool  # includes the e_1 = 0 requirement
    bound_ok: bool  # e_k <= B_k against the iterated bound table


# gap[:_HEAD] is kept as a Python list: the first nine pairs read
# gap[a + 1] at their lower digit a, below 63 unless the lowest seven
# limbs hold fewer than nine nonzero digits; past it the array is read
_HEAD = 64


class PositionTable:
    """What check_positions reads of one floor table, built once per table.

    gap is floor_log2_pow10(xmax).  bounds holds B_1 = 0, B_k =
    gap[B_{k-1} + 1] for as long as the table reaches, so its last entry
    is at least xmax; fours holds 4**(k-1) beside each; head holds
    gap[:_HEAD] as Python ints.
    """

    __slots__ = ("gap", "bounds", "fours", "head")

    def __init__(self, gap: np.ndarray):
        bounds = [0]
        while bounds[-1] + 1 < gap.size:
            bounds.append(int(gap[bounds[-1] + 1]))
        self.gap = gap
        self.bounds = bounds
        self.fours = tuple(4**k for k in range(len(bounds)))
        self.head = gap[:_HEAD].tolist()


def check_positions(limbs: np.ndarray, table: PositionTable) -> PositionChecks:
    """Position checks on the nonzero digits of one value.

    limbs are the value's canonical base-10**9 limbs, lowest first;
    table is the PositionTable of a floor table that covers index
    digit_count, which a caller checking many values builds once.  See
    the module docstring for why the digits of a few limbs decide every
    check.
    """
    size = limbs.size
    count = np.count_nonzero(limbs)
    if count == 0:
        raise ValueError("no nonzero digits")
    last = LIMB_DIGITS * (size - 1) + len(str(int(limbs[-1]))) - 1
    if last >= table.gap.size - 1:
        raise ValueError(f"floor table of {table.gap.size} entries stops below {last + 2}")
    bounds = table.bounds
    # the walks read e_k for k up to the first B_k past last, and limb 0
    # holds at most nine digits, so the pairs whose lower digit lies
    # there are among the first nine pairs
    need = max(bisect_right(bounds, last) + 1, LIMB_DIGITS + 1)
    if count < size:
        nz = np.flatnonzero(limbs)
        idx = nz[:need]
        low = low_digit_positions(zip(idx.tolist(), limbs[idx].tolist()), need)
    else:  # no zero limb
        low = low_digit_positions(enumerate(limbs[:need].tolist()), need)
    # B_k < 4**(k-1), so e_k <= B_k passes both; past the first B_k
    # above last every e_k passes both, so zip may run past it
    bound_ok = fourpow_ok = True
    for e, b, f in zip(low, bounds, table.fours):
        if e > b:
            bound_ok = False
            if e >= f:
                fourpow_ok = False
                break
    gap_ok = True
    head, gap = table.head, table.gap
    for a, b in zip(low, low[1 : LIMB_DIGITS + 1]):
        if b > (head[a + 1] if a + 1 < _HEAD else gap[a + 1]):
            gap_ok = False
            break
    if gap_ok and count < size and count < size - nz[0]:  # a zero limb between nonzero ones
        jump = np.flatnonzero(np.diff(nz) > 1)
        _, below = digit_span(limbs, nz[jump])
        above, _ = digit_span(limbs, nz[jump + 1])
        gap_ok = bool(np.all(above <= gap[below + 1]))
    return PositionChecks(gap_ok, fourpow_ok, bound_ok)


class SplitBase(NamedTuple):
    """A decided row, which the next row may follow: its limbs, a
    private read-only copy, and what is proven of v2 of their value,
    exactly v2 when v2 < bits, else only v2 >= bits."""

    limbs: np.ndarray
    v2: int
    bits: int


def split_verdict(
    limbs: np.ndarray, kmax: int, base: SplitBase | None = None
) -> tuple[list[int], SplitBase]:
    """Split-bound verdict of one row of a doubling chain.

    limbs are the row's base-10**9 limbs and kmax its highest split
    position, at most digit_count-1 so that the high part is positive.
    base is what the call for the row before returned, or None.
    Returns the failed positions in 1..kmax, decided exactly from the
    row's own value: the row need not hold a power of two nor follow
    the base.  Also returns the base for the next row, which holds a
    copy of limbs taken before anything is read from them.  See the
    module docstring for why a chain needs only one conversion.
    """
    limbs = limbs.copy()
    limbs.flags.writeable = False
    if (
        base is not None
        and (base.v2 < base.bits or base.bits + 1 >= kmax)
        and is_doubled(base.limbs, limbs)
    ):
        # twice base's value: v2 and the bits known of it move up by 1
        v2, bits = base.v2 + 1, base.bits + 1
    else:
        bits = kmax
        r = mod_pow2(DecimalNat(limbs), bits)
        v2 = (r & -r).bit_length() - 1 if r else bits
    zeros = trailing_zero_digits(DecimalNat(limbs)) if limbs.size else kmax
    failed = [*range(1, min(zeros, kmax) + 1), *range(v2 + 1, kmax + 1)]
    return failed, SplitBase(limbs, v2, bits)
