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

split_verdicts shares one conversion among consecutive rows
x_0, ..., x_l of a doubling chain.  bignum.is_doubled certifies each
link x_{j+1} == 2 * x_j from the limbs alone: with t_i = 2 * old_i -
new_i and carries c_0 = 0, c_{i+1} = [t_i >= 10**9 - 1], the equations
t_i + c_i == 10**9 * c_{i+1} and c_M = 0 make
sum((t_i + c_i - 10**9 * c_{i+1}) * 10**(9i)) telescope to
2 * old - new, so they prove the identity for any integers c_i, not
only for the carries the doubling computed.  Then x_l = 2**(l-j) * x_j
and v2(x_j) = v2(x_l) - (l - j) for nonzero values.  With
b = max_j(kmax_j + l - j) and r = x_l mod 2**b: r = 0 puts every
v2(x_j) at or above kmax_j, and otherwise v2(x_j) = v2(r) - (l - j)
exactly.  A link that fails its certificate cuts the rows there, and
each piece anchors at its own last row, so a broken chain costs one
conversion per piece and still gets exact verdicts; a zero anchor
sends its piece row by row.

The anchor is the last row, never the first.  The sweep holds the limb
arrays that each row's other checks read and decides the batch when
its last row is in: every link is certified, and r converted, from
the arrays as they are then.  A value changed at any moment after its
own checks either breaks a link, and is then decided alone from what
it holds, or, as the anchor, shows in r.  A first-row anchor would be
converted when the batch opens, and the later rows' verdicts would
rest on that early read: a value changed between two steps is doubled
from its changed self, so a link certified at the next step passes,
and the change never meets the conversion.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Sequence

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


def split_verdicts(rows: Sequence[tuple[np.ndarray, int]]) -> list[tuple[int, list[int]]]:
    """Split-bound verdicts of consecutive rows of a doubling chain.

    rows holds (limbs, kmax) for rows j = 0..l in step order, where
    limbs are row j's base-10**9 limbs and kmax its highest split
    position, at most digit_count-1 so that the high part is positive.
    Returns (kmax, failed positions) per row, each decided exactly from
    the row's own value: the rows need not hold powers of two, nor be a
    chain, and a batch of one row is the check of one value.  See the
    module docstring for how one conversion decides them all.
    """
    out: list[tuple[int, list[int]]] = []
    start = 0
    for end in range(1, len(rows) + 1):
        if end == len(rows) or not is_doubled(rows[end - 1][0], rows[end][0]):
            out += _chain_verdicts(rows[start:end])
            start = end
    return out


def _chain_verdicts(rows: Sequence[tuple[np.ndarray, int]]) -> list[tuple[int, list[int]]]:
    """split_verdicts of rows each certified twice the one before."""
    last = len(rows) - 1
    anchor = rows[-1][0]
    if last and anchor.size == 0:  # a zero chain: row by row
        return [v for row in rows for v in _chain_verdicts([row])]
    # x_l = 2**(l-j) * x_j, so v2(x_j) >= kmax_j exactly when
    # 2**(kmax_j + l - j) divides x_l
    bits = max((k + last - j for j, (_, k) in enumerate(rows) if k >= 1), default=0)
    r = mod_pow2(DecimalNat(anchor), bits)
    v2_anchor = (r & -r).bit_length() - 1 if r else bits
    out: list[tuple[int, list[int]]] = []
    for j, (limbs, kmax) in enumerate(rows):
        if kmax < 1:
            out.append((0, []))
        elif limbs.size == 0:
            out.append((kmax, list(range(1, kmax + 1))))  # A = 0 at every position
        else:
            v2 = min(v2_anchor - (last - j), kmax)
            zeros = trailing_zero_digits(DecimalNat(limbs))
            out.append((kmax, [*range(1, min(zeros, kmax) + 1), *range(v2 + 1, kmax + 1)]))
    return out

