"""Unsigned big integers stored as little-endian base-10**9 limbs.

The limb base is a power of ten so that the digit-level questions a
power sweep keeps asking (digit sum, digit count, digit positions) are
limb-local, while the hot path of the sweep, repeated doubling,
vectorizes over the limb array with numpy.

Every limb array is int32 (_LIMB_DTYPE): a limb is below 10**9 < 2**30,
so twice a limb, and 2 * old - new for two limbs, fit int32, and each
per-row pass moves half the bytes of int64.  The per-row kernels keep
their carries in that dtype too, since a ufunc that mixes bool and int
operands costs about twice the same-dtype one.  Only where a product
can pass 2**31 is it formed in int64: mul_small's limb * c, the limb
pairs of to_int's fold, and the weighted digit sum of parsing.

Two rules for the per-row kernels, measured on numpy 2.4.  A ufunc
handed a Python int converts it on every call, about 0.3 us, a quarter
of a pass over 2700 limbs; so the kernels' scalar operands are 0-d
module constants of the operands' dtype.  And a table is gathered by
np.take on the int32 index in "wrap" mode, into the index array: that
mode takes out= without the copy the default mode makes, so no output
array is allocated.  Fancy indexing with the int32 index costs about
twice an intp cast plus the gather, and the default-mode np.take
measured slower than the cast inside digit_tally.

Decimal text is rendered from a table, not digit by digit.  A limb is
split into its top digit and two 4-digit words, and _ASCII4 holds, for
each word w = 0..9999, one uint32 whose four bytes are the ASCII digits
of w.  Two gathers drop those words into an (L, 9) uint8 array whose
rows, in order, are the value's text: one pass of // and - per split,
where a digit-at-a-time route takes nine.  The table is 40 KB, built
by numpy at import (before any fork) in well under a millisecond.
to_decimal_string strips the leading zeros of that text, and
digit_scan reads its digits from it backwards.

Canonical form: the top limb of a nonzero value is nonzero, and zero is
the empty limb sequence.  Every constructor produces canonical values.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

LIMB_BASE = 10**9
LIMB_DIGITS = 9

_LIMB_DTYPE = np.int32
_EMPTY = np.empty(0, dtype=_LIMB_DTYPE)
# what a sweep's summary names as the backend it ran on
BACKEND = f"numpy {np.__version__}, {np.dtype(_LIMB_DTYPE).name} limbs"
# the kernels' scalar operands, as 0-d arrays of their operands' dtype
_BASE = np.array(LIMB_BASE, dtype=_LIMB_DTYPE)
_BASE64 = np.array(LIMB_BASE, dtype=np.int64)
_HALF_BASE = np.array(LIMB_BASE // 2, dtype=_LIMB_DTYPE)
_CHUNK5 = np.array(100000, dtype=_LIMB_DTYPE)
# the digits of each 3-digit chunk c = 0..999, lowest first, and which
# of them are nonzero as a 3-bit mask
_CHUNK_DIGITS = np.arange(1000, dtype=np.int32)[:, None] // np.array([1, 10, 100]) % 10
_CHUNK_MASK = ((_CHUNK_DIGITS != 0) << np.arange(3)).sum(axis=1).tolist()
# per 3-digit chunk: its nonzero-digit count in the low 24 bits and its
# digit sum above them
_CHUNK_TALLY = (
    np.count_nonzero(_CHUNK_DIGITS, axis=1) + (_CHUNK_DIGITS.sum(axis=1) << 24)
).astype(np.int32)
# the same per 5-digit chunk c = 0..99999, 0.4 MiB, built as c // 1000
# and c % 1000 without an int64 temporary; a limb is read as its low 5
# digits and its high 4.  A limb packs at most 81 << 24 | 9 < 2**31, so
# the sum of its two entries stays in int32, and a value's packed total,
# summed in int64, stays exact while its nonzero count, at most 9 per
# limb, fits 24 bits: up to (2**24 - 1) // 9 = 1864135 limbs, about
# 1.68e7 digits, below B_15 = 25731874, where checks.check_positions
# stops
_CHUNK5_TALLY = (_CHUNK_TALLY[:100, None] + _CHUNK_TALLY[None, :]).ravel()
_TALLY_MAX_LIMBS = (2**24 - 1) // 9
# per 3-digit chunk c, the positions of its nonzero digits, lowest first,
# plus 0, 3 and 6: the chunks of a limb, low to high, at their offsets
_CHUNK_POSITIONS = tuple(
    tuple(subsets[m] for m in _CHUNK_MASK)
    for subsets in [
        [tuple(off + j for j in range(3) if m >> j & 1) for m in range(8)] for off in (0, 3, 6)
    ]
)
# 10**1..10**8; a nonzero limb has as many digits as entries <= it, plus one
_POW10 = 10 ** np.arange(1, LIMB_DIGITS, dtype=_LIMB_DTYPE)
# big-endian place values of one limb, for string parsing
_PARSE_WEIGHTS = 10 ** np.arange(LIMB_DIGITS - 1, -1, -1, dtype=np.int64)
# the renderer's operands and its table; _ASCII4[w] joins the ASCII
# digit pairs of w // 100 and w % 100, each read as one uint16
_E8 = np.array(10**8, dtype=_LIMB_DTYPE)
_E4 = np.array(10**4, dtype=_LIMB_DTYPE)
_ZERO_CHAR = np.array(ord("0"), dtype=np.uint8)
# the ASCII digits of 00..99, one uint16 each, as a column
_PAIRS = (
    (np.arange(100)[:, None] // np.array([10, 1]) % 10 + _ZERO_CHAR).astype(np.uint8).view(np.uint16)
)
_ASCII4 = np.stack(np.broadcast_arrays(_PAIRS, _PAIRS.T), axis=-1).view(np.uint32).ravel()


class DecimalNat:
    """One unsigned integer as a canonical limb array.

    Instances are plain data.  Treat them as immutable except through
    ``double_in_place``, which requires exclusive access to the
    instance; sharing read-only across threads is fine.
    """

    __slots__ = ("limbs",)

    def __init__(self, limbs: np.ndarray):
        # the cheap top-limb assertion catches representation bugs at
        # every construction site; the tests check the full limb range
        assert limbs.dtype == _LIMB_DTYPE
        assert limbs.size == 0 or limbs[-1] != 0, "non-canonical: zero top limb"
        self.limbs = limbs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecimalNat):
            return NotImplemented
        return np.array_equal(self.limbs, other.limbs)

    def __repr__(self) -> str:
        if self.limbs.size <= 2:
            return f"DecimalNat({to_decimal_string(self)})"
        return f"DecimalNat(<{digit_count(self)} digits>)"

    __hash__ = None  # mutable through double_in_place


def zero() -> DecimalNat:
    return DecimalNat(_EMPTY)


def from_small(v: int) -> DecimalNat:
    """Build a value from a machine-scale (or any) nonnegative int."""
    if v < 0:
        raise ValueError(f"negative value: {v}")
    limbs = []
    while v:
        v, r = divmod(v, LIMB_BASE)
        limbs.append(r)
    return DecimalNat(np.array(limbs, dtype=_LIMB_DTYPE))


def from_decimal_string(s: str) -> DecimalNat:
    """Parse a decimal string: digits only, no leading zeros except "0"."""
    try:
        raw = s.encode("ascii")
    except (UnicodeEncodeError, AttributeError):
        raise ValueError(f"not a decimal string: {s!r}") from None
    if not raw:
        raise ValueError("empty string is not a number")
    d = np.frombuffer(raw, dtype=np.uint8).astype(np.int64) - 48
    if ((d < 0) | (d > 9)).any():
        raise ValueError(f"not a decimal string: {s!r}")
    if d.size > 1 and d[0] == 0:
        raise ValueError(f"leading zero: {s!r}")
    if d.size == 1 and d[0] == 0:
        return zero()
    pad = (-d.size) % LIMB_DIGITS
    if pad:
        d = np.concatenate([np.zeros(pad, dtype=np.int64), d])
    # the weighted sum, summed in int64, is a limb below 10**9
    limbs = (d.reshape(-1, LIMB_DIGITS) * _PARSE_WEIGHTS).sum(axis=1)[::-1]
    return DecimalNat(limbs.astype(_LIMB_DTYPE))


def _trim(arr: np.ndarray) -> np.ndarray:
    n = arr.size
    while n and arr[n - 1] == 0:
        n -= 1
    return arr[:n]


def _ascii_rows(limbs: np.ndarray) -> np.ndarray:
    """(L, 9) uint8 matrix of ASCII digits: row i holds the nine digits of
    limbs[L - 1 - i], most significant first, so the rows read in order
    are the value's decimal text, zero-padded to 9 * L digits."""
    l = limbs[::-1]
    out = np.empty((l.size, LIMB_DIGITS), dtype=np.uint8)
    top = l // _E8
    rest = l - top * _E8
    top += _ZERO_CHAR
    out[:, 0] = top
    mid = rest // _E4
    rest -= mid * _E4
    # mid and rest lie in 0..9999, so "wrap" gathers what indexing would;
    # each 4-byte word lands, unaligned, in its row's four digit columns
    t = _ASCII4
    t.take(mid, mode="wrap", out=out[:, 1:5].view(np.uint32)[:, 0])
    t.take(rest, mode="wrap", out=out[:, 5:].view(np.uint32)[:, 0])
    return out


def to_decimal_string(x: DecimalNat) -> str:
    if x.limbs.size == 0:
        return "0"
    return _ascii_rows(x.limbs).tobytes().lstrip(b"0").decode("ascii")


def digit_scan(x: DecimalNat) -> list[tuple[int, int]]:
    """Nonzero digits as (digit, position) pairs, position ascending."""
    flat = _ascii_rows(x.limbs).ravel()[::-1] - _ZERO_CHAR
    pos = np.flatnonzero(flat)
    return list(zip(flat[pos].tolist(), pos.tolist()))


def digit_tally(x: DecimalNat) -> tuple[int, int]:
    """(digit sum, number of nonzero digits), read per 4- and 5-digit chunk."""
    l = x.limbs
    if l.size > _TALLY_MAX_LIMBS:
        raise ValueError(f"{l.size} limbs overflow the packed digit tally")
    # divide and subtract: integer % costs about three times //
    hi = l // _CHUNK5
    low = hi * _CHUNK5
    np.subtract(l, low, out=low)
    # low lies in 0..99999 and hi in -21475..21474 for any int32 limb, so
    # "wrap" gathers what indexing would, into the index arrays themselves
    t = _CHUNK5_TALLY
    t.take(low, mode="wrap", out=low)
    low += t.take(hi, mode="wrap", out=hi)
    acc = int(np.add.reduce(low))  # summed in int64, as .sum() would
    return acc >> 24, acc & 0xFFFFFF


def digit_sum(x: DecimalNat) -> int:
    return digit_tally(x)[0]


def low_digit_positions(limbs: Iterable[tuple[int, int]], count: int) -> list[int]:
    """Positions of the lowest nonzero digits, ascending.

    limbs yields (index, value) of nonzero limbs, ascending, from the
    lowest one on; they are expanded whole, one at a time, until at
    least count positions are in hand or limbs runs out.  Each holds a
    nonzero digit, so count of them are enough.  Every limb it expands
    must lie in 0..LIMB_BASE-1.
    """
    p0, p3, p6 = _CHUNK_POSITIONS
    out: list[int] = []
    for i, v in limbs:
        hi, v = divmod(v, 1000000)
        mid, v = divmod(v, 1000)
        local = p0[v] + p3[mid] + p6[hi]
        if i:
            e = LIMB_DIGITS * i
            out += [e + p for p in local]
        else:
            out += local
        if len(out) >= count:
            break
    return out


def digit_span(limbs: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the lowest and the highest nonzero digit of each limb
    limbs[idx]; every indexed limb must be nonzero."""
    v = limbs[idx]
    base = LIMB_DIGITS * idx
    low = base + (v[:, None] % _POW10 == 0).sum(axis=1)
    high = base + np.searchsorted(_POW10, v, side="right")
    return low, high


def digit_count(x: DecimalNat) -> int:
    if x.limbs.size == 0:
        # refusing the zero convention instead of picking one
        raise ValueError("digit count of zero is undefined")
    return LIMB_DIGITS * (x.limbs.size - 1) + len(str(int(x.limbs[-1])))


def double_in_place(x: DecimalNat) -> DecimalNat:
    """Double the value, mutating x; returns x."""
    l = x.limbs
    if l.size == 0:
        return x
    t = l + l  # below 2 * 10**9 < 2**31
    carry = t // _BASE  # 0 or 1, in the limbs' dtype
    top = carry[-1]
    # carries never cascade: 2*limb - BASE + 1 <= 999999999 < BASE
    t[1:] += carry[:-1]
    carry *= _BASE
    t -= carry
    if top:
        t = np.append(t, _LIMB_DTYPE(1))
    x.limbs = t
    return x


def mul_small(x: DecimalNat, c: int) -> DecimalNat:
    """Multiply by a small natural c < LIMB_BASE; returns a new value."""
    if not 0 <= c < LIMB_BASE:
        raise ValueError(f"multiplier must be in 0..{LIMB_BASE - 1}, got {c}")
    p = x.limbs.astype(np.int64) * c  # limb * c < 10**18, fits int64
    carry = p // _BASE64
    p -= carry * _BASE64
    # limbs < 10**9 and carries < c from here on: limb + carry < 2**31
    p, carry = p.astype(_LIMB_DTYPE), carry.astype(_LIMB_DTYPE)
    while carry.any():
        if carry[-1]:
            p = np.append(p, _LIMB_DTYPE(0))
            carry = np.append(carry, _LIMB_DTYPE(0))
        p[1:] += carry[:-1]
        carry = p // _BASE
        p -= carry * _BASE
    return DecimalNat(_trim(p))


def div_small(x: DecimalNat, d: int) -> tuple[DecimalNat, int]:
    """Exact-style division by a small natural; returns (quotient, remainder).

    Exists to step a power chain backwards (the remainder is then zero);
    d == 2 is the vectorized halving case.
    """
    if not 1 <= d < LIMB_BASE:
        raise ValueError(f"divisor must be in 1..{LIMB_BASE - 1}, got {d}")
    l = x.limbs
    if l.size == 0:
        return zero(), 0
    if d == 2:
        half = l >> 1
        half[:-1] += (l[1:] & 1) * (LIMB_BASE // 2)
        return DecimalNat(np.ascontiguousarray(_trim(half))), int(l[0] & 1)
    out = np.empty_like(l)
    rem = 0
    for i in range(l.size - 1, -1, -1):  # borrow chain is sequential
        cur = rem * LIMB_BASE + int(l[i])
        out[i] = cur // d
        rem = cur % d
    return DecimalNat(np.ascontiguousarray(_trim(out))), rem


def is_doubled(old: np.ndarray, new: np.ndarray) -> bool:
    """Whether the int32 limbs `new` hold twice the value of the limbs `old`.

    A certificate: pad both with zero limbs to a common length M, take
    candidate carries c_0 = 0 and c_{i+1} = old_i // (LIMB_BASE // 2),
    and require c_M = 0 and new_i == 2 * old_i + c_i - LIMB_BASE * c_{i+1}
    for every i < M.  Summed with weights LIMB_BASE**i, the right-hand sides
    telescope to 2 * value(old) + c_0 - c_M * LIMB_BASE**M =
    2 * value(old), so the equations prove value(new) == 2 * value(old)
    for any integers c_i, whatever carries double_in_place computed.

    int32 arithmetic wraps silently, so before any arithmetic the
    certificate refuses a limb of old outside 0..LIMB_BASE-1.  Then
    every number it forms is an exact integer: 2 * old_i < 2**31, c_i is
    0 or 1, and c_{i+1} is 1 exactly when 2 * old_i >= LIMB_BASE, so
    each right-hand side lies in 0..LIMB_BASE-1.  new_i is compared with
    it exactly (a difference of two int32 values is 0 mod 2**32 only
    when they are equal), so equality also puts each limb of new in
    0..LIMB_BASE-1, and new needs no range pass of its own.

    Conversely, when old's limbs lie in 0..LIMB_BASE-1, the c_i are the
    true carries of the doubling and the right-hand sides are the limbs
    of 2 * value(old) followed by c_L (L = old.size): the certificate
    holds exactly when new holds those limbs, with top zero limbs on
    either side.
    """
    if old.dtype != _LIMB_DTYPE or new.dtype != _LIMB_DTYPE:
        raise TypeError(f"limbs must be {np.dtype(_LIMB_DTYPE)}, got {old.dtype} and {new.dtype}")
    size, new_size = old.size, new.size
    # a negative int32 limb reads as 2**31 or more in uint32: one pass
    # refuses both ends of the range
    if size and old.view(np.uint32).max() >= LIMB_BASE:
        return False
    carry = old // _HALF_BASE  # c_1..c_L
    t = old + old
    t[1:] += carry[:-1]
    top = size and carry[-1]  # c_L
    carry *= _BASE
    t -= carry  # the right-hand sides below L
    if new_size > size:  # above L: c_L, then zeros
        if new[size] != top or (new_size > size + 1 and new[size + 1 :].any()):
            return False
        new = new[:size]
    elif top or (new_size < size and t[new_size:].any()):
        return False  # new is zero above its own length, and c_M = c_L
    else:
        t = t[:new_size]
    t -= new
    return not np.count_nonzero(t)


def to_int(x: DecimalNat) -> int:
    """Exact conversion to a Python int, by a pairwise fold.

    The limbs are padded with zero limbs to a power-of-two count.  Limb
    pairs combine in int64, since a pair is below 10**18; then adjacent
    blocks combine as Python ints, low + high * b, with the block base b
    squared after each pass but the last.  Every pass halves the block
    count and doubles the block width, so the multiplications stay
    balanced and the whole fold is subquadratic: no division and no
    decimal text, whose int(str) is quadratic and refused past 4300
    digits.
    """
    limbs = x.limbs
    if limbs.size == 0:
        return 0
    a = np.zeros(max(2, 1 << (limbs.size - 1).bit_length()), dtype=np.int64)
    a[: limbs.size] = limbs
    v = (a[0::2] + a[1::2] * LIMB_BASE).astype(object)
    b = LIMB_BASE * LIMB_BASE
    while v.size > 1:
        v = v[0::2] + v[1::2] * b
        if v.size > 1:
            b *= b
    return int(v[0])
