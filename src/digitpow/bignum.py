"""Unsigned big integers stored as little-endian base-10**9 limbs.

The limb base is a power of ten so that the digit-level questions a
power sweep keeps asking (digit sum, digit count, trailing zeros) are
limb-local, while the hot path of the sweep, repeated doubling,
vectorizes over the limb array with numpy.

Canonical form: the top limb of a nonzero value is nonzero, and zero is
the empty limb sequence.  Every constructor produces canonical values.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

LIMB_BASE = 10**9
LIMB_DIGITS = 9

_LIMB_DTYPE = np.int64
_EMPTY = np.empty(0, dtype=_LIMB_DTYPE)
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
# 1.68e7 digits, four times sweep.FLOOR_TABLE_CAP
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
_POW10 = 10 ** np.arange(1, LIMB_DIGITS, dtype=np.int64)
# big-endian place values of one limb, for string parsing
_PARSE_WEIGHTS = 10 ** np.arange(LIMB_DIGITS - 1, -1, -1, dtype=np.int64)


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

    def copy(self) -> "DecimalNat":
        return DecimalNat(self.limbs.copy())

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
    d = np.frombuffer(raw, dtype=np.uint8).astype(_LIMB_DTYPE) - 48
    if ((d < 0) | (d > 9)).any():
        raise ValueError(f"not a decimal string: {s!r}")
    if d.size > 1 and d[0] == 0:
        raise ValueError(f"leading zero: {s!r}")
    if d.size == 1 and d[0] == 0:
        return zero()
    pad = (-d.size) % LIMB_DIGITS
    if pad:
        d = np.concatenate([np.zeros(pad, dtype=_LIMB_DTYPE), d])
    limbs = (d.reshape(-1, LIMB_DIGITS) * _PARSE_WEIGHTS).sum(axis=1)[::-1]
    return DecimalNat(np.ascontiguousarray(limbs))


def _trim(arr: np.ndarray) -> np.ndarray:
    n = arr.size
    while n and arr[n - 1] == 0:
        n -= 1
    return arr[:n]


def _digit_planes(limbs: np.ndarray) -> np.ndarray:
    """(L, 9) int8 matrix; planes[i, j] is the digit at position 9*i + j."""
    m = np.empty((limbs.size, LIMB_DIGITS), dtype=np.int8)
    t = limbs.copy()
    for j in range(LIMB_DIGITS):
        m[:, j] = t % 10
        t //= 10
    return m


def to_decimal_string(x: DecimalNat) -> str:
    if x.limbs.size == 0:
        return "0"
    flat = _digit_planes(x.limbs).ravel()
    b = (flat[::-1] + np.int8(48)).astype(np.uint8).tobytes()
    return b.lstrip(b"0").decode("ascii")


def digit_scan(x: DecimalNat) -> list[tuple[int, int]]:
    """Nonzero digits as (digit, position) pairs, position ascending."""
    flat = _digit_planes(x.limbs).ravel()
    pos = np.flatnonzero(flat)
    return list(zip(flat[pos].tolist(), pos.tolist()))


def digit_tally(x: DecimalNat) -> tuple[int, int]:
    """(digit sum, number of nonzero digits), read per 4- and 5-digit chunk."""
    l = x.limbs
    if l.size > _TALLY_MAX_LIMBS:
        raise ValueError(f"{l.size} limbs overflow the packed digit tally")
    # divide and subtract: int64 % costs about three times int64 //
    hi = l // 100000
    low = hi * 100000
    np.subtract(l, low, out=low)
    t = _CHUNK5_TALLY
    packed = t[low]
    packed += t[hi]
    acc = int(packed.sum())
    return acc >> 24, acc & 0xFFFFFF


def digit_sum(x: DecimalNat) -> int:
    return digit_tally(x)[0]


def low_digit_positions(limbs: Iterable[tuple[int, int]], count: int) -> list[int]:
    """Positions of the lowest nonzero digits, ascending.

    limbs yields (index, value) of nonzero limbs, ascending, from the
    lowest one on; they are expanded whole, one at a time, until at
    least count positions are in hand or limbs runs out.  Each holds a
    nonzero digit, so count of them are enough.
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
    t = l + l
    carry = t >= LIMB_BASE
    # carries never cascade: 2*limb - BASE + 1 <= 999999999 < BASE
    t -= carry.astype(_LIMB_DTYPE) * LIMB_BASE
    t[1:] += carry[:-1]
    if carry[-1]:
        t = np.append(t, np.int64(1))
    x.limbs = t
    return x


def mul_small(x: DecimalNat, c: int) -> DecimalNat:
    """Multiply by a small natural c < LIMB_BASE; returns a new value."""
    if not 0 <= c < LIMB_BASE:
        raise ValueError(f"multiplier must be in 0..{LIMB_BASE - 1}, got {c}")
    if c == 0 or x.limbs.size == 0:
        return zero()
    if c == 1:
        return x.copy()
    p = x.limbs * c  # limb * c < 10**18, fits int64
    carry = p // LIMB_BASE
    p = p - carry * LIMB_BASE
    while carry.any():
        if carry[-1]:
            p = np.append(p, np.int64(0))
            carry = np.append(carry, np.int64(0))
        p[1:] += carry[:-1]
        carry = (p >= LIMB_BASE).astype(_LIMB_DTYPE)
        p -= carry * LIMB_BASE
    return DecimalNat(np.ascontiguousarray(_trim(p)))


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
    if d == 1:
        return x.copy(), 0
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


def trailing_zero_digits(x: DecimalNat) -> int:
    """Number of trailing zero decimal digits of a positive value."""
    l = x.limbs
    if l.size == 0:
        raise ValueError("trailing zero digits of zero are undefined")
    i, low = 0, int(l[0])
    if not low:  # limb 0 is nonzero for every power of two
        i = int(np.flatnonzero(l)[0])
        low = int(l[i])
    t = 0
    while low % 10 == 0:
        low //= 10
        t += 1
    return LIMB_DIGITS * i + t


def is_doubled(old: np.ndarray, new: np.ndarray) -> bool:
    """Whether the limbs `new` hold twice the value of the limbs `old`.

    A certificate, not a recomputation: with t_i = 2 * old_i - new_i
    (both padded with zero limbs to a common length M) and candidate
    carries c_0 = 0, c_{i+1} = [t_i >= LIMB_BASE - 1], it requires
    c_M = 0 and t_i + c_i == LIMB_BASE * c_{i+1} for every i.  The sum
    of (t_i + c_i - LIMB_BASE * c_{i+1}) * LIMB_BASE**i telescopes to
    2 * value(old) - value(new) + c_0 - c_M * LIMB_BASE**M, so the
    equations prove the identity for any integers c_i, whatever carries
    double_in_place computed.  Conversely, when every limb lies in
    0..LIMB_BASE-1 and the identity holds, the true carries are 0 or 1
    and t_i is -c_i or LIMB_BASE - c_i, so the candidates are the true
    carries and the certificate holds.  Limbs may be non-canonical as
    long as they stay within +-2**61, so that t does not overflow int64.
    Comparisons only, no division.
    """
    size = max(old.size, new.size)
    t = np.zeros(size, dtype=_LIMB_DTYPE)
    np.add(old, old, out=t[: old.size])
    t[: new.size] -= new
    carry = t >= LIMB_BASE - 1  # c_{i+1}
    if size and carry[-1]:
        return False
    t[1:] += carry[:-1]
    t -= carry * LIMB_BASE
    return not t.any()


# limbs per leaf of the radix conversion below
_LEAF_LIMBS = 64
_LEAF_DIGITS = LIMB_DIGITS * _LEAF_LIMBS


def _leaf_values(limbs: np.ndarray) -> list[int]:
    """Values of consecutive 64-limb blocks, lowest block first."""
    m = -(-limbs.size // _LEAF_LIMBS)
    a = np.zeros(m * _LEAF_LIMBS, dtype=_LIMB_DTYPE)
    a[: limbs.size] = limbs
    a = a.reshape(m, _LEAF_LIMBS)
    # a limb pair is below 10**18 and still fits int64; wider blocks
    # combine as Python ints, one column pass per doubling
    v = (a[:, 0::2] + a[:, 1::2] * LIMB_BASE).astype(object)
    b = LIMB_BASE * LIMB_BASE
    while v.shape[1] > 1:
        v = v[:, 0::2] + v[:, 1::2] * b
        b *= b
    return v[:, 0].tolist()


@lru_cache(maxsize=None)
def _pow5(digits: int) -> int:
    # callers pass _LEAF_DIGITS times a power of two, so a whole run
    # keeps O(log L) entries for values of up to L limbs
    return 5**digits


def _reduce(leaves: list[int], lo: int, hi: int, bits: int) -> int:
    """Value of leaves[lo:hi], read in base 10**_LEAF_DIGITS, mod 2**bits."""
    mask = (1 << bits) - 1
    n = hi - lo
    if n == 1:
        return leaves[lo] & mask
    h = 1 << ((n - 1).bit_length() - 1)  # largest power of two below n
    low = _reduce(leaves, lo, lo + h, bits)
    shift = _LEAF_DIGITS * h
    rest = bits - shift
    if rest <= 0:
        return low
    # the upper part enters times 10**shift = 2**shift * 5**shift, so
    # only its low `rest` bits count
    high = _reduce(leaves, lo + h, hi, rest) * (_pow5(shift) & ((1 << rest) - 1))
    return (low + (high << shift)) & mask


def mod_pow2(x: DecimalNat, bits: int) -> int:
    """x mod 2**bits, converted straight from the limbs.

    Divide and conquer over 64-limb leaves, split at power-of-two leaf
    counts (Brent and Zimmermann, Modern Computer Arithmetic, 1.7).
    Limb i has place value 10**(9i), a multiple of 2**(9i), so limbs at
    or above bits/9 drop out; an upper half at digit offset d enters
    times 10**d = 2**d * 5**d and needs only its low bits - d bits.  No
    division and no decimal text.
    """
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    limbs = x.limbs[: -(-bits // LIMB_DIGITS)]
    if limbs.size == 0:
        return 0
    leaves = _leaf_values(limbs)
    return _reduce(leaves, 0, len(leaves), bits)


def to_int(x: DecimalNat) -> int:
    """Exact conversion to a Python int."""
    return mod_pow2(x, 30 * x.limbs.size)  # LIMB_BASE < 2**30
