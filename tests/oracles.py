"""Independent reference implementations used to check the package.

Nothing here imports digitpow.  Digit sums, digit positions and split
parts come from Python's own bignum and str(v), the schoolbook routines
work digit-by-digit on decimal strings, and is_canonical checks the limb
invariant of a value it is handed.
"""

from __future__ import annotations

import hashlib
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np

sys.set_int_max_str_digits(2_000_000)


def oracle_digit_sum(n: int, base: int = 2) -> int:
    """Digit sum of base**n via plain exponentiation and a string."""
    return sum(map(int, str(base**n)))


def oracle_value_str(n: int, base: int = 2) -> str:
    return str(base**n)


def school_mul_small(s: str, c: int) -> str:
    """Schoolbook multiply of a decimal string by a small natural."""
    if c == 0 or s == "0":
        return "0"
    carry = 0
    out = []
    for ch in reversed(s):
        v = int(ch) * c + carry
        out.append(str(v % 10))
        carry = v // 10
    while carry:
        out.append(str(carry % 10))
        carry //= 10
    return "".join(reversed(out))


def school_double(s: str) -> str:
    return school_mul_small(s, 2)


def render_fraction(value: Fraction, places: int) -> str:
    """value >= 0 to `places` fractional digits, round-half-even, the
    tie decided by comparing the exact remainder with 1/2."""
    scaled = value * 10**places
    q = scaled.numerator // scaled.denominator
    rest = scaled - q
    if rest > Fraction(1, 2) or (rest == Fraction(1, 2) and q % 2):
        q += 1
    if places == 0:
        return str(q)
    digits = str(q).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def conjecture_constant(places: int) -> str:
    """(9/2) * log10(2), the conjectured limit of s(2**n) / n, rounded
    half-even to `places` fractional digits by the decimal module, with
    guard digits doubled until the result is stable (the constant is
    irrational, so that ends)."""
    guard, prev = 15, None
    while True:
        with localcontext() as ctx:
            ctx.prec = places + guard
            value = Decimal(9) / 2 * (Decimal(2).ln() / Decimal(10).ln())
            rounded = value.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN)
        if rounded == prev:
            return str(rounded)
        prev, guard = rounded, 2 * guard


def bfile_text(values: dict[int, int]) -> str:
    """Render an index -> value map in b-file format."""
    lines = [f"{n} {values[n]}" for n in sorted(values)]
    return "\n".join(lines) + "\n"


def checkpoint_text(multiplier: int, n: int, value: str) -> str:
    """A checkpoint file for any value string, with a matching digest."""
    payload = f"multiplier={multiplier}\nn={n}\n{value}\n"
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    return (f"DIGITPOW-CKPT v1\nmultiplier={multiplier}\nn={n}\n"
            f"digest={digest}\n{value}\n")


def swap_adjacent_digits(value: str) -> str:
    """Swap the first two adjacent unequal digits below the top one; the
    digit sum, and so the value mod 9, stays the same, and no leading
    zero appears."""
    i = next(i for i in range(1, len(value) - 1) if value[i] != value[i + 1])
    return value[:i] + value[i + 1] + value[i] + value[i + 2:]


def is_canonical(x) -> bool:
    """Representation invariant of a DecimalNat x: int32 limbs, each in
    0..10**9-1, and a nonzero top limb (zero is the empty array)."""
    limbs = x.limbs
    if limbs.dtype != np.int32:
        return False
    if limbs.size == 0:
        return True
    return bool(limbs[-1] != 0 and ((limbs >= 0) & (limbs < 10**9)).all())


class SplitWitness(NamedTuple):
    low: int  # v mod 10**k
    high: int  # v // 10**k
    ok: bool | None  # None when high = 0: the bound does not apply


def verify_split(v: int, k: int) -> SplitWitness:
    """The split bound at k >= 1, with the low part formed directly.

    v = low + high * 10**k with high > 0 must give low > 0, 2**k | low
    and low >= 2**k.
    """
    high, low = divmod(v, 10**k)
    if high == 0:
        return SplitWitness(low, high, None)
    return SplitWitness(low, high, low > 0 and low % 2**k == 0 and low >= 2**k)


def decompose(v: int) -> list[tuple[int, int]]:
    """Nonzero digits of v >= 1 as (digit, position), position ascending."""
    if v < 1:
        raise ValueError("decomposition is defined for positive values only")
    return [(int(ch), e) for e, ch in enumerate(reversed(str(v))) if ch != "0"]


def gap_inequality_check(v: int) -> list[bool]:
    """Per-pair verdicts of e_k <= floor(log2(10) * (e_{k-1} + 1)).

    floor(x * log2(10)) is (10**x).bit_length() - 1, as 10**x is never
    a power of two for x >= 1.  10**x is carried from pair to pair, so a
    value of many thousand nonzero digits takes milliseconds, not
    seconds.
    """
    es = [e for _, e in decompose(v)]
    out, x, p = [], 0, 1  # p = 10**x
    for a, b in zip(es, es[1:]):
        p *= 10 ** (a + 1 - x)
        x = a + 1
        out.append(b <= p.bit_length() - 1)
    return out


def four_power_bound_check(v: int) -> bool:
    """True iff e_1 = 0 and e_k < 4**(k-1) for every nonzero digit;
    e < 4**i = 2**(2i) is read as e.bit_length() <= 2i."""
    es = [e for _, e in decompose(v)]
    return es[0] == 0 and all(e.bit_length() <= 2 * i for i, e in enumerate(es))


def iterated_bound_check(v: int) -> bool:
    """True iff e_k <= B_k for every nonzero digit, B_1 = 0 and
    B_k = floor(log2(10) * (B_{k-1} + 1)) = (10**(B_{k-1}+1)).bit_length() - 1.

    B_k is increasing, so once it passes the top position every later
    digit is within its bound; the walk stops there, before 10**(B+1)
    grows out of reach.
    """
    es = [e for _, e in decompose(v)]
    b = 0
    for e in es:
        if e > b:
            return False
        if b > es[-1]:
            return True
        b = (10 ** (b + 1)).bit_length() - 1
    return True
