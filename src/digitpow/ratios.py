"""Digit-sum ratios s/n as exact rationals, and their reference constant.

Ratios stay exact internally, as Fractions or as integer quotients;
decimal strings appear only at output boundaries, rendered
round-half-even at a fixed number of places so emitted files are
byte-stable across platforms.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

CONSTANT_MAX_PRECISION = 50


def render_fraction(value: Fraction, places: int) -> str:
    """Fixed-point decimal string, round-half-even, exact tie detection."""
    if places < 0:
        raise ValueError(f"places must be >= 0, got {places}")
    if value < 0:
        raise ValueError("negative ratios do not occur here")
    return render_quotient(value.numerator * 10**places, value.denominator, places)


def render_quotient(num: int, den: int, places: int) -> str:
    """num / den / 10**places as a fixed-point string, round-half-even;
    num >= 0, den > 0."""
    q, r = divmod(num, den)
    r2 = 2 * r
    if r2 > den or (r2 == den and q % 2 == 1):
        q += 1
    return render_scaled(q, places)


def render_scaled(q: int, places: int) -> str:
    """The integer q >= 0 read as q / 10**places, all places written."""
    if places == 0:
        return str(q)
    digits = str(q).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def conjecture_constant(precision_digits: int) -> str:
    """(9/2) * log10(2) to the requested number of fractional digits.

    Computed with the decimal module at guarded working precision,
    rounded half-even; the guard is doubled until the rounded result is
    stable (the constant is irrational, so this terminates).
    """
    if not 0 <= precision_digits <= CONSTANT_MAX_PRECISION:
        raise ValueError(
            f"precision must be in 0..{CONSTANT_MAX_PRECISION}, got {precision_digits}"
        )
    guard = 15
    prev = None
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = precision_digits + guard
            value = (
                decimal.Decimal(9)
                / decimal.Decimal(2)
                * (decimal.Decimal(2).ln() / decimal.Decimal(10).ln())
            )
            quantum = decimal.Decimal(1).scaleb(-precision_digits)
            rounded = value.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN)
        if prev is not None and rounded == prev:
            return str(rounded)
        prev = rounded
        guard *= 2
