"""Digit-sum ratios s/n as exact integer quotients, and their reference
constant.

Ratios stay exact internally: s/n, and a running mean N / (c * D) over
the lcm D of its window's n (sweep._RatioWindow).  Decimal strings
appear only at output boundaries, rendered round-half-even at a fixed
number of places, so emitted files are byte-stable across platforms.
"""

from __future__ import annotations

# (9/2) * log10(2), the conjectured limit of s(2**n) / n, to 10 places,
# round-half-even (tests/oracles.py computes it afresh)
CONJECTURE_CONSTANT = "1.3546349805"


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
