"""Exact integer routes to the floor-of-logarithm quantities.

floor(x * log2(10)) equals bit_length(10**x) - 1 exactly: 10**x is
never a power of two for x >= 1, so its bit length decides every
comparison against powers of two without rounding concerns.  The same
identity powers the digit-count formula check and the bound recurrence
on nonzero-digit positions.  No floating point is used anywhere here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def exact_floor_log2_pow10(x: int) -> int:
    """floor(x * log2(10)) for x >= 1; 0 for x = 0."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return (10**x).bit_length() - 1


class FloorLog2Pow10Table:
    """Cached floor(x * log2 10) for x = 0..horizon, extended on demand.

    The cache is built by one running power of ten multiplied up
    incrementally, so extending to horizon H costs O(H^2 / wordsize)
    once and each lookup is O(1).  as_array() exposes the values for
    vectorized position checks.
    """

    def __init__(self) -> None:
        self._pow = 1
        self._size = 1
        self._buf = np.zeros(1024, dtype=np.int64)

    def ensure(self, xmax: int) -> None:
        if xmax < self._size:
            return
        if xmax >= self._buf.size:
            grown = np.zeros(max(self._buf.size * 2, xmax + 1), dtype=np.int64)
            grown[: self._size] = self._buf[: self._size]
            self._buf = grown
        p = self._pow
        for x in range(self._size, xmax + 1):
            p *= 10
            self._buf[x] = p.bit_length() - 1
        self._pow = p
        self._size = xmax + 1

    def __getitem__(self, x: int) -> int:
        if x < 0:
            raise ValueError(f"x must be >= 0, got {x}")
        self.ensure(x)
        return int(self._buf[x])

    def as_array(self, xmax: int) -> np.ndarray:
        """Values for x = 0..xmax as an int64 array (a view; do not write)."""
        self.ensure(xmax)
        return self._buf[: xmax + 1]


@dataclass(frozen=True)
class BoundTable:
    """Iterated position bounds B_1..B_K with B_1 = 0.

    B_k caps the position of the k-th nonzero digit of a power of two;
    each entry stays below 4**(k-1) and the sequence is strictly
    increasing.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        e = self.entries
        if not e or e[0] != 0:
            raise ValueError("bound table must start at 0")
        for k in range(1, len(e)):
            if e[k] <= e[k - 1]:
                raise ValueError(f"bound table not increasing at k={k + 1}")
        for k, v in enumerate(e, start=1):
            if v >= 4 ** (k - 1):
                raise ValueError(f"bound table entry B_{k}={v} >= 4^{k - 1}")

    def __len__(self) -> int:
        return len(self.entries)


def bound_table(k_max: int) -> BoundTable:
    """Iterate B_1 = 0, B_k = floor(log2(10) * (B_{k-1} + 1)).

    Entries grow roughly 4x per step; k_max beyond ~14 gets expensive
    because the exact power of ten behind each floor grows with it.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    entries = [0]
    for _ in range(k_max - 1):
        entries.append(exact_floor_log2_pow10(entries[-1] + 1))
    return BoundTable(tuple(entries))


def digit_sum_exceeds_log4(n: int, s: int) -> bool:
    """Exact truth of s > log4(n): equivalent to 2*s >= bit_length(n)."""
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    return 2 * s >= n.bit_length()


def digit_count_formula_check(n: int, dc: int, table: FloorLog2Pow10Table) -> bool:
    """Exact check that 2**n has dc digits: 10**(dc-1) <= 2**n < 10**dc.

    Both sides reduce to bit-length comparisons because 10**x is never a
    power of two; equivalent to dc == floor(n * log10 2) + 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if dc < 1:
        return False
    if dc > 1 and n < table[dc - 1] + 1:
        return False
    return n <= table[dc]
