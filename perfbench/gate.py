"""Output gate: checks a sweep's rows against oracles that share no code
with digitpow.

Per row, every workload:
  * n runs through the band in order, and every applicable verdict is 1;
  * s is congruent to 2**n mod 9 and digit_count is floor(n*log10 2) + 1;
  * ratio and running_mean equal s/n and the trailing-window mean of s/n,
    rendered here independently to 10 places, round-half-even;
and for seeded spot rows s, digit_count (and m in JSON) equal the digits
of str(2**n).  JSON rows also carry lemma2_checked, which on a full-k
sweep must be min(n, digit_count - 1).

check() returns the set of n whose rows failed plus messages; a row the
band expects but the output lacks counts as failed too.
"""

from __future__ import annotations

import decimal
import functools
import json
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

CSV_HEADER = "n,s,digit_count,ratio,running_mean,theorem_ok,lemma2_ok,gap_ok,fourpow_ok"
JSON_KEYS = frozenset(
    "n s digit_count m ratio running_mean theorem_ok lemma2_ok lemma2_checked "
    "gap_ok fourpow_ok ekbound_ok digitcount_ok mod9_ok".split()
)
PLACES = 10
SPOT_ROWS = 8
_LOG10_2_SCALE = 10**60
with decimal.localcontext() as _ctx:
    _ctx.prec = 90
    _LOG10_2 = int(decimal.Decimal(2).log10() * _LOG10_2_SCALE)


@dataclass(frozen=True)
class Band:
    lo: int
    hi: int
    fmt: str  # csv | json
    window: int
    splits: bool  # lemma2 verdict present
    full_k: bool  # lemma2_checked must cover every position


@functools.lru_cache(maxsize=None)
def oracle_digits(n: int) -> str:
    return str(2**n)


def digit_count(n: int) -> int:
    """floor(n * log10 2) + 1; the 60-digit constant is exact for any n here."""
    return n * _LOG10_2 // _LOG10_2_SCALE + 1


def render(value: Fraction) -> str:
    scaled = value * 10**PLACES
    q = scaled.numerator // scaled.denominator
    rem = scaled - q
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and q % 2):
        q += 1
    whole, frac = divmod(q, 10**PLACES)
    return f"{whole}.{frac:0{PLACES}d}"


def spot_rows(band: Band, seed: int) -> list[int]:
    rng = random.Random(f"{band.lo}:{band.hi}:{seed}")
    size = band.hi - band.lo + 1
    return sorted(rng.sample(range(band.lo, band.hi + 1), min(SPOT_ROWS, size)))


def _parse(text: str, band: Band) -> list[dict]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if band.fmt == "json":
        return [json.loads(line) for line in lines]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header {lines[:1]!r}")
    names = CSV_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"bad CSV row {line[:60]!r}")
        row = dict(zip(names, cells))
        for key in ("n", "s", "digit_count"):
            row[key] = int(row[key])
        rows.append(row)
    return rows


def _verdict_names(band: Band) -> tuple[str, ...]:
    names = ("theorem_ok", "gap_ok", "fourpow_ok")
    if band.splits:
        names += ("lemma2_ok",)
    if band.fmt == "json":
        names += ("ekbound_ok", "digitcount_ok", "mod9_ok")
    return names


def _passes(value) -> bool:
    return value is True or value == "1"


def _row_errors(row: dict, band: Band, spot: dict[int, str]) -> list[str]:
    n, s, dc = row["n"], row["s"], row["digit_count"]
    errors = [name for name in _verdict_names(band) if not _passes(row.get(name))]
    if not band.splits and row.get("lemma2_ok") not in ("", None):
        errors.append("lemma2_ok present with split checks off")
    if s <= 0 or s % 9 != pow(2, n, 9):
        errors.append("s mod 9")
    if dc != digit_count(n):
        errors.append("digit_count")
    if row["ratio"] != render(Fraction(s, n)):
        errors.append("ratio")
    if band.fmt == "json":
        if set(row) != JSON_KEYS:
            errors.append("json keys")
        if band.full_k and row.get("lemma2_checked") != min(n, dc - 1):
            errors.append("lemma2_checked")
    digits = spot.get(n)
    if digits is not None:
        if s != sum(map(int, digits)) or dc != len(digits):
            errors.append("oracle s/digit_count")
        if band.fmt == "json" and row.get("m") != len(digits) - digits.count("0"):
            errors.append("oracle m")
    return errors


def check(text: str, band: Band, seed: int) -> tuple[int, set[int], list[str]]:
    """Return (rows read, n of failed or missing rows, messages)."""
    expected = set(range(band.lo, band.hi + 1))
    try:
        rows = _parse(text, band)
    except (ValueError, KeyError) as exc:
        return 0, expected, [f"unreadable output: {exc}"]
    spot = {n: oracle_digits(n) for n in spot_rows(band, seed)}
    # the trailing window reaches back before the band for its first rows
    history: deque[Fraction] = deque(
        Fraction(sum(map(int, oracle_digits(n))), n)
        for n in range(max(1, band.lo - band.window + 1), band.lo)
    )
    total = sum(history, Fraction(0))
    failed: set[int] = set()
    messages: list[str] = []
    for i, row in enumerate(rows):
        n = band.lo + i
        try:
            if row["n"] != n:
                raise ValueError(f"row {i} has n={row['n']}, expected {n}")
            errors = _row_errors(row, band, spot)
            r = Fraction(row["s"], n)
            history.append(r)
            total += r
            if len(history) > band.window:
                total -= history.popleft()
            if row["running_mean"] != render(total / len(history)):
                errors.append("running_mean")
        except (KeyError, TypeError, ValueError) as exc:
            errors = [f"malformed: {exc}"]
        if errors:
            failed.add(n)
            if len(messages) < 10:
                messages.append(f"n={n}: {', '.join(errors)}")
    failed |= expected - set(range(band.lo, band.lo + len(rows)))
    if len(rows) != len(expected):
        failed.update(range(band.hi + 1, band.lo + len(rows)))
        messages.append(f"{len(rows)} rows, band has {len(expected)}")
    return len(rows), failed, messages


def _mutate(text: str, band: Band, rng: random.Random, field: str) -> tuple[str, int]:
    """Alter one row's digit sum or flip one verdict; returns (text, n)."""
    lines = text.split("\n")
    first = 1 if band.fmt == "csv" else 0
    i = rng.randrange(first, first + band.hi - band.lo + 1)
    if band.fmt == "json":
        row = json.loads(lines[i])
        if field == "s":
            row["s"] += 1
        else:
            row["gap_ok"] = not row["gap_ok"]
        lines[i] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    else:
        cells = lines[i].split(",")
        if field == "s":
            cells[1] = str(int(cells[1]) + 1)
        else:
            cells[7] = "0" if cells[7] == "1" else "1"
        lines[i] = ",".join(cells)
    return "\n".join(lines), band.lo + i - first


def self_test(text: str, band: Band, seed: int) -> list[str]:
    """Check the gate flags an altered digit sum and a flipped verdict.

    text must be an output the gate passes.  Returns problems found.
    """
    rng = random.Random(seed)
    problems = []
    for field in ("s", "verdict"):
        bad, n = _mutate(text, band, rng, field)
        _, failed, _ = check(bad, band, seed)
        if n not in failed:
            problems.append(f"gate missed a {field} change at n={n}")
    return problems
