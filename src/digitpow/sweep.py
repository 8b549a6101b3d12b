"""Sweep driver: advance the power chain and verify every claim per n.

Output schema (CSV, fixed):

    n,s,digit_count,ratio,running_mean,theorem_ok,lemma2_ok,gap_ok,fourpow_ok

Booleans render as 1/0 and stay blank where a check does not apply
(multipliers other than 2).  ratio and running_mean are exact rationals
rendered to 10 fractional digits, round-half-even, so identical flags
give byte-identical files.  JSON output is one object per line carrying
the CSV fields plus m and the remaining per-n verdicts.

The split bound is checked at every position k in 1..digit_count-1
for every n.  No low part A = x mod 10**k of the value x is formed:
2**k | A exactly when k <= v2(x), because 2**k | 10**k; A > 0 exactly
when k exceeds the number of trailing zero digits of x; and a positive
multiple of 2**k is at least 2**k.  One x mod 2**K, K = digit_count-1,
converted straight from the limbs, decides every k.

Checkpoints are written every `checkpoint_every` steps or
`checkpoint_seconds` seconds, whichever comes first, plus once at the
end of the run.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import IO, Callable

from .bignum import digit_count, digit_sum, digit_tally
from .checks import check_positions, scan_splits
from .intlog import digit_count_formula_check, digit_sum_exceeds_log4, floor_log2_pow10
from .power import PowerState, load_checkpoint, save_checkpoint, validate_multiplier
from .ratios import render_fraction

CSV_HEADER = "n,s,digit_count,ratio,running_mean,theorem_ok,lemma2_ok,gap_ok,fourpow_ok"
RATIO_PLACES = 10
MAX_LOGGED_FAILURES = 20
# largest floor(x * log2 10) array built up front (32 MiB, n up to about
# 1.26e7); a sweep that gets past it rebuilds at twice its digit count
FLOOR_TABLE_CAP = 2**22

CHECK_NAMES = (
    "theorem_ok",
    "lemma2_ok",
    "gap_ok",
    "fourpow_ok",
    "ekbound_ok",
    "digitcount_ok",
    "mod9_ok",
)


@dataclass
class SweepConfig:
    max_n: int
    multiplier: int | None = None  # None: 2, or whatever a checkpoint carries
    window: int = 1
    # split_checks "policy" and "full" both check every split position
    # and seed is ignored; they remain so callers that set them still run
    seed: int = 0
    split_checks: str = "policy"  # policy | full | off
    start_checkpoint: str | Path | None = None
    checkpoint_dir: str | Path | None = None
    checkpoint_every: int = 100_000
    checkpoint_seconds: float = 60.0
    emit_range: tuple[int, int] | None = None  # stats mode: rows for this n range


@dataclass
class VerificationRecord:
    """Per-n results; None marks a check that does not apply."""

    n: int
    s: int
    digit_count: int
    m: int
    theorem_ok: bool | None
    lemma2_ok: bool | None
    gap_ok: bool | None
    fourpow_ok: bool | None
    ekbound_ok: bool | None
    digitcount_ok: bool | None
    mod9_ok: bool
    lemma2_checked: int = 0

    def failed_checks(self) -> list[str]:
        return [name for name in CHECK_NAMES if getattr(self, name) is False]


@dataclass
class SweepSummary:
    multiplier: int
    start_n: int
    max_n: int
    rows: int = 0
    elapsed: float = 0.0
    check_failures: dict[str, int] = field(default_factory=dict)
    failure_lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.check_failures

    def describe(self) -> str:
        state = "ok" if self.ok else "FAILED " + str(self.check_failures)
        rate = self.rows / self.elapsed if self.elapsed > 0 else 0.0
        return (
            f"rows {self.rows} (n={self.start_n + 1}..{self.max_n}, "
            f"multiplier={self.multiplier}) {state} "
            f"in {self.elapsed:.1f}s ({rate:.0f} rows/s)"
        )


class _RatioWindow:
    """Exact mean of s/n over the last `window` rows pushed.

    The sweep pushes every n from max(1, lo - window + 1) on, lo being
    the first row it emits, so the mean at row n covers
    max(1, n - window + 1)..n whatever the emit range and start.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._buf: deque[Fraction] = deque()
        self._total = Fraction(0)

    def push(self, n: int, s: int) -> tuple[Fraction, Fraction]:
        r = Fraction(s, n)
        if self.window == 1:
            return r, r
        self._buf.append(r)
        self._total += r
        if len(self._buf) > self.window:
            self._total -= self._buf.popleft()
        return r, self._total / len(self._buf)


def _flag(v: bool | None) -> str:
    if v is None:
        return ""
    return "1" if v else "0"


class _CsvWriter:
    def __init__(self, fh: IO[str]):
        self._fh = fh
        fh.write(CSV_HEADER + "\n")

    def row(self, rec: VerificationRecord, ratio: str, mean: str) -> None:
        self._fh.write(
            f"{rec.n},{rec.s},{rec.digit_count},{ratio},{mean},"
            f"{_flag(rec.theorem_ok)},{_flag(rec.lemma2_ok)},"
            f"{_flag(rec.gap_ok)},{_flag(rec.fourpow_ok)}\n"
        )


class _JsonWriter:
    def __init__(self, fh: IO[str]):
        self._fh = fh

    def row(self, rec: VerificationRecord, ratio: str, mean: str) -> None:
        obj = {
            "n": rec.n,
            "s": rec.s,
            "digit_count": rec.digit_count,
            "m": rec.m,
            "ratio": ratio,
            "running_mean": mean,
            "theorem_ok": rec.theorem_ok,
            "lemma2_ok": rec.lemma2_ok,
            "lemma2_checked": rec.lemma2_checked,
            "gap_ok": rec.gap_ok,
            "fourpow_ok": rec.fourpow_ok,
            "ekbound_ok": rec.ekbound_ok,
            "digitcount_ok": rec.digitcount_ok,
            "mod9_ok": rec.mod9_ok,
        }
        self._fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _make_writer(out: IO[str] | None, fmt: str):
    if out is None:
        return None
    if fmt == "csv":
        return _CsvWriter(out)
    if fmt == "json":
        return _JsonWriter(out)
    raise ValueError(f"unknown format {fmt!r}")


def _initial_state(cfg: SweepConfig) -> PowerState:
    if cfg.start_checkpoint is not None:
        state = load_checkpoint(cfg.start_checkpoint)
        if cfg.multiplier is not None and state.multiplier != cfg.multiplier:
            raise ValueError(
                f"checkpoint multiplier {state.multiplier} does not match "
                f"requested {cfg.multiplier}"
            )
        return state
    multiplier = 2 if cfg.multiplier is None else cfg.multiplier
    validate_multiplier(multiplier)
    return PowerState.start(multiplier)


def _warm_window(state: PowerState, window: _RatioWindow, lo: int) -> None:
    """Push the rows up to state.n that row lo's window covers, stepping back exactly.

    lo is the first row the sweep emits, lo > state.n.  Makes resumed
    runs emit the same running_mean column as uninterrupted ones for any
    window size.
    """
    need = min(state.n, state.n - lo + window.window)
    if need <= 0:
        return
    back = state.clone()
    hist = []
    for _ in range(need):
        hist.append((back.n, digit_sum(back.value)))
        back.step_back()
    for n, s in reversed(hist):
        window.push(n, s)


def run_sweep(
    cfg: SweepConfig,
    out: IO[str] | None = None,
    fmt: str = "csv",
    collect: bool = False,
    log: Callable[[str], None] | None = None,
) -> tuple[SweepSummary, list[VerificationRecord]]:
    """Run the sweep; returns the summary and (if collect) all records."""
    state = _initial_state(cfg)
    if cfg.max_n <= state.n:
        raise ValueError(f"max_n {cfg.max_n} is not beyond start n {state.n}")
    if cfg.split_checks not in ("policy", "full", "off"):
        raise ValueError(f"unknown split_checks mode {cfg.split_checks!r}")
    emit_lo, emit_hi = cfg.emit_range or (1, cfg.max_n)
    if not 1 <= emit_lo <= emit_hi <= cfg.max_n:
        raise ValueError(f"bad emit range {emit_lo}..{emit_hi} for max_n {cfg.max_n}")
    writer = _make_writer(out, fmt)
    is_two = state.multiplier == 2

    # floor(x * log2 10) up to index digit_count: 2**n has at most
    # n // 3 + 1 digits, since log10 2 < 1/3
    gap = floor_log2_pow10(min(cfg.max_n // 3, FLOOR_TABLE_CAP) + 1) if is_two else None
    window = _RatioWindow(cfg.window)
    if writer is not None:
        _warm_window(state, window, max(emit_lo, state.n + 1))

    summary = SweepSummary(state.multiplier, state.n, cfg.max_n)
    records: list[VerificationRecord] = []
    ckpt_dir = Path(cfg.checkpoint_dir) if cfg.checkpoint_dir is not None else None
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    last_ckpt_n = state.n
    last_ckpt_t = time.monotonic()
    residue9 = state.residue_mod9()
    t0 = time.perf_counter()

    def fail(rec: VerificationRecord, names: list[str]) -> None:
        for name in names:
            summary.check_failures[name] = summary.check_failures.get(name, 0) + 1
        if len(summary.failure_lines) < MAX_LOGGED_FAILURES:
            line = f"n={rec.n}: failed {','.join(names)}"
            summary.failure_lines.append(line)
            if log is not None:
                log("FAIL " + line)

    for n in range(state.n + 1, cfg.max_n + 1):
        state.step()
        residue9 = residue9 * state.multiplier % 9
        if n < emit_lo or n > emit_hi:
            if writer is not None and emit_lo - cfg.window < n < emit_lo:
                window.push(n, digit_sum(state.value))  # in row emit_lo's window
            continue
        s, m = digit_tally(state.value)
        dc = digit_count(state.value)
        mod9_ok = s % 9 == residue9

        theorem_ok = lemma2_ok = gap_ok = fourpow_ok = ekbound_ok = dcf_ok = None
        checked = 0
        if is_two:
            if dc >= gap.size:  # past the cap, or a corrupt value
                gap = floor_log2_pow10(2 * dc)
            theorem_ok = digit_sum_exceeds_log4(n, s)
            dcf_ok = digit_count_formula_check(n, dc, gap)
            pc = check_positions(state.value.limbs, gap)
            gap_ok, fourpow_ok, ekbound_ok = pc.gap_ok, pc.fourpow_ok, pc.bound_ok
            if cfg.split_checks != "off":
                checked, failed_ks = scan_splits(state, min(n, dc - 1))
                lemma2_ok = not failed_ks
                if failed_ks and log is not None:
                    log(f"FAIL n={n}: split bound failed at k={failed_ks[:10]}")

        rec = VerificationRecord(
            n, s, dc, m, theorem_ok, lemma2_ok, gap_ok, fourpow_ok,
            ekbound_ok, dcf_ok, mod9_ok, checked,
        )
        bad = rec.failed_checks()
        if bad:
            fail(rec, bad)
        summary.rows += 1
        if collect:
            records.append(rec)
        if writer is not None:
            ratio, mean = window.push(n, s)
            writer.row(rec, render_fraction(ratio, RATIO_PLACES),
                       render_fraction(mean, RATIO_PLACES))

        if ckpt_dir is not None and (
            n - last_ckpt_n >= cfg.checkpoint_every
            or time.monotonic() - last_ckpt_t >= cfg.checkpoint_seconds
        ):
            save_checkpoint(state, ckpt_dir / f"ckpt-n{n:012d}.txt")
            last_ckpt_n = n
            last_ckpt_t = time.monotonic()

    if ckpt_dir is not None and state.n != last_ckpt_n:
        save_checkpoint(state, ckpt_dir / f"ckpt-n{state.n:012d}.txt")
    summary.elapsed = time.perf_counter() - t0
    return summary, records
