"""Sweep driver: advance the power chain and verify every claim per n.

Output schema (CSV, fixed):

    n,s,digit_count,ratio,running_mean,theorem_ok,lemma2_ok,gap_ok,fourpow_ok

Booleans render as 1/0 and stay blank where a check does not apply
(multipliers other than 2).  ratio and running_mean are exact rationals
rendered to 10 fractional digits, round-half-even, so identical flags
give byte-identical files.  JSON output is one object per line carrying
the CSV fields plus m and the remaining per-n verdicts.

The split bound is checked at every position k in 1..digit_count-1
for every n of a sweep of 2**n: a row passes it exactly when it is
proven to hold 2**n, which meets the bound at every such k (see
checks.py).  A band proves its start state exact with one radix
conversion (PowerState.is_exact) and keeps a private copy of its
limbs; each row, as it steps, copies its limbs and must be certified
to hold twice the row before (bignum.is_doubled).  A row whose link
fails fails lemma2_ok, and so does every later row of its band.

Batches set only the write cadence: split rows' text is written
together at a band's first row, alone, so that row leaves as early as
it would on its own; then every SPLIT_BATCH rows; at every checkpoint
row, before the save; and at the band's end.  Rows that check no
splits are written one by one.

A band of rows is one forward walk of the chain.  It first walks its
start state, exactly and in place, to just below the first n in its
first row's running_mean window, reached with no digit work by
stepping back, or forward by the largest multiplier**j below the limb
base per multiplication (PowerState.step_forward); the walk then
pushes the rows below the band into the window and checks and emits
the rows in it.  So a resumed run writes the same bytes as an
uninterrupted one, for any window.  Every verdict of a row but its
split verdict comes from _RowChecks, built once per band.

Every sweep is sharded: the emitted rows are cut into `jobs`
contiguous bands of equal cost (shards.plan_shards), and once the start
state is loaded and verified the process forks one child per band but
the first.  Each child walks its copy of the start state to its own
band and checks it into a buffer; the parent checks the first band,
streaming it to `out` and polling its children every POLL_ROWS rows,
then writes each child's text in n order and merges its row count,
failure counts and failure lines.  A row of a sound chain passes its
split check from any band start, and every running_mean comes from its
own window.  So the output bytes of a passing run depend neither on
`jobs` nor on where the batches fall.

A row's running_mean comes from a rolling integer sum of its window's
terms floor(s * 10**16 / n), which brackets the exact sum; only when a
rounding midpoint falls inside the bracket does the row form the
window's exact mean as one integer quotient over the lcm of its n
(_RatioWindow).  That lcm of a 100-row window has hundreds of digits:
forming it on every row would cost about as much as the row's digit
checks.

Checkpoints fall on the grid (n - start n) % checkpoint_every == 0,
or `checkpoint_seconds` after a band's start or its last checkpoint,
plus once at max_n.  A child band keeps a private copy of each state
that falls due and returns the copies with its rows; the parent saves
them, in n order, right after it writes those rows.  So the checkpoint
files do not depend on `jobs` either, as long as no time-triggered one
falls due.
"""

from __future__ import annotations

import io
import json
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from math import lcm
from pathlib import Path
from typing import IO, Callable

from .bignum import BACKEND, DecimalNat, digit_count, digit_sum, digit_tally, is_doubled
from .checks import check_positions
from .intlog import digit_count_range, digit_sum_exceeds_log4
from .power import PowerState, load_checkpoint, save_checkpoint
from .ratios import render_quotient, render_scaled
from .shards import CAN_FORK, MAX_JOBS, POLL_ROWS, Forked, default_jobs, plan_shards

CSV_HEADER = "n,s,digit_count,ratio,running_mean,theorem_ok,lemma2_ok,gap_ok,fourpow_ok"
RATIO_PLACES = 10
_RATIO_UNIT = 10**RATIO_PLACES
MAX_LOGGED_FAILURES = 20
# split rows written together
SPLIT_BATCH = 16

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
    jobs: int = field(default_factory=default_jobs)  # processes the sweep is sharded across


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
    first_n: int  # the rows emitted, first_n..last_n
    last_n: int
    rows: int = 0
    elapsed: float = 0.0
    check_failures: dict[str, int] = field(default_factory=dict)
    jobs: int = 1  # shards that ran

    @property
    def ok(self) -> bool:
        return not self.check_failures

    def describe(self) -> str:
        state = "ok" if self.ok else "FAILED " + str(self.check_failures)
        rate = self.rows / self.elapsed if self.elapsed > 0 else 0.0
        return (
            f"rows {self.rows} (n={self.first_n}..{self.last_n}, "
            f"multiplier={self.multiplier}) {state} "
            f"in {self.elapsed:.1f}s ({rate:.0f} rows/s, {self.jobs} "
            f"{'job' if self.jobs == 1 else 'jobs'}), {BACKEND}"
        )


class _RatioWindow:
    """The ratio s/n of each row pushed and the exact mean of s/n over
    the last `window` rows, both rendered to RATIO_PLACES places,
    round-half-even.

    The sweep pushes every n from max(1, lo - window + 1) on, lo being
    the first row it emits, so the mean at row n covers
    max(1, n - window + 1)..n whatever the emit range and start.

    A row forms no exact mean unless it sits next to a rounding
    midpoint.  With P = RATIO_PLACES and G = GUARD, the window keeps F,
    the sum of its rows' terms floor(s * 10**(P+G) / n).  Each term is
    less than 1 below its exact value, so the exact scaled sum T of the
    c rows lies in [F, F + c), and the mean times 10**P is T / d with
    d = c * 10**G.  When no midpoint (k + 1/2) * d lies in [F, F + c],
    T / d and F / d round to the same integer, (2F + d) // (2d).
    Otherwise (odds about 10**-G a row) the mean is exactly N / (c * D),
    with D the lcm of the window's n and N the sum of s * (D // n),
    rendered by render_quotient, which rounds the value itself.
    """

    GUARD = 6

    def __init__(self, window: int):
        self.window = window
        self._unit = 10**self.GUARD
        self._scale = _RATIO_UNIT * self._unit
        self._rows: deque[tuple[int, int, int]] = deque()  # (n, s, term)
        self._sum = 0  # F

    def push(self, n: int, s: int) -> tuple[str, str]:
        ratio = render_quotient(s * _RATIO_UNIT, n, RATIO_PLACES)
        if self.window == 1:
            return ratio, ratio
        rows = self._rows
        term = s * self._scale // n
        rows.append((n, s, term))
        self._sum += term
        if len(rows) > self.window:
            self._sum -= rows.popleft()[2]
        c = len(rows)
        d = c * self._unit
        f2 = 2 * self._sum
        q = (f2 + d) // (2 * d)
        # F / d lies in [q - 1/2, q + 1/2): the midpoints beside it
        if (2 * q - 1) * d < f2 and f2 + 2 * c < (2 * q + 1) * d:
            return ratio, render_scaled(q, RATIO_PLACES)
        den = lcm(*(n for n, _, _ in rows))
        num = sum(s * (den // n) for n, s, _ in rows)
        return ratio, render_quotient(num * _RATIO_UNIT, c * den, RATIO_PLACES)


_FLAG = {None: "", True: "1", False: "0"}


def _csv_row(rec: VerificationRecord, ratio: str, mean: str) -> str:
    return (
        f"{rec.n},{rec.s},{rec.digit_count},{ratio},{mean},"
        f"{_FLAG[rec.theorem_ok]},{_FLAG[rec.lemma2_ok]},"
        f"{_FLAG[rec.gap_ok]},{_FLAG[rec.fourpow_ok]}\n"
    )


def _json_row(rec: VerificationRecord, ratio: str, mean: str) -> str:
    obj = {**vars(rec), "ratio": ratio, "running_mean": mean}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


_ROW_TEXT = {"csv": _csv_row, "json": _json_row}


def _initial_state(cfg: SweepConfig) -> PowerState:
    if cfg.start_checkpoint is not None:
        state = load_checkpoint(cfg.start_checkpoint)
        if cfg.multiplier is not None and state.multiplier != cfg.multiplier:
            raise ValueError(
                f"checkpoint multiplier {state.multiplier} does not match "
                f"requested {cfg.multiplier}"
            )
        return state
    return PowerState.start(2 if cfg.multiplier is None else cfg.multiplier)


class _RowChecks:
    """Every verdict of a row but its split verdict, for the rows after
    n of one band, in n order: called with n and multiplier**n, it
    returns the row's record with lemma2_ok still open.  It carries
    multiplier**n mod 9 from pow(multiplier, n, 9), so the mod 9 check
    reads n, never the value.  The position checks, claims about 2**n,
    run only when multiplier is 2.
    """

    def __init__(self, multiplier: int, n: int):
        self.multiplier = multiplier
        self.r9 = pow(multiplier, n, 9)  # a**n mod 9, from n alone
        self.dc, self.dc_lo, self.dc_hi = 0, 1, 0  # 2**n has dc digits for n in dc_lo..dc_hi

    def __call__(self, n: int, value: DecimalNat) -> VerificationRecord:
        s, m = digit_tally(value)
        dc = digit_count(value)
        self.r9 = self.r9 * self.multiplier % 9
        mod9_ok = s % 9 == self.r9
        if self.multiplier != 2:
            return VerificationRecord(n, s, dc, m, None, None, None, None, None, None, mod9_ok)
        if dc != self.dc:
            self.dc = dc
            self.dc_lo, self.dc_hi = digit_count_range(dc)
        gap_ok, fourpow_ok, ekbound_ok = check_positions(value.limbs, dc)
        return VerificationRecord(
            n, s, dc, m, digit_sum_exceeds_log4(n, s), None, gap_ok, fourpow_ok,
            ekbound_ok, self.dc_lo <= n <= self.dc_hi, mod9_ok,
        )


class _Tally:
    """Row count, check failures and failure lines of one shard.

    A row logs one failure line, and a shard keeps the first
    MAX_LOGGED_FAILURES of them.  The parent's own shard logs them as it
    goes; a forked shard logs nothing, and the parent replays its lines
    into its tally when the shards before it are done, so the log and
    the failure counts read as one process would have written them.
    """

    def __init__(self, log: Callable[[str], None] | None):
        self.rows = 0
        self.check_failures: dict[str, int] = {}
        self.failure_lines: list[str] = []
        self._log = log

    def failure_line(self, line: str) -> None:
        if len(self.failure_lines) >= MAX_LOGGED_FAILURES:
            return
        self.failure_lines.append(line)
        if self._log is not None:
            self._log("FAIL " + line)

    def add(self, rec: VerificationRecord) -> None:
        self.rows += 1
        # the CHECK_NAMES, each a bool or None, tested one by one: a
        # third of the cost of an attrgetter's tuple and a scan of it
        if (
            rec.theorem_ok is False or rec.lemma2_ok is False or rec.gap_ok is False
            or rec.fourpow_ok is False or rec.ekbound_ok is False
            or rec.digitcount_ok is False or rec.mod9_ok is False
        ):
            bad = rec.failed_checks()
            for name in bad:
                self.check_failures[name] = self.check_failures.get(name, 0) + 1
            self.failure_line(f"n={rec.n}: failed {','.join(bad)}")

    def merge(self, later: "_Tally") -> None:
        """Append the tally of the rows just above this one's."""
        self.rows += later.rows
        for name, count in later.check_failures.items():
            self.check_failures[name] = self.check_failures.get(name, 0) + count
        for line in later.failure_lines:
            self.failure_line(line)


def _walk_to(state: PowerState, n: int) -> None:
    if state.n > n:
        state.step_back(state.n - n)
    else:
        state.step_forward(n - state.n)


def run_sweep(
    cfg: SweepConfig,
    out: IO[str],
    fmt: str = "csv",
    log: Callable[[str], None] | None = None,
) -> tuple[SweepSummary, list]:
    """Run the sweep, writing its rows to `out` and each failure line,
    prefixed "FAIL ", to `log`; returns the summary and an empty list."""
    state = _initial_state(cfg)
    start_n = state.n
    if cfg.max_n <= start_n:
        raise ValueError(f"max_n {cfg.max_n} is not beyond start n {start_n}")
    if cfg.split_checks not in ("policy", "full", "off"):
        raise ValueError(f"unknown split_checks mode {cfg.split_checks!r}")
    if not 1 <= cfg.jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be in 1..{MAX_JOBS}, got {cfg.jobs}")
    if cfg.window < 1:
        raise ValueError(f"window must be >= 1, got {cfg.window}")
    if cfg.checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {cfg.checkpoint_every}")
    if not cfg.checkpoint_seconds >= 0:  # NaN too: it would turn time checkpoints off
        raise ValueError(f"checkpoint_seconds must be >= 0, got {cfg.checkpoint_seconds}")
    emit_lo, emit_hi = cfg.emit_range or (1, cfg.max_n)
    if not 1 <= emit_lo <= emit_hi <= cfg.max_n:
        raise ValueError(f"bad emit range {emit_lo}..{emit_hi} for max_n {cfg.max_n}")
    if fmt not in _ROW_TEXT:
        raise ValueError(f"unknown format {fmt!r}")
    splits = state.multiplier == 2 and cfg.split_checks != "off"
    lo = max(emit_lo, start_n + 1)  # the first row emitted
    bands = plan_shards(lo, emit_hi, cfg.jobs if CAN_FORK else 1)
    row_text = _ROW_TEXT[fmt]
    if fmt == "csv":
        out.write(CSV_HEADER + "\n")
    ckpt_dir = Path(cfg.checkpoint_dir) if cfg.checkpoint_dir is not None else None
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    def save_to_dir(s: PowerState) -> None:
        save_checkpoint(s, ckpt_dir / f"ckpt-n{s.n:012d}.txt")

    def check_band(
        band: tuple[int, int], out: IO[str], tally: _Tally,
        save: Callable[[PowerState], None], poll: Callable[[], None] | None = None,
    ) -> None:
        """Check rows band[0]..band[1], walking `state` there from
        wherever it stands; hands each state due a checkpoint to save,
        and calls poll, if given, every POLL_ROWS rows."""
        band_lo, band_hi = band
        window = _RatioWindow(cfg.window)
        saved_n = None
        last_t = time.monotonic()

        def checkpoint() -> None:
            nonlocal saved_n, last_t
            save(state)
            saved_n, last_t = state.n, time.monotonic()

        if band_lo <= band_hi:
            # row band_lo's window covers first..band_lo
            first = max(1, band_lo - cfg.window + 1)
            _walk_to(state, first - 1)
            for n in range(first, band_lo):
                state.step()
                window.push(n, digit_sum(state.value))
            row_checks = _RowChecks(state.multiplier, band_lo - 1)
            # a private copy of the row before, while it is proven 2**n.
            # A resumed first band with window 1 proves again the state
            # load_checkpoint has just proven.  That proof stays until the
            # band walks are certified as well: dropping it alone lowered
            # verify-deep rows_per_s by 8-10% in three 15-trial pairs on
            # a 2-vCPU box, since the parent's rows then start while the
            # child still runs its own to_int
            prev = state.value.limbs.copy() if splits and state.is_exact() else None
            text: list[str] = []  # rows not yet written
            step, add, push, write = state.step, tally.add, window.push, out.write
            every, seconds = cfg.checkpoint_every, cfg.checkpoint_seconds
            for n in range(band_lo, band_hi + 1):
                if poll is not None and (n - band_lo) % POLL_ROWS == 0:
                    poll()
                step()
                rec = row_checks(n, state.value)
                due = ckpt_dir is not None and (
                    (n - start_n) % every == 0 or time.monotonic() - last_t >= seconds
                )
                if splits:
                    rec.lemma2_checked = min(n, rec.digit_count - 1)
                    row = state.value.limbs.copy() if prev is not None else None
                    rec.lemma2_ok = row is not None and is_doubled(prev, row)
                    prev = row if rec.lemma2_ok else None
                add(rec)
                line = row_text(rec, *push(n, rec.s))
                if not splits:
                    write(line)
                else:
                    text.append(line)
                    if due or n == band_hi or (n - band_lo) % SPLIT_BATCH == 0:
                        write("".join(text))
                        text.clear()
                if due:
                    checkpoint()
        # the last band ends the run with a checkpoint at max_n
        if ckpt_dir is not None and band_hi == emit_hi and saved_n != cfg.max_n:
            _walk_to(state, cfg.max_n)
            checkpoint()

    def run_forked(band: tuple[int, int]) -> tuple[str, _Tally, list[PowerState]]:
        text = io.StringIO()
        tally = _Tally(None)
        kept: list[PowerState] = []

        def keep(s: PowerState) -> None:
            kept.append(PowerState(s.n, DecimalNat(s.value.limbs.copy()), s.multiplier))

        check_band(band, text, tally, keep)
        return text.getvalue(), tally, kept

    def poll_children() -> None:
        for child in children:
            child.poll()

    tally = _Tally(log)
    children: list[Forked] = []
    t0 = time.perf_counter()
    try:
        for band in bands[1:]:
            children.append(Forked(partial(run_forked, band)))
        check_band(bands[0], out, tally, save_to_dir, poll_children if children else None)
        for child in children:
            text, later, kept = child.result()
            tally.merge(later)
            out.write(text)
            for s in kept:
                save_to_dir(s)
    finally:
        for child in children:
            child.stop()

    summary = SweepSummary(
        state.multiplier, lo, emit_hi, tally.rows, time.perf_counter() - t0,
        tally.check_failures, jobs=len(bands),
    )
    # the empty list remains so callers that unpack a pair still run
    return summary, []
