"""Command line surface: verify, stats, decompose, bounds, oeis.

A sweep's timing is part of its summary line on stderr: `verify --max-n
N --out /dev/null` reports the rows, rows/s and jobs of n = 1..N.

Exit codes: 0 success, 1 any verification failure or series mismatch,
2 usage, IO, parse or checkpoint-integrity errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .bignum import digit_count, digit_scan, digit_sum, digit_tally
from .checks import check_positions
from .intlog import BOUND_TABLE_MAX_K, bound_table
from .oeis import BFileFormatError, parse_bfile
from .power import CheckpointError, PowerState
from .ratios import CONJECTURE_CONSTANT
from .shards import MAX_JOBS, default_jobs
from .sweep import SweepConfig, run_sweep


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


@contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        # explicit newline="" keeps LF endings everywhere
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _parse_range(text: str, max_n: int | None) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"range must be 'LO:HI', got {text!r}") from None
    if max_n is not None:
        hi = min(hi, max_n)
    return lo, hi


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        max_n=args.max_n,
        multiplier=args.multiplier,
        window=args.window,
        start_checkpoint=args.start_checkpoint,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        checkpoint_seconds=args.checkpoint_seconds,
        jobs=args.jobs,
    )
    with _open_out(args.out) as fh:
        summary, _ = run_sweep(cfg, out=fh, fmt=args.format, log=_log)
    _log("verify: " + summary.describe())
    return 0 if summary.ok else 1


def cmd_stats(args: argparse.Namespace) -> int:
    if args.range is not None:
        lo, hi = _parse_range(args.range, args.max_n)
    else:
        if args.max_n is None:
            raise ValueError("stats needs --range or --max-n")
        lo, hi = 1, args.max_n
    cfg = SweepConfig(
        max_n=hi,
        multiplier=args.multiplier,
        window=args.window,
        split_checks="off",
        start_checkpoint=args.start_checkpoint,
        emit_range=(lo, hi),
        jobs=args.jobs,
    )
    with _open_out(args.out) as fh:
        summary, _ = run_sweep(cfg, out=fh, fmt=args.format, log=_log)
    _log("stats: " + summary.describe())
    _log(f"stats: reference constant (9/2)*log10(2) = {CONJECTURE_CONSTANT}")
    return 0 if summary.ok else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError(f"n must be >= 0, got {args.n}")
    state = PowerState.start(args.multiplier)
    state.step_forward(args.n)
    # the same tally and position checks as a sweep row; like a sweep,
    # it reports the position verdicts, claims about 2**n, only for 2
    s, m = digit_tally(state.value)
    dc = digit_count(state.value)
    pc = None
    if args.multiplier == 2:
        pc = check_positions(state.value.limbs, dc)
    terms = digit_scan(state.value)
    if args.format == "json":
        obj = {
            "n": args.n,
            "multiplier": args.multiplier,
            "digit_count": dc,
            "s": s,
            "m": m,
            "terms": [list(t) for t in terms],
            "gap_ok": None if pc is None else pc.gap_ok,
            "fourpow_ok": None if pc is None else pc.fourpow_ok,
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"n={args.n} multiplier={args.multiplier}")
        print(f"s={s} digit_count={dc} m={m}")
        print("terms: " + " ".join(f"({d},{e})" for d, e in terms))
        if pc is not None:
            print(f"gap_ok={int(pc.gap_ok)} fourpow_ok={int(pc.fourpow_ok)}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    entries = bound_table(args.k)
    print("k,B_k,four_power,holds")
    for k, b in enumerate(entries, start=1):
        cap = 4 ** (k - 1)
        print(f"{k},{b},{cap},{int(b < cap)}")
    return 0


def cmd_oeis(args: argparse.Namespace) -> int:
    series = parse_bfile(args.bfile)  # contiguous indices, in order
    first, last = next(iter(series)), next(reversed(series))
    if args.max_n is not None:
        last = min(last, args.max_n)
    if last < 0:
        _log("oeis: no overlap at or above n=0")
        return 2
    state = PowerState.start(args.multiplier)
    overlap = range(max(first, 0), last + 1)
    if not overlap:
        _log("oeis: empty overlap between the b-file and computed range")
        return 2
    state.step_forward(overlap.start)
    mismatches = []
    for n in overlap:
        if n > overlap.start:
            state.step()
        got = digit_sum(state.value)
        if got != series[n]:
            mismatches.append((n, series[n], got))
    for n, expected, got in mismatches[:20]:
        _log(f"MISMATCH n={n}: b-file {expected}, computed {got}")
    _log(f"oeis: compared {len(overlap)} entries, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitpow",
        description="Exact verification of digit-sum growth for powers of two.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=default_jobs(),
                       help=f"processes to shard the sweep's rows across, 1..{MAX_JOBS}; the "
                            "output does not depend on it (default: the cores "
                            "this process may use, %(default)s)")

    def add_common(p: argparse.ArgumentParser, window: int) -> None:
        p.add_argument("--multiplier", type=int, default=None,
                       help="base of the power chain (2..99, not a power of ten; "
                            "default 2 or the resumed checkpoint's base)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--window", type=int, default=window,
                       help="trailing window for running_mean (default %(default)s)")
        p.add_argument("--start-checkpoint", default=None,
                       help="resume from this checkpoint file")

    p = sub.add_parser("verify", help="sweep n and verify every claim")
    add_common(p, window=1)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--checkpoint-every", type=int, default=100_000,
                   help="steps between checkpoints")
    p.add_argument("--checkpoint-seconds", type=float, default=60.0,
                   help="seconds between checkpoints")
    add_jobs(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="ratio tracking sweep (split checks off)")
    add_common(p, window=100)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--range", default=None, help="emit rows for n in LO:HI")
    add_jobs(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("decompose", help="digit decomposition of multiplier**n")
    p.add_argument("n", type=int)
    p.add_argument("--multiplier", type=int, default=2)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bounds", help="print the iterated position bound table")
    p.add_argument("k", type=int, help=f"rows to print, 1..{BOUND_TABLE_MAX_K}")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oeis", help="cross-check digit sums against a b-file")
    p.add_argument("bfile")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--multiplier", type=int, default=2)
    p.set_defaults(func=cmd_oeis)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BFileFormatError, CheckpointError, ValueError, OSError) as exc:
        print(f"digitpow {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
