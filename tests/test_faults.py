"""One table of faults injected into whole sweeps.

Each row is a fault; each column a way to run the sweep: `verify` or
`stats`, multiplier a in {2, 3, 5}, 1 or 2 jobs, fresh or resumed from
a checkpoint at n = N0.  Every cell runs cli.main in-process and
asserts the exit code, and for a failed check the first FAIL line.
With 2 jobs the bad row lies in the last band, so a child meets it.
An injector fires on the value it is handed, not on a call count, so
it serves any band, any process and either start.

Known gaps, cells whose bad row passes today and so are left out
(ROADMAP item 4, which proves every row to hold a**n, adds them):
* swap and walk for `stats` and for a != 2: only mod 9 checks each link
  of those chains, and a swap keeps the digit sum; the run exits 0, or
  1 only where a later row's digit count happens to fail;
* start for a = 3, since 2 * 3**n and 3**n are both 0 mod 9.
"""

import itertools
import json
import os
import re
import signal
from dataclasses import dataclass
from pathlib import Path

import pytest

import digitpow as dp
from digitpow.cli import main
from digitpow.shards import plan_shards
from oracles import checkpoint_text, swap_adjacent_digits

N0 = 150  # where resumed cells start
MAX_N = 400
SHARD_MAX_N = 6000  # the parent's band takes over 0.1 s: it can stop early
# verify, a = 2, jobs 1, fresh: one cell per row whose step carries out of
# limb 0; 114 opens the write batch 114..129, 101 sits inside 98..113, 97
# closes 82..97
DROPPED_CARRY_ROWS = (114, 101, 97)
B = dp.LIMB_BASE


def inject(monkeypatch, a: int, n: int, fault, j: int = 1) -> None:
    """The multiplication of a**(n-j) by a**j, the step to a**n when j
    is 1, leaves the value with digits fault(str(a**n)) instead."""
    before = a ** (n - j)
    size = len(dp.from_decimal_string(str(before)).limbs)
    real_double, real_mul = dp.power.double_in_place, dp.power.mul_small

    def hit(x) -> bool:
        return x.limbs.size == size and x.limbs[0] == before % B and dp.bignum.to_int(x) == before

    def double(x):
        if a == 2 and j == 1 and hit(x):
            x.limbs = dp.from_decimal_string(fault(str(2 * before))).limbs
            return x
        return real_double(x)

    def mul(x, c):
        if c == a**j and hit(x):
            return dp.from_decimal_string(fault(str(c * before)))
        return real_mul(x, c)

    monkeypatch.setattr(dp.power, "double_in_place", double)
    monkeypatch.setattr(dp.power, "mul_small", mul)


def drop_carry(a: int):
    """The step to v = a**n loses its carry out of limb 0, which is not 0
    at the rows used here: a**(n-1) % B * a >= B."""
    return lambda v: str(int(v) - int(v) // a % B * a // B * B)


def load_start(monkeypatch, n: int, value: int, a: int = 2) -> None:
    """Hands the sweep the start state (n, value), which the checkpoint
    loader would refuse, built afresh per load: the sweep steps it."""
    monkeypatch.setattr(
        dp.sweep, "load_checkpoint",
        lambda path: dp.PowerState(n, dp.from_decimal_string(str(value)), a),
    )


def assert_no_children() -> None:
    # every forked shard has been reaped: waitpid finds no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@dataclass
class Cell:
    mode: str
    a: int
    jobs: int
    resumed: bool
    tmp_path: Path
    capsys: pytest.CaptureFixture
    max_n: int = MAX_N
    row: int | None = None  # the bad row, where the cell names one

    @property
    def bands(self) -> list[tuple[int, int]]:
        return plan_shards(N0 + 1 if self.resumed else 1, self.max_n, self.jobs)

    def run(self, start: str | None = None) -> tuple[int, str, list[dict]]:
        """Exit code, stderr and rows; a resumed run starts from `start` or a**N0."""
        out = self.tmp_path / "rows.json"
        argv = [self.mode, "--multiplier", str(self.a), "--jobs", str(self.jobs),
                "--max-n", str(self.max_n), "--format", "json", "--out", str(out)]
        if self.resumed:
            path = self.tmp_path / "start.txt"
            path.write_text(checkpoint_text(self.a, N0, start or str(self.a**N0)))
            argv += ["--start-checkpoint", str(path)]
        code = main(argv)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        return code, self.capsys.readouterr().err, rows

    def fails_first_at(self, n: int, checks: str = "") -> list[dict]:
        if not checks:  # a row off the chain fails mod9_ok, and lemma2_ok where it applies
            checks = "lemma2_ok,mod9_ok" if (self.mode, self.a) == ("verify", 2) else "mod9_ok"
        code, err, rows = self.run()
        fails = [line for line in err.splitlines() if line.startswith("FAIL")]
        assert (code, fails[0]) == (1, f"FAIL n={n}: failed {checks}")
        return rows


def carry(cell: Cell, monkeypatch) -> None:
    n = cell.row or next(n for n in itertools.count(300) if cell.a ** (n - 1) % B * cell.a >= B)
    assert n >= cell.bands[-1][0]
    inject(monkeypatch, cell.a, n, drop_carry(cell.a))
    cell.fails_first_at(n)


def power_of_ten(cell: Cell, monkeypatch) -> None:
    # row n holds the power of ten with its digit count: digit sum 1, so
    # the theorem fails, and so do the certificate and the checks of
    # e_1 = 0; 2**n is 1 mod 9 too, so mod9_ok passes
    n = MAX_N - 10
    assert pow(2, n, 9) == 1
    inject(monkeypatch, 2, n, lambda v: "1" + "0" * (len(v) - 1))
    cell.fails_first_at(n, "theorem_ok,lemma2_ok,fourpow_ok,ekbound_ok")


def swap_digits(cell: Cell, monkeypatch) -> None:
    # digit sum, digit count and low digits stay: only the doubling
    # certificate of the link into row n sees it
    inject(monkeypatch, 2, MAX_N - 10, swap_adjacent_digits)
    cell.fails_first_at(MAX_N - 10, "lemma2_ok")


def walk(cell: Cell, monkeypatch) -> None:
    # the child walks to lo - 1 by 2**29 per multiplication; its start
    # state is then not 2**(lo - 1), so no row of its band is proven
    (_, parent_hi), (lo, hi) = cell.bands
    first = N0 if cell.resumed else 0
    inject(monkeypatch, 2, first + (lo - 1 - first) // 29 * 29, swap_adjacent_digits, j=29)
    rows = cell.fails_first_at(lo, "lemma2_ok")
    assert [r["lemma2_ok"] for r in rows] == [True] * (parent_hi - first) + [False] * (hi - lo + 1)


def start(cell: Cell, monkeypatch) -> None:
    # 2 * a**N0 handed past the loader: the residue each row is compared
    # with comes from n, in every band and after every walk
    load_start(monkeypatch, N0, 2 * cell.a**N0, cell.a)
    rows = cell.fails_first_at(N0 + 1)
    assert len(rows) == MAX_N - N0
    assert not any(r["mod9_ok"] or r["lemma2_ok"] for r in rows)


def checkpoint(cell: Cell, monkeypatch) -> None:
    # a wrong value with a recomputed digest, the same mod 9
    code, err, _ = cell.run(start=swap_adjacent_digits(str(cell.a**N0)))
    line = rf"digitpow {cell.mode}: error: .*\b{cell.a}\*\*{N0}\b.*\n"
    assert code == 2 and re.fullmatch(line, err)


def shard(cell: Cell, monkeypatch) -> None:
    # the child kills itself on its first row; the parent sees it at its
    # next poll, long before its own band ends
    cell.max_n = SHARD_MAX_N
    (lo_0, hi_0), (lo, _) = cell.bands
    inject(monkeypatch, cell.a, lo, lambda v: os.kill(os.getpid(), signal.SIGKILL))
    code, err, rows = cell.run()
    assert code == 2 and re.fullmatch(rf"digitpow {cell.mode}: error: sweep shard process "
                                      r"\d+ was killed by signal 9 with no result\n", err)
    assert len(rows) < (hi_0 - lo_0 + 1) / 2
    assert_no_children()


CELLS = list(itertools.product(("verify", "stats"), (2, 3, 5), (1, 2), ("fresh", "resumed")))
TABLE = {  # fault: the cells (mode, a, jobs, start) it runs in
    carry: CELLS,
    power_of_ten: [("verify", 2, 1, "fresh")],
    swap_digits: [c for c in CELLS if c[:2] == ("verify", 2)],
    walk: [c for c in CELLS if c[:3] == ("verify", 2, 2)],
    start: [c for c in CELLS if c[1] in (2, 5) and c[3] == "resumed"],
    checkpoint: [c for c in CELLS if c[3] == "resumed"],
    shard: [c for c in CELLS if c[2] == 2],
}


@pytest.mark.parametrize("fault,mode,a,jobs,begin,row", [
    pytest.param(fault, *cell, row, id=f"{fault.__name__}-{cell[0]}-a{cell[1]}-jobs{cell[2]}-"
                 f"{cell[3]}" + (f"-n{row}" if row else ""))
    for fault, cells in TABLE.items() for cell in cells
    for row in (DROPPED_CARRY_ROWS if (fault, *cell) == (carry, "verify", 2, 1, "fresh")
                else (None,))
])
def test_fault(tmp_path, capsys, monkeypatch, fault, mode, a, jobs, begin, row):
    fault(Cell(mode, a, jobs, begin == "resumed", tmp_path, capsys, row=row), monkeypatch)
