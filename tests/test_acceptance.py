"""Acceptance suite: one test per release criterion, strict tolerances.

Each test prints a [PASS] line with its measured detail (visible under
pytest -s); any assertion failure is a release blocker.  The heavyweight
n <= 100000 sweep runs once as a session fixture and backs the
criteria that quantify over the full range: the verdicts its CSV
carries are read from the CSV's cells, the others from the failure
counts of its summary.
"""

import csv
import hashlib
import io
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import digitpow as dp
from digitpow.cli import main
from digitpow.sweep import CSV_HEADER
from oracles import bfile_text, conjecture_constant, oracle_digit_sum, render_fraction
from test_cli import run_json

FULL_SWEEP_MAX_N = 100_000
# sha256 of the n <= 100000 CSV, the same from one process, sharded and
# resumed runs
FULL_SWEEP_SHA256 = "8373b33c527ff11ef715462ec527387a3c2509bd158c136714adf651128efa65"


@pytest.fixture(scope="session")
def sweep_100k(tmp_path_factory):
    out_path = tmp_path_factory.mktemp("acceptance") / "sweep100k.csv"
    t0 = time.perf_counter()
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        summary, _ = dp.run_sweep(dp.SweepConfig(max_n=FULL_SWEEP_MAX_N), out=fh)
    elapsed = time.perf_counter() - t0
    assert summary.rows == FULL_SWEEP_MAX_N
    return SimpleNamespace(summary=summary, elapsed=elapsed, csv=out_path)


def csv_rows(path):
    """The rows of a sweep's CSV, one dict of cells per row."""
    with open(path, encoding="utf-8", newline="") as fh:
        yield from csv.DictReader(fh)


def test_bound_table_reproduction(capsys):
    t0 = time.perf_counter()
    assert main(["bounds", "6"]) == 0
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.splitlines()
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values == [0, 3, 13, 46, 156, 521]
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\n[PASS] bound-table reproduction: bounds 6 -> {values} "
              f"in {elapsed:.3f}s (< 1s)")


def test_lower_bound_sweep(sweep_100k, capsys):
    s = sweep_100k
    assert s.summary.rows == FULL_SWEEP_MAX_N
    assert s.summary.ok, f"sweep failures: {s.summary.check_failures}"
    assert all(row["theorem_ok"] == "1" for row in csv_rows(s.csv))
    assert s.elapsed <= 300.0, f"sweep took {s.elapsed:.0f}s, target 300s"
    with capsys.disabled():
        print(f"\n[PASS] lower-bound sweep: n=1..{FULL_SWEEP_MAX_N}, "
              f"0 failures in {s.elapsed:.1f}s (<= 300s)")


def test_north_star_output_bytes(sweep_100k, capsys):
    digest = hashlib.sha256(sweep_100k.csv.read_bytes()).hexdigest()
    assert digest == FULL_SWEEP_SHA256
    with capsys.disabled():
        print(f"\n[PASS] north-star output: n=1..{FULL_SWEEP_MAX_N} CSV "
              f"sha256 {digest}")


def test_split_bound_exhaustive_band(capsys):
    t0 = time.perf_counter()
    summary, rows = run_json(dp.SweepConfig(max_n=2000))
    elapsed = time.perf_counter() - t0
    assert summary.ok
    checked = 0
    for rec in rows:
        assert rec.lemma2_ok, f"split bound failed at n={rec.n}"
        assert rec.lemma2_checked == min(rec.n, rec.digit_count - 1)
        checked += rec.lemma2_checked
    assert elapsed < 120.0
    with capsys.disabled():
        print(f"\n[PASS] split-bound exhaustive band: n<=2000, all k "
              f"({checked} splits), 0 failures in {elapsed:.1f}s (< 120s)")


def test_digit_position_bounds(sweep_100k, capsys):
    bad = [int(row["n"]) for row in csv_rows(sweep_100k.csv) if row["fourpow_ok"] != "1"]
    assert bad == [], f"position bounds failed at n={bad[:10]}"
    assert "ekbound_ok" not in sweep_100k.summary.check_failures
    assert all(row["gap_ok"] == "1" for row in csv_rows(sweep_100k.csv))
    with capsys.disabled():
        print(f"\n[PASS] digit-position bounds: e1=0, e_k<=B_k, e_k<4^(k-1) "
              f"for all n<={FULL_SWEEP_MAX_N}")


def test_digit_count_formula(sweep_100k, capsys):
    # the sweep is exhaustive through 10^5, covering both the 10^4
    # exhaustive clause and any sampled subset above it
    assert "digitcount_ok" not in sweep_100k.summary.check_failures
    with capsys.disabled():
        print(f"\n[PASS] digit-count formula: floor(n log10 2)+1 exact "
              f"for all n<={FULL_SWEEP_MAX_N}")


def test_oracle_equivalence(tmp_path, capsys):
    state = dp.PowerState.start()
    computed = {0: dp.digit_sum(state.value)}
    for n in range(1, 201):
        state.step()
        computed[n] = dp.digit_sum(state.value)
    expected = {n: oracle_digit_sum(n) for n in range(201)}
    assert computed == expected
    path = tmp_path / "bfile_prefix.txt"
    path.write_text(bfile_text(expected))
    assert dp.parse_bfile(path) == computed
    assert main(["oeis", str(path)]) == 0
    capsys.readouterr()
    with capsys.disabled():
        print("\n[PASS] oracle equivalence: s(2^n) matches string oracle and "
              "b-file for n=0..200, 0 mismatches")


def test_conjecture_desk_band(sweep_100k, capsys):
    # not a proved statement: a loose plausibility band around the
    # conjectured limit, checked on desk scale only
    window = [Fraction(int(row["s"]), int(row["n"])) for row in csv_rows(sweep_100k.csv)
              if 9000 <= int(row["n"]) <= 10000]
    assert len(window) == 1001
    mean = sum(window) / len(window)
    center = Fraction("1.35463")
    tol = Fraction("0.05")
    assert abs(mean - center) <= tol, f"mean {float(mean):.6f} outside band"
    assert conjecture_constant(5) == "1.35463"
    with capsys.disabled():
        print(f"\n[PASS] conjecture desk band: mean s(2^n)/n over "
              f"[9000,10000] = {render_fraction(mean, 6)}, within "
              f"1.35463 +/- 0.05")


def test_checkpoint_determinism(tmp_path, capsys):
    fresh = io.StringIO()
    dp.run_sweep(dp.SweepConfig(max_n=1000), out=fresh)
    ckdir = tmp_path / "ck"
    dp.run_sweep(dp.SweepConfig(max_n=500, checkpoint_dir=ckdir,
                                checkpoint_every=10**9), out=io.StringIO())
    ckpt = ckdir / "ckpt-n000000000500.txt"
    assert ckpt.exists()
    resumed = io.StringIO()
    dp.run_sweep(dp.SweepConfig(max_n=1000, start_checkpoint=ckpt), out=resumed)
    fresh_lines = fresh.getvalue().splitlines(keepends=True)
    resumed_lines = resumed.getvalue().splitlines(keepends=True)
    assert resumed_lines[0] == CSV_HEADER + "\n"
    assert resumed_lines[1:] == fresh_lines[501:]
    assert len(resumed_lines) == 501
    with capsys.disabled():
        print("\n[PASS] checkpoint determinism: resumed rows 501..1000 "
              "byte-identical to the fresh run")


def test_casting_out_nines(sweep_100k, capsys):
    assert "mod9_ok" not in sweep_100k.summary.check_failures
    with capsys.disabled():
        print(f"\n[PASS] casting-out-nines: digit sums agree with "
              f"pow(2, n, 9) for all n<={FULL_SWEEP_MAX_N}")
