import hashlib
import io
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import digitpow as dp
import digitpow.bignum
import digitpow.power
import digitpow.sweep
from digitpow.cli import main
from digitpow.sweep import CSV_HEADER
from oracles import (
    bfile_text,
    checkpoint_text,
    decompose,
    four_power_bound_check,
    gap_inequality_check,
    oracle_digit_sum,
    render_fraction,
)
from test_faults import DROPPED_CARRY_ROWS, drop_carry, inject, load_start


def run_csv(cfg: dp.SweepConfig) -> tuple[dp.SweepSummary, list[str]]:
    buf = io.StringIO()
    summary, _ = dp.run_sweep(cfg, out=buf)
    return summary, buf.getvalue().splitlines()


def test_sweep_small_records():
    summary, records = dp.run_sweep(
        dp.SweepConfig(max_n=10), out=io.StringIO(), collect=True
    )
    assert summary.ok and summary.rows == 10
    assert [r.n for r in records] == list(range(1, 11))
    last = records[-1]
    assert (last.s, last.digit_count, last.m) == (7, 4, 3)
    assert last.theorem_ok and last.lemma2_ok and last.gap_ok and last.fourpow_ok
    assert last.ekbound_ok and last.digitcount_ok and last.mod9_ok
    assert last.lemma2_checked == 3  # min(n, digit_count - 1)
    assert records[0].s == 2
    assert [r.s for r in records] == [oracle_digit_sum(n) for n in range(1, 11)]


def test_sweep_rows_expand_no_digit_array(monkeypatch):
    # a row reads its digits from limb tables; the per-digit expansion
    # stays with decompose and the decimal text
    def refuse(limbs):
        raise AssertionError("a sweep row expanded every digit")

    monkeypatch.setattr(dp.bignum, "_digit_planes", refuse)
    summary, records = dp.run_sweep(
        dp.SweepConfig(max_n=300), out=io.StringIO(), collect=True
    )
    assert summary.ok and summary.rows == 300
    assert [r.s for r in records] == [oracle_digit_sum(n) for n in range(1, 301)]
    assert [r.m for r in records] == [sum(c != "0" for c in str(2**n)) for n in range(1, 301)]


def test_sweep_csv_shape():
    summary, lines = run_csv(dp.SweepConfig(max_n=10))
    assert summary.ok
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11
    assert lines[-1] == "10,7,4,0.7000000000,0.7000000000,1,1,1,1"


def test_sweep_single_row():
    summary, lines = run_csv(dp.SweepConfig(max_n=1))
    assert summary.ok
    assert lines[1].startswith("1,2,1,2.0000000000,2.0000000000,1,")


def test_sweep_deterministic_bytes():
    _, first = run_csv(dp.SweepConfig(max_n=50, seed=7))
    _, second = run_csv(dp.SweepConfig(max_n=50, seed=7))
    assert first == second


def test_sweep_json_rows():
    buf = io.StringIO()
    summary, _ = dp.run_sweep(dp.SweepConfig(max_n=5), out=buf, fmt="json")
    assert summary.ok
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(rows) == 5
    assert rows[-1]["s"] == 5 and rows[-1]["m"] == 2
    assert rows[-1]["theorem_ok"] is True
    assert "ekbound_ok" in rows[-1] and "mod9_ok" in rows[-1]


def test_sweep_other_multiplier():
    summary, records = dp.run_sweep(
        dp.SweepConfig(max_n=30, multiplier=3), out=io.StringIO(), collect=True
    )
    assert summary.ok
    for rec in records:
        assert rec.s == oracle_digit_sum(rec.n, 3)
        assert rec.theorem_ok is None and rec.lemma2_ok is None
        assert rec.gap_ok is None and rec.fourpow_ok is None
        assert rec.mod9_ok
    _, lines = run_csv(dp.SweepConfig(max_n=5, multiplier=3))
    assert lines[1].endswith(",,,,")  # inapplicable checks render blank


def test_sweep_multiplier_ending_in_zero():
    summary, records = dp.run_sweep(
        dp.SweepConfig(max_n=20, multiplier=20), out=io.StringIO(), collect=True
    )
    assert summary.ok
    assert records[-1].s == oracle_digit_sum(20, 20)


def test_sweep_emit_range():
    summary, records = dp.run_sweep(
        dp.SweepConfig(max_n=20, emit_range=(5, 8)), out=io.StringIO(), collect=True
    )
    assert [r.n for r in records] == [5, 6, 7, 8]
    assert summary.rows == 4


def test_sweep_window_means():
    buf = io.StringIO()
    dp.run_sweep(dp.SweepConfig(max_n=10, window=3), out=buf)
    lines = buf.getvalue().splitlines()
    ratios = {n: Fraction(oracle_digit_sum(n), n) for n in range(1, 11)}
    mean_n2 = (ratios[1] + ratios[2]) / 2  # prefix-truncated window
    mean_n10 = (ratios[8] + ratios[9] + ratios[10]) / 3
    assert lines[2].split(",")[4] == render_fraction(mean_n2, 10)
    assert lines[10].split(",")[4] == render_fraction(mean_n10, 10)


@pytest.mark.parametrize("split_checks", ["policy", "full"])
def test_sweep_checks_every_split(tmp_path, split_checks):
    # the first rows and a band resumed above n = 2000
    ckpt = dp.save_checkpoint(
        dp.PowerState(2500, dp.from_decimal_string(str(2**2500)), 2), tmp_path / "ck.txt"
    )
    for cfg in (
        dp.SweepConfig(max_n=40, split_checks=split_checks),
        dp.SweepConfig(max_n=2520, start_checkpoint=ckpt, split_checks=split_checks),
    ):
        summary, records = dp.run_sweep(cfg, out=io.StringIO(), collect=True)
        assert summary.ok
        for rec in records:
            assert rec.lemma2_checked == min(rec.n, rec.digit_count - 1)


def test_sweep_rejects_bad_config():
    with pytest.raises(ValueError):
        dp.run_sweep(dp.SweepConfig(max_n=0), out=io.StringIO())
    with pytest.raises(ValueError):
        dp.run_sweep(dp.SweepConfig(max_n=10, split_checks="sometimes"), out=io.StringIO())
    with pytest.raises(ValueError):
        dp.run_sweep(dp.SweepConfig(max_n=10, emit_range=(5, 20)), out=io.StringIO())
    with pytest.raises(ValueError):
        dp.run_sweep(dp.SweepConfig(max_n=10, multiplier=10), out=io.StringIO())


def test_sweep_resume_matches_fresh(tmp_path):
    fresh = io.StringIO()
    dp.run_sweep(dp.SweepConfig(max_n=60, window=5), out=fresh)
    ckdir = tmp_path / "ck"
    dp.run_sweep(
        dp.SweepConfig(max_n=30, window=5, checkpoint_dir=ckdir, checkpoint_every=10**9),
        out=io.StringIO()
    )
    ckpt = ckdir / "ckpt-n000000000030.txt"
    assert ckpt.exists()
    resumed = io.StringIO()
    dp.run_sweep(
        dp.SweepConfig(max_n=60, window=5, start_checkpoint=ckpt), out=resumed
    )
    fresh_rows = fresh.getvalue().splitlines()
    resumed_rows = resumed.getvalue().splitlines()
    assert resumed_rows[0] == CSV_HEADER
    assert resumed_rows[1:] == fresh_rows[31:]


@pytest.mark.parametrize("n,max_n", [(0, 1), (10, 11)])
def test_sweep_resume_with_an_extra_digit(tmp_path, monkeypatch, n, max_n):
    # 10 * 2**n: one digit more than 2**max_n has, so no row's digit
    # count matches its n
    load_start(monkeypatch, n, 10 * 2**n)
    summary, records = dp.run_sweep(
        dp.SweepConfig(max_n=max_n, start_checkpoint=tmp_path / "unread.txt"),
        out=io.StringIO(), collect=True
    )
    assert records[-1].digit_count > max_n // 3 + 1
    assert not summary.ok
    assert all(rec.digitcount_ok is False for rec in records)


@pytest.mark.parametrize("window,multiplier,fmt", [
    pytest.param(1, 2, "csv", id="1"),
    pytest.param(5, 2, "csv", id="5"),
    pytest.param(100, 2, "csv", id="100"),
    # 3 steps back through div_small's generic path
    pytest.param(5, 3, "csv", id="5-a3"),
    pytest.param(100, 3, "csv", id="100-a3"),
    pytest.param(5, 2, "json", id="5-json"),
    pytest.param(100, 3, "json", id="100-a3-json"),
])
def test_stats_running_mean_fresh_matches_resumed(tmp_path, window, multiplier, fmt):
    # running_mean at n averages s/n over max(1, n - window + 1)..n,
    # whether the run starts at n = 0 or resumes below or inside the band
    expected = [
        render_fraction(
            sum(Fraction(oracle_digit_sum(k, multiplier), k)
                for k in range(max(1, n - window + 1), n + 1))
            / (n - max(1, n - window + 1) + 1),
            10,
        )
        for n in range(50, 54)
    ]
    starts = [None]
    for n in (20, 49):
        starts.append(dp.save_checkpoint(
            dp.PowerState(n, dp.from_decimal_string(str(multiplier**n)), multiplier),
            tmp_path / f"ck{n}.txt",
        ))
    for ckpt in starts:
        buf = io.StringIO()
        dp.run_sweep(dp.SweepConfig(
            max_n=53, multiplier=multiplier, window=window, split_checks="off",
            start_checkpoint=ckpt, emit_range=(50, 53),
        ), out=buf, fmt=fmt)
        if fmt == "json":
            means = [json.loads(line)["running_mean"] for line in buf.getvalue().splitlines()]
        else:
            means = [line.split(",")[4] for line in buf.getvalue().splitlines()[1:]]
        assert means == expected, ckpt


class CountingOut(io.StringIO):
    """Records the number of lines of each write."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[int] = []

    def write(self, s: str) -> int:
        self.writes.append(s.count("\n"))
        return super().write(s)


@pytest.mark.parametrize("split_checks", ["policy", "off"])
def test_sweep_split_rows_leave_in_batches(tmp_path, monkeypatch, split_checks):
    # a band's first split row leaves alone; then a batch closes every
    # SPLIT_BATCH rows, at each checkpoint row before its save, and at
    # the band's end.  Rows that check no splits leave one by one
    assert digitpow.sweep.SPLIT_BATCH == 16
    out = CountingOut()
    saves = []
    real_save = digitpow.sweep.save_checkpoint

    def save(state, path):
        saves.append((state.n, out.getvalue().count("\n") - 1))  # rows out by then
        return real_save(state, path)

    monkeypatch.setattr(digitpow.sweep, "save_checkpoint", save)
    cfg = dp.SweepConfig(max_n=40, split_checks=split_checks, checkpoint_dir=tmp_path,
                         checkpoint_every=10, jobs=1)
    summary, _ = dp.run_sweep(cfg, out=out)
    assert summary.ok
    if split_checks == "off":
        assert out.writes == [1] * 41
    else:  # rows 1 | 2..10 | 11..17 | 18..20 | 21..30 | 31..33 | 34..40
        assert out.writes == [1, 1, 9, 7, 3, 10, 3, 7]
    assert saves == [(10, 10), (20, 20), (30, 30), (40, 40)]


def fail_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("FAIL")]


# row 1500 has 51 limbs, and its position checks expand limbs 0..9:
# limbs 0 and 1 are expanded, 20 and 45 are not
@pytest.mark.parametrize("limb", [0, 1, 20, 45])
@pytest.mark.parametrize("when", ["checked", "stepped"])
def test_verify_catches_a_limb_that_doubles_past_int32(tmp_path, capsys, monkeypatch, limb, when):
    # one limb of row n is set to 2**30 + 1, outside the limb range,
    # before row n is checked or after, before the step to n + 1.  Its
    # double, 2**31 + 2, does not fit int32.  The sweep fails at the
    # first row that holds or doubles the bad limb, never passes it, and
    # an expanded limb outside the range fails the position checks
    # rather than raising
    n = 1500
    if when == "checked":
        real = digitpow.sweep._RowChecks.__call__

        def corrupt(self, m, value):
            if m == n:
                value.limbs[limb] = 2**30 + 1
            return real(self, m, value)

        monkeypatch.setattr(digitpow.sweep._RowChecks, "__call__", corrupt)
    else:
        real = digitpow.power.double_in_place
        steps = []

        def corrupt(x):
            steps.append(None)
            if len(steps) == n + 1:
                x.limbs[limb] = 2**30 + 1
            return real(x)

        monkeypatch.setattr(digitpow.power, "double_in_place", corrupt)
    argv = ["verify", "--max-n", str(n + 1), "--jobs", "1", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 1
    lines = fail_lines(capsys.readouterr().err)
    first = n if when == "checked" else n + 1
    assert lines[0].startswith(f"FAIL n={first}: failed ")
    if limb < 2 and when == "checked":
        assert "gap_ok,fourpow_ok,ekbound_ok" in lines[0]


def test_a_sweep_logs_at_most_max_logged_failures(tmp_path, capsys, monkeypatch):
    # a carry dropped at n = 1000 fails every row after it, and the
    # sweep logs only the first lines
    inject(monkeypatch, 2, 1000, drop_carry(2))
    argv = ["verify", "--max-n", "20000", "--jobs", "1", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 1
    lines = fail_lines(capsys.readouterr().err)
    assert len(lines) == dp.sweep.MAX_LOGGED_FAILURES
    assert lines[0].startswith("FAIL n=1000: failed lemma2_ok,")
    assert lines[-1].startswith("FAIL n=1019: failed lemma2_ok,")


def test_verify_ignores_a_row_changed_after_the_next_step(tmp_path, capsys, monkeypatch):
    # row 100's limbs gain 2 in place while row 101 is being checked.
    # Row 100 was decided as it stepped, and row 101 was doubled from it
    # before the change, so no verdict changes
    real = digitpow.sweep.check_positions
    held = []

    def spy(limbs, table):
        held.append(limbs)  # one call per row: held[n - 1] is row n's
        if len(held) == 101:
            held[99][0] += 2  # 2**100 + 2
        return real(limbs, table)

    monkeypatch.setattr(digitpow.sweep, "check_positions", spy)
    argv = ["verify", "--max-n", "130", "--jobs", "1", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 0
    assert fail_lines(capsys.readouterr().err) == []


def count_conversions(tmp_path, monkeypatch):
    """Logs each call of to_int, the radix conversion, to a file, as "p"
    inside PowerState.is_exact, the band-start proof, and "x" outside
    it: a forked shard converts in its own process.  power.py binds
    to_int at import, so the spy replaces that binding."""
    log = tmp_path / "conversions"
    log.write_text("")
    real_exact, real_to_int = dp.PowerState.is_exact, digitpow.power.to_int
    proving = []

    def exact(self):
        proving.append(None)
        try:
            return real_exact(self)
        finally:
            proving.pop()

    def spy(x):
        with open(log, "a") as fh:
            fh.write("p" if proving else "x")
        return real_to_int(x)

    monkeypatch.setattr(dp.PowerState, "is_exact", exact)
    monkeypatch.setattr(digitpow.power, "to_int", spy)
    return log.read_text


@pytest.mark.parametrize("jobs", [1, 3])
def test_verify_converts_once_per_band(tmp_path, capsys, monkeypatch, jobs):
    # each band proves its start state with one conversion; every row
    # after it is certified from the row before, with none.  The bands
    # of --window 7 prove their start after the warm-up steps
    conversions = count_conversions(tmp_path, monkeypatch)
    for window in ("1", "7"):
        argv = ["verify", "--max-n", "3000", "--window", window, "--jobs", str(jobs),
                "--out", str(tmp_path / "rows.csv")]
        assert main(argv) == 0
        assert conversions() == "p" * jobs
        (tmp_path / "conversions").write_text("")


@pytest.mark.parametrize("n", DROPPED_CARRY_ROWS)
def test_a_dropped_carry_costs_one_more_conversion(tmp_path, capsys, monkeypatch, n):
    # the run's one conversion is the band's start proof: the rows from
    # the broken link into row n on fail without a conversion of their own
    conversions = count_conversions(tmp_path, monkeypatch)
    inject(monkeypatch, 2, n, drop_carry(2))
    argv = ["verify", "--max-n", "130", "--jobs", "1", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 1
    assert fail_lines(capsys.readouterr().err)[0] == f"FAIL n={n}: failed lemma2_ok,mod9_ok"
    assert conversions() == "p"


@pytest.mark.parametrize("n", [98, 101, 113])
def test_verify_catches_a_row_changed_after_its_step(tmp_path, capsys, monkeypatch, n):
    # row n gains 2 in place after its verdicts, as the step to n + 1
    # begins; n opens, sits inside and closes the write batch 98..113.
    # Row n was decided from a copy of its limbs, and that copy is what
    # row n + 1 links to, so the link into row n + 1 = 2**(n+1) + 4
    # fails, and no row after it is proven to hold 2**n
    conversions = count_conversions(tmp_path, monkeypatch)
    real = digitpow.power.double_in_place
    steps = []

    def corrupt(x):
        steps.append(None)
        if len(steps) == n + 1:
            assert dp.to_decimal_string(x) == str(2**n)
            x.limbs[0] += 2
        return real(x)

    monkeypatch.setattr(digitpow.power, "double_in_place", corrupt)
    argv = ["verify", "--max-n", "130", "--jobs", "1", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 1
    lines = fail_lines(capsys.readouterr().err)
    assert lines[0].startswith(f"FAIL n={n + 1}: failed lemma2_ok,")
    assert conversions() == "p"


def test_sweep_checkpoint_cadence(tmp_path):
    ckdir = tmp_path / "ck"
    dp.run_sweep(
        dp.SweepConfig(max_n=25, checkpoint_dir=ckdir, checkpoint_every=10), out=io.StringIO()
    )
    names = sorted(p.name for p in ckdir.iterdir())
    assert names == [
        "ckpt-n000000000010.txt",
        "ckpt-n000000000020.txt",
        "ckpt-n000000000025.txt",
    ]


# --- command line ---


def test_cli_bounds(capsys):
    assert main(["bounds", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k,B_k,four_power,holds"
    assert [int(line.split(",")[1]) for line in out[1:]] == [0, 3, 13, 46, 156, 521]
    assert all(line.split(",")[3] == "1" for line in out[1:])


def test_cli_bounds_k1(capsys):
    assert main(["bounds", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1,0,1,1"


def test_cli_bounds_rejects_large_k(capsys):
    t0 = time.perf_counter()
    assert main(["bounds", "40"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "k_max <= 15" in capsys.readouterr().err


def test_cli_bounds_k2(capsys):
    assert main(["bounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [int(line.split(",")[1]) for line in lines[1:]] == [0, 3]


def test_resume_adopts_checkpoint_multiplier(tmp_path):
    state = dp.PowerState.start(3)
    for _ in range(10):
        state.step()
    ckpt = dp.save_checkpoint(state, tmp_path / "ck.txt")
    summary, records = dp.run_sweep(
        dp.SweepConfig(max_n=15, start_checkpoint=ckpt), out=io.StringIO(), collect=True
    )
    assert summary.multiplier == 3
    assert records[-1].s == oracle_digit_sum(15, 3)
    with pytest.raises(ValueError):
        dp.run_sweep(
            dp.SweepConfig(max_n=15, multiplier=2, start_checkpoint=ckpt), out=io.StringIO()
        )


def test_cli_verify(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["verify", "--max-n", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[10].startswith("10,7,4,")
    err = capsys.readouterr().err
    assert "verify: rows 10" in err and "ok" in err


@pytest.mark.parametrize("every", ["0", "-7"])
def test_cli_verify_rejects_checkpoint_every_below_one(tmp_path, capsys, every):
    argv = ["verify", "--max-n", "10", "--checkpoint-dir", str(tmp_path / "ck"),
            "--checkpoint-every", every, "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"digitpow verify: error: checkpoint_every must be >= 1, got {every}\n"
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_cli_window_zero_is_refused_before_any_output(tmp_path, capsys, monkeypatch, jobs):
    # refused with the other settings: before the header and before a fork
    monkeypatch.setattr(digitpow.sweep, "Forked", None)  # a fork would call None
    out = tmp_path / "rows.csv"
    argv = ["verify", "--max-n", "300", "--window", "0", "--jobs", jobs, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "digitpow verify: error: window must be >= 1, got 0\n"
    assert out.read_text() == ""


@pytest.mark.parametrize("seconds", ["nan", "-1"])
def test_cli_verify_rejects_bad_checkpoint_seconds(tmp_path, capsys, monkeypatch, seconds):
    # NaN would turn time checkpoints off, and -1 would save every row;
    # both are refused with the other settings, before any output or fork
    monkeypatch.setattr(digitpow.sweep, "Forked", None)  # a fork would call None
    out = tmp_path / "rows.csv"
    argv = ["verify", "--max-n", "50", "--checkpoint-dir", str(tmp_path / "ck"),
            "--checkpoint-seconds", seconds, "--jobs", "2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"digitpow verify: error: checkpoint_seconds must be >= 0, got {float(seconds)}\n"
    assert out.read_text() == ""
    assert not (tmp_path / "ck").exists()


def test_cli_verify_rejects_power_of_ten(capsys):
    assert main(["verify", "--max-n", "5", "--multiplier", "10"]) == 2
    assert "power of ten" in capsys.readouterr().err


def test_cli_stats_step_back_failure(capsys, monkeypatch):
    # warming the window steps back from 9 at n=3, which 2 does not divide
    load_start(monkeypatch, 3, 9)
    code = main([
        "stats", "--start-checkpoint", "ck.txt", "--range", "4:5", "--window", "100",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "digitpow stats: error: value at n=3 is not divisible by 2; state is corrupt"
    ]


def test_cli_summary_names_the_emitted_rows(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main(["stats", "--range", "50:60", "--jobs", "1", "--out", out]) == 0
    assert "stats: rows 11 (n=50..60, multiplier=2) ok" in capsys.readouterr().err
    # resumed above the range's start, it emits from the checkpoint on
    ckpt = dp.save_checkpoint(
        dp.PowerState(54, dp.from_decimal_string(str(2**54)), 2), tmp_path / "ck.txt"
    )
    assert main(["stats", "--range", "50:60", "--start-checkpoint", str(ckpt),
                 "--jobs", "1", "--out", out]) == 0
    assert "stats: rows 6 (n=55..60, multiplier=2) ok" in capsys.readouterr().err


def test_cli_summary_names_the_backend(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main(["verify", "--max-n", "20", "--jobs", "1", "--out", out]) == 0
    line = [l for l in capsys.readouterr().err.splitlines() if l.startswith("verify: rows")]
    assert len(line) == 1
    assert line[0].endswith(f" 1 job), numpy {np.__version__}, int32 limbs")


@pytest.mark.parametrize("jobs", [1, 3])
def test_cli_stats_multiplier_99(tmp_path, capsys, jobs):
    # 99**n: mul_small's products reach 99 * limb and each band's walk
    # multiplies by 99**4 = 96059601, both formed in int64
    out = tmp_path / "stats.csv"
    assert main(["stats", "--multiplier", "99", "--range", "1:400", "--window", "7",
                 "--jobs", str(jobs), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 401))
    assert [int(r[1]) for r in rows] == [oracle_digit_sum(n, 99) for n in range(1, 401)]
    assert [int(r[2]) for r in rows] == [len(str(99**n)) for n in range(1, 401)]


def test_cli_stats(tmp_path, capsys):
    out = tmp_path / "stats.csv"
    assert main([
        "stats", "--range", "1:10", "--window", "1", "--out", str(out)
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[3] == parts[4]  # window=1: running mean equals the ratio
        assert parts[6] == ""  # split checks are off in stats mode
    n10 = lines[10].split(",")
    assert n10[0] == "10" and n10[3] == "0.7000000000"
    assert "reference constant" in capsys.readouterr().err


GOLDEN_OUTPUTS = [
    (["verify", "--max-n", "3000", "--format", "json"], None,
     "0c826dc9bf3412dbb517a6b425f09105e9f676f59c169b7726e746f4200e720d"),
    (["stats", "--range", "1:5000", "--window", "100"], None,
     "50390595a0fb1dddf6894f95b0d1785f7df8f4175001adf9e5e10452a7f52736"),
    (["stats", "--range", "2050:2600", "--window", "300", "--format", "json"], (2, 2000),
     "b6cd19f66feefe3e160359c3720bc0e6dc16d8a9cc4cd55972545f6454cad73c"),
    (["stats", "--range", "301:600", "--window", "50"], (3, 300),
     "0335df873c8795c3c6984e8dfa8b1e222973af5a8cc4b93c0d2a1efa7e1c6066"),
]


@pytest.mark.parametrize("argv,start,digest", GOLDEN_OUTPUTS)
def test_cli_golden_output(tmp_path, capsys, argv, start, digest):
    # byte-identical output across versions, fresh and resumed
    if start is not None:
        a, n = start
        ckpt = dp.save_checkpoint(
            dp.PowerState(n, dp.from_decimal_string(str(a**n)), a), tmp_path / "ck.txt"
        )
        argv = argv + ["--start-checkpoint", str(ckpt)]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_verify_rejects_huge_forged_n(tmp_path, capsys):
    # a valid digest over n = 10**12 must not make the loader build 2**n
    path = tmp_path / "ck.txt"
    path.write_text(checkpoint_text(2, 10**12, "1"))
    with pytest.raises(dp.CheckpointError):
        dp.load_checkpoint(path)
    assert main([
        "verify", "--max-n", str(10**12 + 1), "--start-checkpoint", str(path),
    ]) == 2
    assert "is not 2**1000000000000" in capsys.readouterr().err


@pytest.mark.parametrize("command,window", [("verify", "1"), ("stats", "100")])
def test_cli_window_default_in_help(capsys, command, window):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f"running_mean (default {window})" in " ".join(capsys.readouterr().out.split())


def test_cli_stats_needs_range(capsys):
    assert main(["stats"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_decompose(capsys):
    assert main(["decompose", "10"]) == 0
    out = capsys.readouterr().out
    assert "terms: (4,0) (2,1) (1,3)" in out
    assert "s=7" in out and "m=3" in out
    assert "gap_ok=1 fourpow_ok=1" in out


def test_cli_decompose_zero(capsys):
    assert main(["decompose", "0"]) == 0
    assert "terms: (1,0)" in capsys.readouterr().out


def test_cli_decompose_json(capsys):
    assert main(["decompose", "20", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["s"] == 31 and obj["m"] == 6
    assert obj["terms"] == [[6, 0], [7, 1], [5, 2], [8, 3], [4, 4], [1, 6]]
    assert obj["gap_ok"] is True and obj["fourpow_ok"] is True


def test_cli_decompose_reports_no_verdicts_off_base_two(capsys):
    # 20**3 = 8000 would fail e_1 = 0, but the position claims are about
    # 2**n: like a sweep, decompose leaves them out for other multipliers
    assert main(["decompose", "3", "--multiplier", "20"]) == 0
    out = capsys.readouterr().out
    assert "terms: (8,3)" in out
    assert "gap_ok" not in out and "fourpow_ok" not in out
    assert main(["decompose", "3", "--multiplier", "20", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["gap_ok"] is None and obj["fourpow_ok"] is None


@pytest.mark.parametrize("n,multiplier", [(3, 20), (20, 57), (300, 2)])
def test_cli_decompose_json_matches_oracle(capsys, n, multiplier):
    # the verdicts are reported for 2**n only
    v = multiplier**n
    assert main(["decompose", str(n), "--multiplier", str(multiplier),
                 "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["terms"] == [list(t) for t in decompose(v)]
    assert obj["s"] == oracle_digit_sum(n, multiplier)
    assert obj["digit_count"] == len(str(v))
    if multiplier == 2:
        assert obj["gap_ok"] is all(gap_inequality_check(v))
        assert obj["fourpow_ok"] is four_power_bound_check(v)
    else:
        assert obj["gap_ok"] is None and obj["fourpow_ok"] is None


def test_cli_decompose_walks_by_step_forward(capsys, monkeypatch):
    # by 2**29 per multiplication, then 1000 % 29 = 14 single steps
    steps = []
    real = dp.PowerState.step
    monkeypatch.setattr(dp.PowerState, "step", lambda self: steps.append(self.n) or real(self))
    assert main(["decompose", "1000", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["terms"] == [list(t) for t in decompose(2**1000)]
    assert len(steps) == 14


def test_cli_oeis_clean(tmp_path, capsys):
    values = {n: oracle_digit_sum(n) for n in range(51)}
    path = tmp_path / "b.txt"
    path.write_text(bfile_text(values))
    assert main(["oeis", str(path)]) == 0
    assert "0 mismatches" in capsys.readouterr().err


def test_cli_oeis_mismatch(tmp_path, capsys):
    values = {n: oracle_digit_sum(n) for n in range(51)}
    values[17] += 1
    path = tmp_path / "b.txt"
    path.write_text(bfile_text(values))
    assert main(["oeis", str(path)]) == 1
    err = capsys.readouterr().err
    assert "MISMATCH n=17" in err


def test_cli_oeis_empty_overlap(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("200 5\n201 6\n")
    assert main(["oeis", str(path), "--max-n", "50"]) == 2
    assert "overlap" in capsys.readouterr().err


def test_cli_oeis_malformed(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("0 one\n")
    assert main(["oeis", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_oeis_missing_file(capsys):
    assert main(["oeis", "/nonexistent/b.txt"]) == 2


def test_cli_verify_json(tmp_path):
    out = tmp_path / "rows.json"
    assert main(["verify", "--max-n", "5", "--format", "json", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["n"] for r in rows] == [1, 2, 3, 4, 5]
