"""A sweep sharded across processes writes what one process writes:
rows, checkpoints, failure counts and log lines."""

import hashlib
import io
import os
import re
import signal
from pathlib import Path

import pytest

import digitpow as dp
import digitpow.sweep
from digitpow.cli import main
from digitpow.shards import ROW_BASE, Forked, plan_shards

JOBS = (1, 2, 3)


def run(cfg_args: dict, jobs: int, fmt: str = "csv", ckdir: Path | None = None):
    buf, logs = io.StringIO(), []
    summary, records = dp.run_sweep(
        dp.SweepConfig(jobs=jobs, checkpoint_dir=ckdir, **cfg_args),
        out=buf, fmt=fmt, collect=True, log=logs.append,
    )
    return buf.getvalue(), summary, records, logs


def checkpoint_files(ckdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in ckdir.iterdir()}


def assert_no_children() -> None:
    # every forked shard has been reaped: waitpid finds no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_jobs_agree(tmp_path, cfg_args: dict, fmt: str) -> dict[str, str]:
    """Runs the sweep with each of JOBS; returns the checkpoint files."""
    outputs = []
    for jobs in JOBS:
        ckdir = tmp_path / f"ck{jobs}"
        text, summary, records, logs = run(cfg_args, jobs, fmt, ckdir)
        assert summary.ok and not logs
        assert summary.jobs == jobs
        outputs.append((text, [vars(r) for r in records], checkpoint_files(ckdir)))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    return outputs[0][2]


def resume_at(tmp_path, n: int, multiplier: int) -> Path:
    value = dp.from_decimal_string(str(multiplier**n))
    return dp.save_checkpoint(dp.PowerState(n, value, multiplier), tmp_path / "start.txt")


@pytest.mark.parametrize("window", [1, 5, 100])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
def test_sharded_bytes_equal_one_process(tmp_path, window, fmt, resumed):
    cfg_args = {"max_n": 700, "window": window, "emit_range": (230, 640),
                "checkpoint_every": 70}
    if resumed:
        cfg_args["start_checkpoint"] = resume_at(tmp_path, 300, 2)
    names = sorted(assert_jobs_agree(tmp_path, cfg_args, fmt))
    start = 300 if resumed else 0
    grid = [n for n in range(max(230, start + 1), 641) if (n - start) % 70 == 0]
    assert names == [f"ckpt-n{n:012d}.txt" for n in grid + [700]]


@pytest.mark.parametrize("multiplier", [2, 3])
@pytest.mark.parametrize("window", [1, 5, 100])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
def test_stats_sharded_bytes_equal_one_process(tmp_path, multiplier, window, fmt, resumed):
    # stats sweeps check no splits, and neither do sweeps of 3**n
    cfg_args = {"max_n": 900, "multiplier": multiplier, "window": window,
                "split_checks": "off", "emit_range": (330, 860), "checkpoint_every": 200}
    if resumed:
        cfg_args["start_checkpoint"] = resume_at(tmp_path, 400, multiplier)
    names = assert_jobs_agree(tmp_path, cfg_args, fmt)
    grid = (600, 800) if resumed else (400, 600, 800)
    assert sorted(names) == [f"ckpt-n{n:012d}.txt" for n in (*grid, 900)]


def test_sharded_tampered_start_reports_as_one_process(monkeypatch):
    # 10 * 2**10 at n = 10: no band's start state is 2**n, and every
    # later row has one digit too many and a zero low digit, so it fails
    # four checks, its split bound among them; the 20 failure lines end
    # at n = 30, past the first shard
    reports = []
    for jobs in JOBS:
        monkeypatch.setattr(
            digitpow.sweep, "load_checkpoint",
            lambda path: dp.PowerState(10, dp.from_small(10 * 2**10), 2),
        )
        text, summary, records, logs = run({"max_n": 36, "start_checkpoint": "unread"}, jobs)
        assert summary.jobs == jobs
        reports.append((text, list(summary.check_failures.items()),
                        summary.failure_lines, logs))
    assert len(reports[0][2]) == dp.sweep.MAX_LOGGED_FAILURES
    assert reports[0][2][-1].startswith("n=30:")
    assert all(plan_shards(11, 36, jobs)[0][1] < 30 for jobs in JOBS[1:])
    assert reports[0][1] == [
        ("lemma2_ok", 26), ("fourpow_ok", 26), ("ekbound_ok", 26), ("digitcount_ok", 26)
    ]
    assert reports[1] == reports[0] and reports[2] == reports[0]


def fail_at(monkeypatch, bad_n: int) -> None:
    # the doubling certificate of the row that holds 2**bad_n raises
    real = digitpow.sweep.is_doubled

    def certify(old, new):
        if dp.to_decimal_string(dp.DecimalNat(new)) == str(2**bad_n):
            raise dp.CheckpointError(f"injected at n={bad_n}")
        return real(old, new)

    monkeypatch.setattr(digitpow.sweep, "is_doubled", certify)


@pytest.mark.parametrize("jobs", [2, 3])
def test_child_error_is_raised_in_parent(tmp_path, monkeypatch, jobs):
    # n = 390 lies in the last shard for both job counts
    fail_at(monkeypatch, 390)
    assert plan_shards(1, 400, jobs)[-1][0] < 390
    with pytest.raises(dp.CheckpointError, match="injected at n=390"):
        run({"max_n": 400, "checkpoint_every": 50}, jobs, ckdir=tmp_path)
    assert_no_children()
    # nothing but checkpoint files is left behind
    assert all(p.name.startswith("ckpt-n") for p in tmp_path.iterdir())


def test_parent_error_stops_running_children(monkeypatch):
    # the parent fails on its first row while its children still work
    fail_at(monkeypatch, 1)
    with pytest.raises(dp.CheckpointError, match="injected at n=1"):
        run({"max_n": 3000}, 3)
    assert_no_children()


def test_dead_shard_exits_2_in_one_line(monkeypatch, capsys):
    # a child killed mid-band sends no result: the run ends as an OS
    # error does, with exit 2 and one line that names the child
    real = digitpow.sweep.is_doubled
    parent = os.getpid()

    def certify(old, new):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(old, new)

    monkeypatch.setattr(digitpow.sweep, "is_doubled", certify)
    assert main(["verify", "--max-n", "400", "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.fullmatch(
        r"digitpow verify: error: sweep shard process \d+ was killed by "
        r"signal 9 with no result\n", err
    )
    assert_no_children()


class _Unreadable:
    def __reduce__(self):
        return _refuse, ()


def _refuse():
    raise ValueError("not to be read back")


def test_unreadable_shard_result_is_a_child_process_error():
    with pytest.raises(ChildProcessError, match=r"exited with code 0 with an unreadable result"):
        Forked(_Unreadable).result()
    assert_no_children()


@pytest.mark.parametrize("jobs", [2, 3])
def test_checkpoints_saved_by_parent_after_their_rows(tmp_path, monkeypatch, jobs):
    # a child band hands back the states due a checkpoint; the parent
    # saves each, in n order, once row n is in `out`
    every, max_n = 50, 400
    assert all(-(-lo // every) * every <= hi for lo, hi in plan_shards(1, max_n, jobs)[1:])
    buf = io.StringIO()
    saves = tmp_path / "saves.txt"
    real = digitpow.sweep.save_checkpoint

    def spy(state, path):
        # appended to a file, so that a save made in a child shows too
        row_out = f"\n{state.n}," in buf.getvalue()
        with open(saves, "a") as fh:
            fh.write(f"{os.getpid()} {state.n} {int(row_out)}\n")
        return real(state, path)

    monkeypatch.setattr(digitpow.sweep, "save_checkpoint", spy)
    ckdir = tmp_path / "ck"
    summary, _ = dp.run_sweep(
        dp.SweepConfig(max_n=max_n, checkpoint_dir=ckdir, checkpoint_every=every,
                       checkpoint_seconds=1e9, jobs=jobs),
        out=buf,
    )
    assert summary.ok and summary.jobs == jobs
    grid = range(every, max_n + 1, every)
    assert saves.read_text().split("\n")[:-1] == [f"{os.getpid()} {n} 1" for n in grid]
    assert sorted(p.name for p in ckdir.iterdir()) == [f"ckpt-n{n:012d}.txt" for n in grid]


@pytest.mark.parametrize("lo,hi,jobs", [
    (1, 1, 2), (1, 3, 5), (5, 8, 4), (98001, 98120, 2), (1, 100000, 2),
    (1, 100000, 3), (20001, 20002, 3), (7, 6, 2),
])
def test_plan_shards_covers_band(lo, hi, jobs):
    bands = plan_shards(lo, hi, jobs)
    if hi < lo:
        assert bands == [(lo, hi)]
        return
    assert len(bands) == min(jobs, hi - lo + 1)
    assert bands[0][0] == lo and bands[-1][1] == hi
    assert all(a <= b for a, b in bands)  # none empty
    assert all(b + 1 == c for (_, b), (c, _) in zip(bands, bands[1:]))


def assert_balanced() -> None:
    # a row costs about n + ROW_BASE, whether it checks splits or not
    for lo, hi, jobs in ((1, 100_000, 3), (80_001, 83_000, 2), (98_001, 98_120, 2)):
        cost = [sum(n + ROW_BASE for n in range(a, b + 1))
                for a, b in plan_shards(lo, hi, jobs)]
        assert max(cost) / min(cost) < (1.02 if hi - lo < 1000 else 1.001)


def test_plan_shards_balances_split_cost():
    # a band's split verdicts follow from one radix conversion, so a row
    # that checks splits grows about as n too; the later shard of
    # 1..100000 is the shorter, cut near where verify's own band times
    # balance (60700)
    (_, cut), _ = plan_shards(1, 100_000, 2)
    assert 59_500 < cut < 60_500
    assert abs(cut - 60_700) < 2_500
    assert_balanced()


def test_plan_shards_balances_stats_cost():
    # a row that checks no splits costs about n + ROW_BASE as well: the
    # same cut lies near where stats' own band times balance (59200)
    (_, cut), _ = plan_shards(1, 100_000, 2)
    assert abs(cut - 59_200) < 3_000
    assert_balanced()


def test_sweep_rejects_zero_jobs():
    with pytest.raises(ValueError, match="jobs"):
        dp.run_sweep(dp.SweepConfig(max_n=10, jobs=0), out=io.StringIO())


def test_cli_jobs_on_every_sweep(capsys):
    for command in (["verify", "--max-n", "300"], ["stats", "--range", "120:300"]):
        outputs = []
        for jobs in ("1", "3"):
            assert main([*command, "--format", "json", "--jobs", jobs]) == 0
            captured = capsys.readouterr()
            outputs.append(captured.out)
            assert f"{jobs} job" in captured.err
        assert outputs[0] == outputs[1]
    with pytest.raises(SystemExit):
        main(["decompose", "10", "--jobs", "2"])
