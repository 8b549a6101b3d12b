"""A sweep sharded across processes reports what one process reports:
failure counts and log lines (test_bytes.py pins its rows and
checkpoints); its children never outlive it."""

import io
import os
from pathlib import Path

import pytest

import digitpow as dp
import digitpow.sweep
from digitpow.cli import main
from digitpow.shards import MAX_JOBS, ROW_BASE, Forked, default_jobs, plan_shards
from test_faults import assert_no_children, inject, load_start

JOBS = (1, 2, 3)


def run(cfg_args: dict, jobs: int, ckdir: Path | None = None):
    buf, logs = io.StringIO(), []
    summary, _ = dp.run_sweep(
        dp.SweepConfig(jobs=jobs, checkpoint_dir=ckdir, **cfg_args),
        out=buf, log=logs.append,
    )
    return buf.getvalue(), summary, logs


def test_sharded_tampered_start_reports_as_one_process(monkeypatch):
    # 10 * 2**10 at n = 10: no band's start state is 2**n, and every
    # later row has one digit too many and a zero low digit, so it fails
    # four checks, its split bound among them; the 20 failure lines end
    # at n = 30, past the first shard
    load_start(monkeypatch, 10, 10 * 2**10)
    reports = []
    for jobs in JOBS:
        text, summary, logs = run({"max_n": 36, "start_checkpoint": "unread"}, jobs)
        assert summary.jobs == jobs
        reports.append((text, list(summary.check_failures.items()), logs))
    assert len(reports[0][2]) == dp.sweep.MAX_LOGGED_FAILURES
    assert reports[0][2][-1].startswith("FAIL n=30:")
    assert all(plan_shards(11, 36, jobs)[0][1] < 30 for jobs in JOBS[1:])
    assert reports[0][1] == [
        ("lemma2_ok", 26), ("fourpow_ok", 26), ("ekbound_ok", 26), ("digitcount_ok", 26)
    ]
    assert reports[1] == reports[0] and reports[2] == reports[0]


def fail_at(monkeypatch, bad_n: int) -> None:
    # the step to 2**bad_n raises
    def fault(digits):
        raise dp.CheckpointError(f"injected at n={bad_n}")

    inject(monkeypatch, 2, bad_n, fault)


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


def test_sweep_refuses_jobs_past_max_before_any_fork(monkeypatch):
    def no_fork(work):
        raise AssertionError("forked a shard")

    monkeypatch.setattr(digitpow.sweep, "Forked", no_fork)
    with pytest.raises(ValueError, match=rf"jobs must be in 1\.\.64, got {MAX_JOBS + 1}"):
        dp.run_sweep(dp.SweepConfig(max_n=100_000, jobs=MAX_JOBS + 1), out=io.StringIO())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)), raising=False)
    assert default_jobs() == MAX_JOBS


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
