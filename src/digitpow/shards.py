"""Cutting a sweep's rows into bands and running bands in forked processes.

`plan_shards` cuts the rows at equal integrals of a row's cost, not at
equal row counts.  A row costs about n + ROW_BASE: its digit work, and
since a band's split verdicts follow from one radix conversion
(PowerState.is_exact) its split work too, grows about as n below
n = 1e5, and a fixed per-row cost is as large as that work at
n = ROW_BASE.  One model serves every sweep: timed side by side, the
two bands of a sharded n = 1..100000 sweep cut by it (at 60000) ended
within 4% of each other for verify (child/parent 0.98..1.04, four
runs) and within 11% for stats (0.93..1.11).  Fitted apart, verify's
bands balance near 60700 and stats' near 59200.

`Forked` runs one piece of work in a child made by os.fork, not by a
spawned interpreter: the child inherits the loaded and verified start
state, the shared position table and the caller's closures without
pickling them.  The package starts no threads; the only other ones are
the worker threads of numpy's BLAS, which no sweep calls.  Only the result
travels back, pickled, through a pipe: for a sweep band, its rows, its
tally and copies of the states due a checkpoint, which the parent saves.

The parent polls its children every POLL_ROWS rows of its own band
(Forked.poll), so a child killed by a signal stops the sweep at once,
not when the parent asks for its result after that band.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from typing import Callable

CAN_FORK = hasattr(os, "fork")
# fitted to the band times of sharded n = 1..100000 verify and stats
# sweeps on a shared 2-vCPU Xeon
ROW_BASE = 70_000
# rows of the parent's band between polls of its children
POLL_ROWS = 64
# the most bands a sweep is cut into: it forks one child per band but the first
MAX_JOBS = 64


def default_jobs() -> int:
    """The cores this process may run on, at most MAX_JOBS; 1 where
    os.fork is missing."""
    if not CAN_FORK:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), MAX_JOBS)
    return min(os.cpu_count() or 1, MAX_JOBS)


def _work(x: float) -> float:
    """The cost of rows 1..x, up to a constant factor."""
    return x * x / 2 + ROW_BASE * x


def _rows_for(work: float) -> float:
    """The x with _work(x) == work."""
    return math.sqrt(ROW_BASE**2 + 2 * work) - ROW_BASE


def plan_shards(lo: int, hi: int, jobs: int) -> list[tuple[int, int]]:
    """Cut rows lo..hi into min(jobs, rows) contiguous, non-empty bands
    of about equal cost, the integral of the row cost over each.

    The cuts only place work; no verdict depends on them.  With no rows
    the one band (lo, hi) is empty.
    """
    count = min(jobs, hi - lo + 1)
    if count <= 1:
        return [(lo, hi)]
    a, b = _work(lo - 1), _work(hi)
    cuts = [lo - 1]
    for i in range(1, count):
        cut = round(_rows_for(a + (b - a) * i / count))
        cuts.append(min(max(cut, cuts[-1] + 1), hi - (count - i)))
    cuts.append(hi)
    return [(c + 1, d) for c, d in zip(cuts, cuts[1:])]


def _ended(pid: int, code: int, what: str) -> ChildProcessError:
    """Shard `pid` ended with exit code `code` (-signal if killed)."""
    how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
    return ChildProcessError(f"sweep shard process {pid} {how} with {what}")


class Forked:
    """`work()` running in a forked child.

    `result()` waits for it, reaps the child and returns what `work`
    returned or raises what it raised, or ChildProcessError, naming how
    the child ended, when it sent back no readable result.  `poll()`
    raises that error early, without waiting, for a child that a signal
    killed.  `stop()` kills and reaps a child whose result was not
    taken, so none outlives its caller.
    """

    def __init__(self, work: Callable[[], object]):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(r)
                try:
                    payload = pickle.dumps((True, work()))
                except BaseException as exc:  # handed to the parent, which raises it
                    try:
                        payload = pickle.dumps((False, exc))
                    except Exception:
                        payload = pickle.dumps((False, RuntimeError(repr(exc))))
                with os.fdopen(w, "wb") as fh:
                    fh.write(payload)
            finally:
                os._exit(0)  # no atexit handlers, no flush of inherited buffers
        os.close(w)
        self.pid: int | None = pid
        self._pipe = os.fdopen(r, "rb")

    def result(self) -> object:
        pid = self.pid
        payload = self._pipe.read()
        self._pipe.close()
        _, status = os.waitpid(pid, 0)
        self.pid = None
        try:
            ok, value = pickle.loads(payload)  # written by the child forked above
        except Exception as exc:
            what = "an unreadable result" if payload else "no result"
            raise _ended(pid, os.waitstatus_to_exitcode(status), what) from exc
        if not ok:
            raise value
        return value

    def poll(self) -> None:
        """Raise ChildProcessError, as result() would, if a signal killed
        the child.  Reaps nothing: a child that exited (always with 0)
        may still hold an unread result."""
        info = os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        if info is not None and info.si_code != os.CLD_EXITED:
            raise _ended(self.pid, -info.si_status, "no result")

    def stop(self) -> None:
        if self.pid is None:
            return
        self._pipe.close()
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(self.pid, 0)
        self.pid = None
