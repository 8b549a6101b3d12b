"""One timed sweep in a fresh process: the unit that run.py repeats.

    python3 perfbench/trial.py SPEC.json

SPEC names the source tree, the SweepConfig fields, the output format,
where to write results and whether to trace.  The process imports
digitpow from source, calls ``run_sweep`` once with an ``out`` stream
that timestamps every line it is handed, and writes the output text and
a result file (timestamps, peak RSS) next to each other.  Set-up is
measured from the parent's launch time, so it covers interpreter start,
imports, the checkpoint load and the window warm-up.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from pathlib import Path


class StampedOut(io.StringIO):
    """In-memory text sink recording a monotonic timestamp per line."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        lines = s.count("\n")
        if lines:
            self.stamps.extend([time.monotonic()] * lines)
        return super().write(s)


def peak_rss_kib() -> int:
    """This process's peak resident set since exec (VmHWM).

    ru_maxrss would do on its own, but Linux carries the parent's size at
    fork into it, so a large harness would show through.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()

    import digitpow._intops
    import digitpow.intlog
    import digitpow.power
    import digitpow.sweep

    run_sweep = digitpow.sweep.run_sweep
    out = StampedOut()
    if tracer is not None:
        tracer.install(sys.modules)
        run_sweep = tracer.wrap("sweep", run_sweep)
        out.write = tracer.wrap("sweep.write", out.write)

    cfg = digitpow.sweep.SweepConfig(**spec["config"])
    summary, _ = run_sweep(cfg, out=out, fmt=spec["format"])

    result_dir = Path(spec["result_dir"])
    (result_dir / "output.txt").write_text(out.getvalue(), encoding="utf-8")
    if tracer is not None:
        tracer.calibrate()
        tracer.dump(result_dir / "spans.bin")
    result = {
        "stamps": out.stamps,
        "summary_ok": summary.ok,
        "peak_rss_kib": peak_rss_kib(),
    }
    (result_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
