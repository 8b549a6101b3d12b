"""digitpow sweep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Run from the root of a source checkout.  A workload is one fixed band of
rows of ``digitpow.sweep.run_sweep``; a run repeats it as fresh
processes (trial.py), one at a time, until the next trial would pass
--seconds.  The inputs (start checkpoint, SweepConfig.seed, spot rows of
the gate) derive from --seed.  Every trial's output must match the
first byte for byte, and the first passes gate.check.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced trials and reports the per-layer metrics of BENCHMARK.json.
Human-readable lines come first; the last line of stdout is the result
JSON.  Exit status 1 means an output check failed, 2 a usage or set-up
error.  See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
from layers import aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRIAL_TIMEOUT_S = 120
MIN_TRIALS = 3
CHECKPOINT_EVERY = 40


@dataclass(frozen=True)
class Workload:
    name: str
    start_n: int  # 0: fresh run; else resume from a checkpoint at this n
    rows: int
    fmt: str
    split_checks: str
    window: int = 1
    checkpoints: bool = False
    stats: bool = False  # stats mode: rows limited to the band by emit_range

    @property
    def band(self) -> gate.Band:
        return gate.Band(
            self.start_n + 1, self.start_n + self.rows, self.fmt, self.window,
            splits=self.split_checks != "off", full_k=self.split_checks == "full",
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-deep", 98_000, 120, "csv", "policy", checkpoints=True),
        Workload("verify-fullk", 0, 3_000, "json", "full"),
        Workload("stats-band", 80_000, 3_000, "csv", "off", window=100, stats=True),
    )
}

END_TO_END = {
    "rows_per_s": "1/s",
    "row_ms_p50": "ms",
    "row_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# per-layer metric -> (unit, span or count name, field of the span)
PER_LAYER = {
    "checks.scan_splits.self_s": ("s", "checks.scan_splits", "self_s"),
    "checks.split.parse.self_s": ("s", "checks.split.parse", "self_s"),
    "checks.split.pow10.self_s": ("s", "checks.split.pow10", "self_s"),
    "checks.split.pow10.calls": ("count", "checks.split.pow10", "calls"),
    "checks.scan_splits.positions": ("count", "checks.scan_splits.positions", None),
    "bignum.digit_scan.self_s": ("s", "bignum.digit_scan", "self_s"),
    "bignum.digits_scanned": ("count", "bignum.digits_scanned", None),
    "checks.check_positions.self_s": ("s", "checks.check_positions", "self_s"),
    "checks.check_positions.nonzero_digits": (
        "count", "checks.check_positions.nonzero_digits", None),
    "power.step.self_s": ("s", "power.step", "self_s"),
    "power.step.calls": ("count", "power.step", "calls"),
    "power.load_checkpoint.s": ("s", "power.load_checkpoint", "total_s"),
    "power.step_back.self_s": ("s", "power.step_back", "self_s"),
    "power.step_back.calls": ("count", "power.step_back", "calls"),
    "power.save_checkpoint.s": ("s", "power.save_checkpoint", "total_s"),
    "power.save_checkpoint.calls": ("count", "power.save_checkpoint", "calls"),
    "power.checkpoint_bytes": ("bytes", "power.checkpoint_bytes", None),
    "intlog.table_ensure.self_s": ("s", "intlog.table_ensure", "self_s"),
    "intlog.caps.self_s": ("s", "intlog.caps", "self_s"),
    "intlog.predicates.self_s": ("s", "intlog.predicates", "self_s"),
    "ratios.render_fraction.self_s": ("s", "ratios.render_fraction", "self_s"),
    "ratios.render_fraction.calls": ("count", "ratios.render_fraction", "calls"),
    "sweep.sample_split_positions.self_s": ("s", "sweep.sample_split_positions", "self_s"),
    "sweep.write.self_s": ("s", "sweep.write", "self_s"),
    "sweep.self_s": ("s", "sweep", "self_s"),
}


@dataclass
class Trial:
    traced: bool
    launch: float
    setup_s: float = 0.0
    gaps_ms: list[float] = field(default_factory=list)
    rss_mib: float = 0.0
    digest: str = ""
    layers: dict | None = None
    problem: str | None = None


def environment() -> dict:
    import numpy
    from digitpow import _intops

    cpu = llc = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
        if caches:
            top = max(caches, key=lambda p: int((p / "level").read_text()))
            llc = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    except OSError:
        pass
    return {
        "using_gmpy2": bool(_intops.USING_GMPY2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc": llc,
    }


def write_start_checkpoint(w: Workload, workdir: Path) -> Path | None:
    """The resume point, built from str(2**n) and the package's writer."""
    if w.start_n == 0:
        return None
    from digitpow.bignum import from_decimal_string
    from digitpow.power import PowerState, save_checkpoint

    path = workdir / f"start-n{w.start_n}.txt"
    value = from_decimal_string(gate.oracle_digits(w.start_n))
    save_checkpoint(PowerState(w.start_n, value, 2), path)
    return path


def sweep_config(w: Workload, seed: int, start: Path | None, ckpt_dir: Path) -> dict:
    cfg = {
        "max_n": w.start_n + w.rows,
        "window": w.window,
        "seed": seed,
        "split_checks": w.split_checks,
        "start_checkpoint": str(start) if start else None,
    }
    if w.stats:
        cfg["emit_range"] = (w.start_n + 1, w.start_n + w.rows)
    if w.checkpoints:
        cfg.update(checkpoint_dir=str(ckpt_dir), checkpoint_every=CHECKPOINT_EVERY,
                   checkpoint_seconds=1e9)
    return cfg


def check_checkpoints(w: Workload, ckpt_dir: Path) -> tuple[str, str | None]:
    """Digest of the checkpoint files and a problem, if any.

    The cadence is every CHECKPOINT_EVERY rows plus the end; the last one
    must hold exactly 2**max_n.
    """
    from digitpow.bignum import to_decimal_string
    from digitpow.power import load_checkpoint

    files = sorted(ckpt_dir.iterdir()) if ckpt_dir.is_dir() else []
    h = hashlib.sha256()
    for p in files:
        h.update(p.read_bytes())
    try:
        states = [load_checkpoint(p) for p in files]
    except (OSError, ValueError, RuntimeError) as exc:
        return h.hexdigest(), f"unreadable checkpoint: {exc}"
    ns = [st.n for st in states]
    want = list(range(w.start_n + CHECKPOINT_EVERY, w.start_n + w.rows + 1, CHECKPOINT_EVERY))
    if want[-1] != w.start_n + w.rows:
        want.append(w.start_n + w.rows)
    if ns != want:
        return h.hexdigest(), f"checkpoints at n={ns}, expected {want}"
    last = states[-1]
    if to_decimal_string(last.value) != gate.oracle_digits(last.n):
        return h.hexdigest(), f"checkpoint n={last.n} does not hold 2**n"
    return h.hexdigest(), None


def run_trial(w: Workload, seed: int, traced: bool, start: Path | None, workdir: Path) -> tuple[Trial, str]:
    tdir = Path(tempfile.mkdtemp(dir=workdir, prefix="trial-"))
    ckpt_dir = tdir / "ckpt"
    spec = {
        "src": str(SRC),
        "trace": traced,
        "format": w.fmt,
        "result_dir": str(tdir),
        "config": sweep_config(w, seed, start, ckpt_dir),
    }
    (tdir / "spec.json").write_text(json.dumps(spec))
    trial = Trial(traced, time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "trial.py"), str(tdir / "spec.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=TRIAL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        trial.problem = f"trial still running after {TRIAL_TIMEOUT_S}s; killed"
        return trial, ""
    if proc.returncode != 0:
        trial.problem = f"trial exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return trial, ""
    result = json.loads((tdir / "result.json").read_text())
    text = (tdir / "output.txt").read_text(encoding="utf-8")
    stamps = result["stamps"][1:] if w.fmt == "csv" else result["stamps"]
    if len(stamps) < 2:
        trial.problem = f"{len(stamps)} rows written"
        return trial, text
    trial.setup_s = stamps[0] - trial.launch
    trial.gaps_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    trial.rss_mib = result["peak_rss_kib"] / 1024
    trial.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if not result["summary_ok"]:
        trial.problem = "run_sweep reported failed checks"
    if w.checkpoints:
        ckpt_digest, problem = check_checkpoints(w, ckpt_dir)
        trial.digest += ":" + ckpt_digest
        trial.problem = trial.problem or problem
    if traced:
        trial.layers = aggregate(tdir / "spans.bin")
    return trial, text


def best_gaps(trials: list[Trial]) -> list[float]:
    """Each row's fastest gap over the trials.

    Every trial sweeps the same band, so row i does the same work in
    each; the fastest of its repeats drops the slowdowns that other
    tenants of a shared machine impose for seconds at a time.
    """
    return [min(repeats) for repeats in zip(*(t.gaps_ms for t in trials))]


def end_to_end(trials: list[Trial]) -> dict:
    best = best_gaps(trials)
    n = len(trials)
    return {
        "rows_per_s": (len(best) / (sum(best) / 1e3), n),
        "row_ms_p50": (statistics.median(best), len(best)),
        "row_ms_p90": (statistics.quantiles(best, n=10)[8], len(best)),
        "setup_s": (statistics.median(t.setup_s for t in trials), n),
        "peak_rss_mib": (statistics.median(t.rss_mib for t in trials), n),
    }


def layer_value(layers: dict, source: str, fld: str | None) -> float:
    if fld is None:
        return layers["counts"].get(source, 0)
    return layers["layers"].get(source, {}).get(fld, 0)


def per_layer(trials: list[Trial]) -> dict:
    traced = [t for t in trials if t.traced]
    plain = [t for t in trials if not t.traced]
    out = {}
    for name, (_, source, fld) in PER_LAYER.items():
        values = [layer_value(t.layers, source, fld) for t in traced]
        out[name] = (statistics.median(values), len(values))
    ratio = sum(best_gaps(traced)) / sum(best_gaps(plain))
    out["trace.overhead_ratio"] = (ratio, len(traced))
    return out


def layer_table(trials: list[Trial]) -> dict:
    """Median calls, total and self time per span, and its share of all self time."""
    traced = [t.layers for t in trials if t.traced]
    names = sorted({n for lay in traced for n in lay["layers"]})
    table = {}
    for name in names:
        rows = [lay["layers"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for lay in traced]
        table[name] = {k: statistics.median(r[k] for r in rows)
                       for k in ("calls", "total_s", "self_s")}
    # self times are net of the wrapper cost, so their sum stands in for
    # the untraced time of the run
    total = sum(e["self_s"] for e in table.values()) or 1.0
    for entry in table.values():
        entry["self_share"] = entry["self_s"] / total
    return table


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix=w.name + "-"))
    try:
        start = write_start_checkpoint(w, workdir)
        deadline = time.monotonic() + seconds
        trials: list[Trial] = []
        texts: list[str] = []
        # trace runs alternate untraced and traced trials, for the overhead
        kinds = (False, True) if trace else (False,)
        while True:
            round_start = time.monotonic()
            for traced in kinds:
                trial, text = run_trial(w, seed, traced, start, workdir)
                trials.append(trial)
                texts.append(text)
            now = time.monotonic()
            if trial.problem or (
                len(trials) >= MIN_TRIALS and now + (now - round_start) > deadline
            ):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return judge(w, seed, trace, trials, texts)


def judge(w: Workload, seed: int, trace: bool, trials: list[Trial], texts: list[str]) -> dict:
    band = w.band
    size = band.hi - band.lo + 1
    problems: list[str] = []
    failed = 0
    first_failed: set[int] | None = None
    for i, (trial, text) in enumerate(zip(trials, texts)):
        if trial.problem:
            problems.append(f"trial {i}: {trial.problem}")
            failed += size
            continue
        if first_failed is None:
            _, first_failed, messages = gate.check(text, band, seed)
            problems += [f"trial {i}: {m}" for m in messages]
            if not first_failed:
                problems += gate.self_test(text, band, seed)
            reference = trial.digest
            failed += len(first_failed)
        elif trial.digest != reference:
            problems.append(f"trial {i}: output differs from trial 0")
            failed += size
        else:
            failed += len(first_failed)
    ok_trials = [t for t in trials if not t.problem]
    metrics = {}
    if not trace and ok_trials:
        metrics = end_to_end(ok_trials)
    elif trace and {t.traced for t in ok_trials} == {False, True}:
        metrics = per_layer(ok_trials)
    units = {n: u for n, (u, _, _) in PER_LAYER.items()} | {"trace.overhead_ratio": "ratio"}
    units |= END_TO_END
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "correct": not problems and bool(metrics),
        "attempted": size * len(trials),
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()},
        "trials": [
            {"traced": t.traced, "setup_s": t.setup_s, "row_s": sum(t.gaps_ms) / 1e3,
             "rss_mib": t.rss_mib}
            for t in trials
        ],
        "layers": layer_table(ok_trials) if trace and ok_trials else None,
        "untraced_names": sorted({m for t in ok_trials if t.layers for m in t.layers["missing"]}),
    }


def report(res: dict) -> None:
    name = res["workload"]
    for p in res["problems"]:
        print(f"{name} FAIL {p}")
    for metric, m in res["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']} (samples={m['samples']})")
    ratio = res["failed"] / res["attempted"]
    print(f"{name} row_fail_ratio {ratio:.6g} ratio "
          f"(failed={res['failed']} attempted={res['attempted']})")
    for missing in res["untraced_names"]:
        print(f"{name} trace could not wrap {missing}: its layer reads 0")
    if res["layers"]:
        for span, e in sorted(res["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name} layer {span} calls={e['calls']:.0f} self_s={e['self_s']:.4f} "
                  f"share={e['self_share']:.1%}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full results as JSON here")
    args = ap.parse_args(argv)
    if not (SRC / "digitpow" / "__init__.py").is_file():
        print(f"run.py: no digitpow source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]
    for res in results:
        report(res)
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "results": results}, indent=1))
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
                   for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
