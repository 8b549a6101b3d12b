"""Summarize several run.py --out files: median, quartiles and spread.

    python3 perfbench/summarize.py [--write TRAJECTORY.json] [--label L] OUT.json ...

For each workload and metric, prints the median, first and third
quartile over the runs given, and the spread (q3 - q1) / median next to
the metric's bound from BENCHMARK.json, the rule a steady benchmark
must meet.  --write stores the same figures with the environment and
the layer table of the last trace run per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("files", nargs="+")
    ap.add_argument("--write")
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}

    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    seeds: dict[str, list[int]] = defaultdict(list)
    traces: dict[str, dict] = {}
    env = None
    for name in args.files:
        doc = json.loads(Path(name).read_text())
        env = doc["env"]
        for res in doc["results"]:
            w = res["workload"]
            if res["trace"]:
                traces[w] = {"seed": res["seed"], "layers": res["layers"],
                             "metrics": {k: m["value"] for k, m in res["metrics"].items()}}
                continue
            seeds[w].append(res["seed"])
            for metric, m in res["metrics"].items():
                values[(w, metric)].append(m["value"])
                units[metric] = m["unit"]

    summary: dict[str, dict] = defaultdict(dict)
    steady = True
    for (w, metric), vals in sorted(values.items()):
        if len(vals) < 2:
            q1 = med = q3 = vals[0]
        else:
            q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(metric)
        summary[w][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "runs": len(vals), "unit": units[metric]}
        flag = ""
        if bound is not None and metric != "setup_s" and spread > bound:
            flag, steady = "  OVER BOUND", False
        elif bound is not None and spread > bound / 3:
            flag = "  over bound/3"
        print(f"{w:13s} {metric:13s} median {med:10.5g} {units[metric]:4s} "
              f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.2%} "
              f"bound {bound if bound is not None else '-'} runs {len(vals)}{flag}")

    if args.write:
        doc = {
            "label": args.label,
            "env": env,
            "seeds": seeds,
            "end_to_end": summary,
            "trace": traces,
        }
        Path(args.write).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
