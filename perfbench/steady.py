"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/steady.py --seeds 1-10 [--workloads census,iso]
        [--seconds S] [--out FILE] [--record LABEL]

Runs are interleaved: seed 1 of every workload, then seed 2 of every
workload, and so on, one process at a time, so that slow drift of the
machine spreads over all workloads alike.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (Q3 - Q1) / median, next to the metric's bound in
BENCHMARK.json.  ``--out`` writes the raw runs and the summary as JSON;
``--record LABEL`` appends the summary to perfbench/trajectory.json as the
point for the commit named by LABEL.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            result = run_once(w, seed, args.seconds)
            runs[w].append({"seed": seed, **result})
            print(f"{w} seed={seed} correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)

    summary = {}
    for w in workloads:
        summary[w] = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            s = summarise(values)
            summary[w][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- wide"
            print(f"{w:<8} {name:<13} median={s['median']:<10.5g} "
                  f"q1={s['q1']:<10.5g} q3={s['q3']:<10.5g} "
                  f"spread={s['spread']:.4f} bound={bounds[name]}{flag}")
    point = {
        "label": args.record,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "failed": {w: sum(r["failed"] for r in runs[w]) for w in workloads},
        "summary": summary,
    }
    if args.out:
        args.out.write_text(json.dumps({**point, "runs": runs}, indent=1,
                                       sort_keys=True) + "\n")
    if args.record:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append(point)
        path.write_text(json.dumps(points, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
