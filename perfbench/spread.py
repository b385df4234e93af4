#!/usr/bin/env python3
"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/spread.py --workload random --seeds 1-10
    python3 perfbench/spread.py --workload random --repeat 10

``--seeds`` gives each run its own seed; ``--repeat`` runs the default
seed that many times.  Each run measures for the
``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` says
otherwise.  The spread of a metric is the distance between the first
and third quartiles of its values, as ``statistics.quantiles(values,
n=4)`` gives them, as a share of their median.  The spreads of the
unscaled timings follow, then the answer counts of the diagnostics line
with whether they repeated exactly.  With ``--out`` the values, spreads
and diagnostics of every run, calibration chunk times included, are
written to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    diag = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("diagnostics "))
    return json.loads(lines[-1]), diag


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=None)
    ap.add_argument("--repeat", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    args.seconds = args.seconds or bench["run_seconds"]
    seeds = args.seeds or [None] * args.repeat
    runs = []
    for seed in seeds:
        result, diag = one_run(args.workload, seed, args.seconds)
        runs.append({"seed": seed, "result": result, "diagnostics": diag})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {'default' if seed is None else seed}: correct={result['correct']} failed={result['failed']} "
              f"calib={diag['calibration_chunk_s']:.5f} {values}", flush=True)

    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        s = spread(values)
        bound = bounds[name]
        summary[name] = {"median": statistics.median(values), "spread": s,
                         "bound": bound, "min": min(values), "max": max(values)}
        flag = "" if s <= bound / 3 else "  <-- above a third of its bound"
        print(f"  {name:36s} median {statistics.median(values):12.6g}  "
              f"spread {s:7.4f}  bound {bound}{flag}")
    for name in runs[0]["diagnostics"]["raw"]:
        values = [r["diagnostics"]["raw"][name] for r in runs]
        summary["raw." + name] = {"median": statistics.median(values),
                                  "spread": spread(values)}
        print(f"  {'unscaled ' + name:36s} median {statistics.median(values):12.6g}  "
              f"spread {spread(values):7.4f}")
    for key in ("epoch_embeds", "epoch_classify_capped",
                "epoch_certificate_nodes", "wrong_answers"):
        values = [json.dumps(r["diagnostics"].get(key)) for r in runs]
        same = "repeats exactly" if len(set(values)) == 1 else "varies"
        print(f"  {key:36s} {same}: {sorted(set(values))}")
    calib = [r["diagnostics"]["calibration_chunk_s"] for r in runs]
    print(f"  calibration chunk, median per run: {min(calib):.5f}-{max(calib):.5f} s")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds,
            "seeds": seeds, "summary": summary,
            "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
