#!/usr/bin/env python3
"""Run one workload of the benchmark once per seed and report each metric's spread.

    python3 perfbench/stability.py --workload NAME --seeds 1,2,3,4,5 [--out FILE]

Each run is a fresh ``perfbench/run.py --trace 0`` process with the
``run_seconds`` of ``BENCHMARK.json``. For every metric the table gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median. An end-to-end metric is steady when its spread is below
a third of its bound. ``--out`` writes the runs, the table and the UTC start
and end times of the set as JSON.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")

    runs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        detail = json.loads((BENCH / "out" / f"{args.workload}-seed{seed}-trace0.json").read_text())
        runs.append({"seed": seed, **result, "provenance": detail["provenance"]})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              flush=True)

    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else None
        bound = bounds[name]
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                       "unit": runs[0]["metrics"][name]["unit"], "values": values}
        verdict = "" if spread is None else (
            "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE")
        spread_text = "n/a" if spread is None else f"{spread:.4f}"
        print(f"{name:<40} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread_text:<8} {verdict}")
    if args.out:
        finished = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
        args.out.write_text(json.dumps({"workload": args.workload, "started": started, "finished": finished,
                                        "run_seconds": spec["run_seconds"], "runs": runs,
                                        "metrics": table}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
