#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric across seeds.

    python3 perfbench/spread.py --workloads sites,automata,verify --seeds 1-10
    python3 perfbench/spread.py --workloads sites --seeds 1-10 --trace 1

Prints, per workload and metric, the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.  With --baseline FILE it also records the medians, the Python
version, the CPU count and the git revision in FILE, under "end_to_end" or,
with --trace 1, under "per_layer".
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# counts that repeat exactly for a given seed and program; a later change may
# cite them as counts
EXACT = ("fincat.congruences", "words.minimize.states_out", "words.monoid_order",
         "lsc.build_lsc.calls")


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="sites,automata,verify")
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=int,
                        default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="write the medians to this JSON file")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']} of {result['attempted']}; "
                  + " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()
                             if not args.trace), flush=True)
            if not result["correct"]:
                print(proc.stdout)
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        summary[workload] = {}
        for name, (unit, vals) in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "unit": unit, "spread": spread,
                                       "runs": len(vals)}
            if name in EXACT:
                summary[workload][name]["exact"] = True
            print(f"  {workload:9s} {name:44s} {median:14.6f} {unit:6s} spread {spread:.3f}")
    if args.baseline:
        path = Path(args.baseline)
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline["per_layer" if args.trace else "end_to_end"] = {
            "python": platform.python_version(), "cpus": os.cpu_count(), "git_rev": git_rev(),
            "seeds": args.seeds, "seconds": args.seconds, "workloads": summary}
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
