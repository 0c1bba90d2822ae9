#!/usr/bin/env python3
"""Benchmark of toposlsc on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sites --seed 1 --seconds 30 --trace 0

Workloads (one caller, jobs one after another, one process each):
  sites     lsc and group reports on finite sites, and a filter certificate
  automata  words reports on regexes and random DFAs, and the minimize ->
            Nerode -> normalization pipeline on random DFAs of 250 to 1000 states
  verify    the four verify suites on the demo data plus seed-drawn fixtures
  all       each of the above in turn

With --trace 0 it prints the end-to-end metrics; with --trace 1 a separate
traced run prints the per-layer metrics.  End-to-end times are given at a
nominal host speed (perfbench/hostspeed.py), with the pass wall time as
measured beside them; per-layer times are as measured.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Exit code 0 when the run completed (correct or not), 2 when the
checkout lacks the program or the demo data, 1 when a workload process failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracing  # noqa: E402

ROOT = Path.cwd()
WORKLOADS = ("sites", "automata", "verify")
SETUPS = 5          # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170   # a run must end within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


def spawn(args, deadline):
    """Run one workload process; return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    env.pop("TOPOS_LSC_BUDGET", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *args, "--t0", repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"workload process {' '.join(args[:2])} timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    folder = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--demos", str(ROOT / "demos" / "data")]
    try:
        setups = [spawn(common + ["--inputs", str(folder / f"setup{i}"), "--setup-only"],
                        deadline)["setup_s"]
                  for i in range(SETUPS - 1)]
        spans = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.csv.gz"
        result = spawn(common + ["--inputs", str(folder / "inputs"), "--spans", str(spans)],
                       deadline)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    setups.append(result["setup_s"])
    result["setup_s"] = sorted(setups)[len(setups) // 2]
    result["setups"] = len(setups)
    return result


def metrics_of(result, trace):
    if trace:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in result["layers"].items()}
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}


def print_table(workload, seed, result, trace):
    n, failed = result["attempted"], result["failed"]
    print(f"{workload} (seed {seed}): {result['jobs']} jobs a pass, "
          f"{n} jobs attempted, {failed} failed")
    for name, problem in result["failures"]:
        print(f"  FAILED {name}: {problem.strip().splitlines()[-1]}")
    if trace:
        for name, (value, unit) in result["layers"].items():
            moves = tracing.MOVES.get(name, "")
            print(f"  {name:44s} {value:14.6f} {unit:6s} {moves}".rstrip())
        return
    notes = {
        "setup_s": f"median of {result['setups']} set-ups",
        "wall_s": f"median of {result['passes']} passes; "
                  f"{result['measured_wall_s']:.6f} s as measured",
        "job_p50_s": f"middle of {result['jobs']} jobs, each at its median over "
                     f"{result['passes']} passes",
        "job_tail_s": f"p{result['tail_percentile']:.1f}, {result['tail_above']} of "
                      f"{result['samples']} jobs above",
        "cpu_s": f"median of {result['passes']} passes",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    print("  times at the nominal host speed (perfbench/hostspeed.py)")
    for name, unit in END_TO_END:
        print(f"  {name:12s} {result[name]:12.6f} {unit:3s}  {notes[name]}")
    print(f"  {'error_rate':12s} {failed / n:12.6f} {'':3s}  {failed} of {n} jobs failed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "toposlsc" / "__init__.py", ROOT / "demos" / "data")
               if not p.exists()]
    if missing:
        print(f"perfbench: run from a checkout of toposlsc; missing {missing[0]}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace,
                                             deadline)
            print_table(workload, args.seed, results[workload], args.trace)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(workloads) == 1:
        metrics = metrics_of(results[args.workload], args.trace)
    else:
        metrics = {f"{w}.{name}": value for w, r in results.items()
                   for name, value in metrics_of(r, args.trace).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
