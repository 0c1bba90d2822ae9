"""One workload process: set up the inputs, run passes, check every job.

Started by ``run.py`` with ``PYTHONHASHSEED`` pinned and
``TOPOS_LSC_BUDGET`` cleared; prints one JSON object as its last line.
One caller runs the jobs one after another (a closed loop, one thread).
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from . import hostspeed, inputs, jobs, stats, tracing

# job_tail_s pools the jobs of the last this many passes, so
# that every run ranks the same number of latencies and the tail rank (ten
# samples from the top) falls on the same job of the list however many passes
# fit.  The counts put that rank on long jobs, whose times the in-job
# host-speed samples correct best: the second fastest of the eight samples of
# sites' second and third slowest jobs (the E16 and S4 group reports), the
# median of automata's fifth slowest (the 500-state pipeline), and the second
# fastest of the twelve samples of verify's slowest suite (normalize)
POOLED_PASSES = {"sites": 4, "automata": 3, "verify": 12}


class Run:
    """Passes over one job list, with every job's latency and problems."""

    def __init__(self, job_list, tracer=None):
        self.jobs = job_list
        self.tracer = tracer
        self.passes = []      # (wall s, cpu s, job ids, traced) as measured
        self.corrected = []   # (wall s, cpu s, traced) at the nominal host speed
        self.latencies = []   # per pass, per job, at the nominal host speed
        self.failures = []    # (job name, problem)
        self.attempted = 0

    def run_pass(self, traced=False):
        """One pass over the job list.  Each job is checked right after it
        runs and its output dropped, so outputs do not pile up on the heap.
        The host-speed reference is sampled around each job and, in untraced
        passes, inside it (``hostspeed.Sampler``).  A pass's wall and CPU
        time are the sums over its jobs, so the samples and the checks stay
        out of them."""
        first = self.attempted
        walls, cpus, scales = [], [], []
        gc.collect()
        for i, job in enumerate(self.jobs):
            # inside traced jobs the samples would land in the spans
            host = hostspeed.Sampler(period=None if traced else hostspeed.PERIOD_S)
            host.start()
            if traced:
                self.tracer.job_id = first + i
                self.tracer.enable()
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                out, problems = job.run(), []
            except Exception:
                out, problems = None, [traceback.format_exc(limit=3)]
            host.stop()
            walls.append(time.perf_counter() - start - host.spent)
            cpus.append(time.process_time() - cpu - host.spent_cpu)
            if traced:
                self.tracer.disable()
            scales.append(host.finish())
            try:
                problems = problems or job.check(out)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            self.failures.extend((job.name, p) for p in problems[:1])
            del out
        self.attempted += len(self.jobs)
        self.passes.append((sum(walls), sum(cpus), range(first, self.attempted), traced))
        self.latencies.append([w * f for w, f in zip(walls, scales)])
        self.corrected.append((sum(self.latencies[-1]),
                               sum(c * f for c, f in zip(cpus, scales)), traced))

    def run_for(self, seconds, traced=False, at_least=1):
        """As many passes as fit ``seconds`` by the first pass's length,
        rounded to the nearest count, and at least ``at_least``."""
        self.run_pass(traced)
        for _ in range(max(at_least, round(seconds / self.passes[-1][0])) - 1):
            self.run_pass(traced)

    def summary(self, traced, corrected=False):
        """Wall and CPU times of the traced or untraced passes, as measured
        or at the nominal host speed."""
        rows = self.corrected if corrected else self.passes
        walls = [row[0] for row in rows if row[-1] == traced]
        cpus = [row[1] for row in rows if row[-1] == traced]
        return walls, cpus


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True, help="directory to write the inputs into")
    parser.add_argument("--demos", required=True, help="directory of the bundled demo data")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="gzip CSV file for the spans of a traced run")
    args = parser.parse_args(argv)

    host = hostspeed.Sampler()
    host.start()
    inputs.make_inputs(args.workload, args.seed, args.demos, args.inputs)
    job_list = jobs.workload_jobs(args.workload, args.inputs)
    host.stop()
    setup_s = time.monotonic() - args.t0 - host.spent
    # at the nominal host speed, as every time the benchmark reports, by the
    # host's speed while the inputs were made
    setup_s *= host.finish()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # keep the harness's own long-lived objects out of the collector's scans
    gc.collect()
    gc.freeze()

    result = {"setup_s": setup_s, "jobs": len(job_list)}
    if args.trace:
        tracer = tracing.Tracer()
        run = Run(job_list, tracer)
        run.run_for(args.seconds / 2)
        tracer.install()
        run.run_for(args.seconds / 2, traced=True)
        plain, _ = run.summary(False)
        per_pass = [tracing.layer_metrics(tracer.summary(ids), tracer.counted(ids), wall)
                    for wall, _, ids, traced in run.passes if traced]
        layers = {name: [statistics.median([m[name][0] for m in per_pass]), per_pass[0][name][1]]
                  for name in per_pass[0]}
        layers["trace.overhead"] = [layers["trace.wall_s"][0] / statistics.median(plain), "ratio"]
        result["layers"] = layers
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.spans)
        tracer.uninstall()
    else:
        run = Run(job_list)
        pooled = POOLED_PASSES[args.workload]
        run.run_for(args.seconds, at_least=pooled)
        walls, cpus = run.summary(False, corrected=True)
        measured, _ = run.summary(False)
        latencies = [t for pass_ in run.latencies[-pooled:] for t in pass_]
        tail, pct, above = stats.tail(latencies)
        result.update({
            "passes": len(walls),
            "wall_s": statistics.median(walls),
            "measured_wall_s": statistics.median(measured),
            "cpu_s": statistics.median(cpus),
            # each job at its median over the passes, then the higher middle
            # job of the list: a single latency sample is a poor estimate of
            # the host's speed (a tenth off either way) and a pooled median
            # falls on one job's fastest or slowest sample
            "job_p50_s": statistics.median_high(
                statistics.median(pass_[i] for pass_ in run.latencies)
                for i in range(len(job_list))),
            "samples": len(latencies),
            "job_tail_s": tail,
            "tail_percentile": pct,
            "tail_above": above,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    result.update({"attempted": run.attempted, "failed": len(run.failures),
                   "failures": run.failures[:20]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
