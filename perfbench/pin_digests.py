"""Rewrite digests.json from the reports the current program renders.

Run from the repository root, on the commit whose report bytes are the
reference:

    PYTHONPATH=src python3 -m perfbench.pin_digests

Jobs whose input does not depend on the seed are pinned, and so are the jobs
whose input the seed draws from a fixed set: the S4 filter job once per
generator, the band DFA reports once per member of band_pool.json.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from toposlsc import fixtures, io

from . import inputs, jobs


def main():
    scratch = Path(".perfbench_tmp")
    scratch.mkdir(exist_ok=True)
    folder = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
    digests = {}
    try:
        pinned = []
        for workload in inputs.MAKERS:
            inputs.make_inputs(workload, 0, "demos/data", folder / workload)
            pinned += [job for job in jobs.workload_jobs(workload, folder / workload, {})
                       if job.digest_key and not job.name.startswith(("filter", "words band"))]
        group_path = folder / "sites" / "S4.group"
        for index in inputs.filter_candidates(fixtures.symmetric_4()):
            filter_path = folder / "sites" / f"S4-{index}.filter"
            inputs.write_json(filter_path, {"*": [index]})
            pinned.append(jobs.filter_job(group_path, filter_path, {}))
        pool = json.loads(inputs.BAND_POOL.read_text())
        for name, target, states in inputs.BANDS:
            for i, member in enumerate(pool[name]):
                path = folder / f"pool{i}" / f"{name}.dfa"
                path.parent.mkdir(exist_ok=True)
                inputs.write_json(path, io.dump_dfa(inputs.pool_dfa(states, member)))
                pinned.append(jobs.band_job(path, target, {}))
        for job in pinned:
            out = job.run()
            digests[job.digest_key] = jobs.sha256(out[1])
            problems = [p for p in job.check(out) if not p.startswith("no pinned digest")]
            if problems:
                print(f"{job.name}: {problems}", file=sys.stderr)
                return 1
            print(job.name, digests[job.digest_key][:12])
    finally:
        shutil.rmtree(folder)
    jobs.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
