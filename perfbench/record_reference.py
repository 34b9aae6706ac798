"""Record the stdout digests that run.py compares certify and stability outputs against.

Usage, from the root of a checkout:  python3 perfbench/record_reference.py FIRST LAST

Runs every certify and stability job once for each seed FIRST..LAST, in
this process, checks the outputs as the benchmark does, and stores a
digest of each job's stdout in reference.json.  The digests in the file
were recorded from the commit that added the benchmark; re-recording is
only right when a change of output is intended.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import speed
import workloads
import worker


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    sys.path.insert(0, run.SRC)
    from turanlab.cli import run as cli_run

    path = os.path.join(run.HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    os.makedirs(run.OUT, exist_ok=True)
    meter = speed.Speedometer()
    for workload in ("certify", "stability"):
        for seed in range(first, last + 1):
            tmp = tempfile.mkdtemp(dir=run.OUT)
            try:
                jobs, _ = workloads.build(workload, seed, tmp)
                result = worker.run_pass(jobs, os.path.join(tmp, "cache.jsonl"), cli_run, None, meter)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            errors: list[str] = []
            if worker.check_pass(jobs, result, None, errors):
                print(f"{workload} seed {seed}: not recorded: {errors}", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = {
                job["name"]: worker.digest(out) for job, (_, out, _) in zip(jobs, result["outputs"])
            }
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
