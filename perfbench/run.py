"""End-to-end benchmark of the turanlab CLI on the search, certify and stability workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {search,certify,stability,all} --seed N
                             --seconds S --trace {0,1}

For each workload it writes the seeded inputs, times several fresh
interpreters importing `turanlab.cli` (setup_s), then starts one child
process (worker.py) that runs the workload's jobs in passes for S seconds
and checks every output.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 the per-layer metrics of a traced run.  It prints
a table and, as its last line, one JSON object.  See README.md.
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

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 15
RUN_LIMIT_S = 175
# the speed kernel runs in the probe itself, after the measured import
PROBE = (
    "import time; import turanlab.cli; t = time.clock_gettime(time.CLOCK_MONOTONIC); "
    f"import sys; sys.path.insert(0, {HERE!r}); import speed; "
    "print(t, turanlab.cli.__file__, *[speed.kernel() for _ in range(20)])"
)


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("us_per_code"):
        return "us"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def setup_times(env: dict) -> list[float]:
    """Reference seconds from starting a fresh interpreter until `import turanlab.cli` returns.

    Both clocks are CLOCK_MONOTONIC, which is system-wide.  The speed
    factor comes from kernel runs in the same probe, right after the import.
    The first, unmeasured probe compiles the bytecode cache.
    """
    samples = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True, check=True
        )
        stamp, path, *kernel_s = done.stdout.split()
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise RuntimeError(f"turanlab.cli was imported from {path}, not from {SRC}")
        if i:
            samples.append((float(stamp) - t0) * speed.factor([float(k) for k in kernel_s]))
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "turanlab"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def counters_match(workload: str, seed: int, counters: dict) -> bool:
    """Exact counters must repeat between runs of the same source on the same seed."""
    path = os.path.join(OUT, f"counters-{workload}-seed{seed}-{source_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh) == counters
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counters, fh)
    return True


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    began = time.perf_counter()
    tmp = tempfile.mkdtemp(dir=OUT)
    try:
        t0 = time.perf_counter()
        jobs, inputs = workloads.build(workload, seed, tmp)
        generate_s = time.perf_counter() - t0
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh).get(workload, {}).get(str(seed), {})
        for job in jobs:
            if job["name"] in reference:
                job["digest"] = reference[job["name"]]
        env = child_env()
        setup = setup_times(env)
        spec_path = os.path.join(tmp, "spec.json")
        spans_path = os.path.join(OUT, f"spans-{workload}.json.gz")
        spec = {"src": SRC, "dir": tmp, "jobs": jobs, "seconds": seconds, "trace": trace, "spans_path": spans_path}
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - began))
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
        if child.returncode != 0:
            raise RuntimeError(f"worker failed ({child.returncode}): {child.stderr.strip()[-2000:]}")
        report = json.loads(child.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = report["passes"]
    if trace and not counters_match(workload, seed, report["counters"]):
        report["errors"].append("exact counters differ from an earlier run of this source and seed")
    if trace:
        metrics = {k: (v, len(passes) - 1) for k, v in report["layer"].items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setup), len(setup)),
            # a typical pass: each job's median over the passes, so a slow spell in one
            # pass counts against one job only
            "wall_s": (sum(statistics.median(times) for times in zip(*(p["job_s"] for p in passes))), len(passes)),
            # pooled over the run's passes, so one slow job in one pass does not move it;
            # the upper median is a job time, not the mean of a cache hit and a miss
            "job_p50_s": (statistics.median_high(t for p in passes for t in p["job_s"]), report["attempted"]),
            "peak_rss_mb": (report["peak_rss_kb"] / 1024, 1),
        }
    return {
        "workload": workload,
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "errors": report["errors"],
        "inputs": inputs,
        "generate_s": generate_s,
        "metrics": metrics,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "missing_targets": report.get("missing_targets", []),
    }


def print_table(result: dict, seed: int) -> None:
    w = result["workload"]
    note = " (exhaustive and deterministic: the seed changes nothing)" if w == "search" else ""
    print(f"# workload={w} seed={seed}{note}")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} input_generation_s={result['generate_s']:.3f}")
    for inp in result["inputs"]:
        print(f"# input {inp['file']}: n={inp['n']} r={inp['r']} edges={inp['edges']}")
    print(f"# wall clock of a pass, unscaled (median): {result['raw_wall_s']:.3f} s")
    for target in result["missing_targets"]:
        print(f"# not traced (absent from the program): {target}")
    for err in result["errors"]:
        print(f"# FAILED {err}")
    ratio = result["failed"] / result["attempted"]
    rows = [(name, value, unit_of(name), n) for name, (value, n) in result["metrics"].items()]
    rows.append(("failed_ratio", ratio, "ratio", result["attempted"]))
    for name, value, unit, n in rows:
        print(f"{w:<10} {name:<44} {value:>16.6g} {unit:<6} n={n}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "turanlab", "cli.py")):
        print(f"error: no turanlab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        print_table(results[-1], args.seed)
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}." if prefix else "") + name: {"value": value, "unit": unit_of(name)}
            for r in results
            for name, (value, _) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
