"""Child process of run.py: runs one workload's job list in passes and checks every output.

Usage: python3 worker.py SPEC.json   (SPEC is written by run.py)

Jobs call `turanlab.cli.run(argv)` in this process, one after another, with
stdout and stderr captured.  Passes repeat until the spec's seconds are
used up.  The last line of stdout is the JSON result that run.py reads.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import spans
import speed

PASS_LIMIT_S = 150  # start no pass that would end past this, so a run ends within 180 s


def run_pass(jobs: list[dict], cache_path: str, run, tracer, meter: speed.Speedometer) -> dict:
    """Run every job once.  Job times are in reference seconds (see speed.py)."""
    if os.path.exists(cache_path):
        os.remove(cache_path)
    raw, factors, outputs = [], [], []
    for i, job in enumerate(jobs):
        argv = job["argv"] + (["--cache", cache_path] if job["argv"][0] == "search" else [])
        out, err = io.StringIO(), io.StringIO()
        meter.start()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.run_job(i, run, argv) if tracer else run(argv)
        except Exception:  # a crash in one job is reported as that job's failure
            code = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        spent, factor = meter.stop()
        raw.append(elapsed - spent)
        factors.append(factor)
        outputs.append((code, out.getvalue(), err.getvalue()))
    job_s = [t * f for t, f in zip(raw, factors)]
    return {"wall_s": sum(job_s), "raw_wall_s": sum(raw), "job_s": job_s, "factors": factors, "outputs": outputs}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_search(job: dict, payload: dict) -> str | None:
    from turanlab.checkers import is_cancellative, is_k_free
    from turanlab.hypergraph import Hypergraph

    if payload["value"] != job["value"]:
        return f"value {payload['value']} != theorem value {job['value']}"
    if payload["complete"] is not True:
        return "search not complete"
    if payload["extremal_classes"] != job["classes"]:
        return f"extremal_classes {payload['extremal_classes']} != {job['classes']}"
    kind, ell = job["checker"]
    for w in payload["witnesses"]:
        h = Hypergraph.from_edges(payload["n"], payload["r"], w)
        if h.size != job["value"]:
            return f"witness has {h.size} edges, not {job['value']}"
        if not (is_cancellative(h) if kind == "cancellative" else is_k_free(h, ell)):
            return f"witness fails the from-scratch {kind} check"
    return None


def check_job(job: dict, output: tuple, previous: tuple | None, first: tuple | None) -> str | None:
    """None if the job's output is right, else the reason it is not."""
    code, out, err = output
    if code != 0:
        return f"exit code {code}: {err.strip()[-500:]}"
    if first is not None and out != first[1]:
        return "stdout differs from this run's first pass"
    check = job["check"]
    if check == "same_as_previous":
        return None if out == previous[1] else "cache-hit stdout differs from the computed one"
    if check == "search":
        return check_search(job, json.loads(out))
    if "digest" in job and digest(out) != job["digest"]:
        return "stdout differs from the seed-commit reference"
    if check == "holds" and json.loads(out)["holds"] is not True:
        return "certificate does not hold"
    if check == "bipartite" and not all(json.loads(out)["verified"].values()):
        return "bipartite analysis not verified"
    if check == "scan" and len(out.splitlines()) != 1 + job["rows"]:
        return f"scan printed {len(out.splitlines()) - 1} rows, expected {job['rows']}"
    return None


def check_pass(jobs: list[dict], result: dict, first: dict | None, errors: list[str]) -> int:
    failed = 0
    outputs = result["outputs"]
    for i, job in enumerate(jobs):
        try:
            why = check_job(job, outputs[i], outputs[i - 1] if i else None, first and first["outputs"][i])
        except (ValueError, KeyError, TypeError) as exc:  # unparsable output
            why = f"output check raised {exc!r}"
        if why:
            failed += 1
            errors.append(f"{job['name']}: {why}")
    return failed


def write_spans(path: str, job_names: list[str], recorded: list[list]) -> None:
    """The last traced pass's spans, gzipped, with times in microseconds from its first span."""
    names = sorted({span[0] for span in recorded})
    index = {name: i for i, name in enumerate(names)}
    t0 = recorded[0][1] if recorded else 0.0
    rows = [
        [index[name], round((start - t0) * 1e6), round((end - start) * 1e6), parent, job]
        for name, start, end, parent, job in recorded
    ]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(
            {"jobs": job_names, "names": names, "columns": ["name", "start_us", "dur_us", "parent", "job"], "spans": rows},
            fh,
        )


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import turanlab.cli

    if not os.path.abspath(turanlab.cli.__file__).startswith(spec["src"] + os.sep):
        sys.exit(f"turanlab was imported from {turanlab.cli.__file__}, not from {spec['src']}")
    jobs, seconds = spec["jobs"], spec["seconds"]
    cache_path = os.path.join(spec["dir"], "cache.jsonl")
    errors: list[str] = []
    attempted = failed = 0
    passes, layers, counters = [], [], []
    tracer = None
    meter = speed.Speedometer()
    first = None
    begin = time.perf_counter()
    if spec["trace"]:
        # one untraced pass gives the base for the tracing overhead
        first = run_pass(jobs, cache_path, turanlab.cli.run, None, meter)
        passes.append(first)
        tracer = spans.Tracer()
        tracer.install()
    while True:
        result = run_pass(jobs, cache_path, turanlab.cli.run, tracer, meter)
        if tracer:
            recorded, counts = tracer.take()
            layers.append(spans.layer_metrics(recorded, counts, result["factors"]))
            counters.append({k: layers[-1][k] for k in spans.COUNTERS})
        passes.append(result)
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds or elapsed + result["raw_wall_s"] > PASS_LIMIT_S:
            break
    for result in passes:
        attempted += len(jobs)
        failed += check_pass(jobs, result, first, errors)
        first = first or result
    if any(c != counters[0] for c in counters[1:]):
        errors.append(f"exact counters differ between traced passes: {counters}")
    report = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": [{k: p[k] for k in ("wall_s", "raw_wall_s", "job_s")} for p in passes],
    }
    if tracer:
        base = passes[0]["wall_s"]
        layer = spans.median_metrics(layers)
        layer["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in passes[1:]) / base - 1
        report.update(layer=layer, counters=counters[0], missing_targets=tracer.missing)
        write_spans(spec["spans_path"], [j["name"] for j in jobs], recorded)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
