"""One benchmark run in a fresh process: import nilsplit, then run the job list.

    python3 perfbench/worker.py --src SRC --jobs JOBS.json --seconds S --trace 0|1

The job list runs as a closed loop with one client: each job calls
nilsplit.cli.main(argv + ["--format", "machine"]) in this process with
stdout captured, and starts only when the previous one has returned. Whole
passes over the list repeat until the time is spent (at least one pass);
every pass is checked and timings are reported as medians over passes, at
the reference speed of reference.py (the raw seconds are reported too).

With --trace 1, untraced and traced passes alternate: the traced ones give
the per-layer metrics, the untraced ones the base of the overhead ratio.
The result is one JSON object on the last line of stdout.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import reference
from check import check
from tracer import Tracer

SUBCOMMANDS = ("validate", "cohomology", "symplectic", "csplit")
SPEED_WINDOW_S = 1.0  # the machine's speed drifts over seconds, not less
SAMPLE_EVERY_S = 0.25


def run_job(cli, job: dict):
    """(start, end, exit code or error text, captured stdout) of one CLI job."""
    out = io.StringIO()
    # start from a collected heap, as a fresh CLI process would, so that no
    # job pays for the garbage of the one before it
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job["argv"] + ["--format", "machine"])
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = "raised " + traceback.format_exc(limit=-1).strip().replace("\n", " | ")
    return start, time.perf_counter(), code, out.getvalue()


def run_pass(cli, jobs: list) -> dict:
    """Run and check every job once; times are scaled to the reference speed.

    An interval timer takes a reference sample every SAMPLE_EVERY_S of wall
    time, inside the jobs as well as between them: a sample taken between
    jobs, on a freshly collected heap, can run twice as fast as one taken
    while a job holds its working set, so only samples taken where the jobs
    run track the speed the jobs see. A job's time is its wall time less
    the samples taken inside it, scaled by the median of the samples within
    SPEED_WINDOW_S of it.
    """
    samples = []  # (taken at, seconds)

    def take_sample(signum, frame):
        samples.append((time.perf_counter(), reference.sample()))

    previous = signal.signal(signal.SIGALRM, take_sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        runs = [run_job(cli, job) for job in jobs]
        while not samples or samples[-1][0] < runs[-1][1]:  # one sample after the last job
            signal.pause()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    records = []
    for start, end, code, stdout in runs:
        inside = sum(s for t, s in samples if start <= t <= end)
        near = [s for t, s in samples if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
        records.append((end - start - inside, reference.NOMINAL_S / statistics.median(near), code, stdout))
    stats = {"raw_wall_s": 0.0, "wall_s": 0.0, "failed": 0, "undecided": 0, "problems": []}
    stats.update({f"{c}_s": 0.0 for c in SUBCOMMANDS})
    for job, (seconds, scale, code, stdout) in zip(jobs, records):
        stats["raw_wall_s"] += seconds
        stats["wall_s"] += seconds * scale
        if job["cmd"] in SUBCOMMANDS:
            stats[f"{job['cmd']}_s"] += seconds * scale
        problems, undecided = check(job, code, stdout)
        stats["undecided"] += undecided
        if problems:
            stats["failed"] += 1
            stats["problems"].append(f"{' '.join(job['argv'])}: {'; '.join(problems)}")
    stats["speed"] = stats["wall_s"] / stats["raw_wall_s"]
    return stats


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", required=True, help="where a traced run writes its spans")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from nilsplit import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(args.src) + os.sep):
        sys.stderr.write(f"imported nilsplit from {cli.__file__}, not from {args.src}\n")
        return 2
    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    spent = []
    while True:
        t = time.perf_counter()
        plain.append(run_pass(cli, jobs))
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(run_pass(cli, jobs))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        spent.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(spent) > args.seconds:
            break

    passes = plain + traced
    result = {
        "passes": len(plain),
        "attempted": len(jobs) * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "undecided": sum(p["undecided"] for p in passes),
        "decisions": sum(j["decision"] for j in jobs) * len(passes),
        "problems": sorted({q for p in passes for q in p["problems"]})[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for key in ("wall_s", "raw_wall_s", "speed") + tuple(f"{c}_s" for c in SUBCOMMANDS):
        result[key] = statistics.median(p[key] for p in plain)
    if args.trace:
        per_pass = [t.metrics() for t in tracers]
        result["layers"] = {k: statistics.median(m[k][0] for m in per_pass) for k in per_pass[0]}
        result["layer_units"] = {k: unit for k, (_, unit) in per_pass[0].items()}
        result["layers"]["trace.overhead_ratio"] = statistics.median(t["wall_s"] for t in traced) / result["wall_s"]
        result["layer_units"]["trace.overhead_ratio"] = "ratio"
        result["absent"] = tracers[0].absent
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracers[-1].spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
