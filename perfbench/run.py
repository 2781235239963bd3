"""End-to-end and per-layer benchmark of the nilsplit command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It generates the workload's documents
and job list from the seed under .bench_work/, times the import of nilsplit
in several fresh interpreters (set-up), then runs the job list in one fresh
worker process (perfbench/worker.py) for about S seconds and checks every
answer. Times are scaled to the reference speed of reference.py (see
worker.py); the raw times are printed too. Workloads: catalog-mix,
betti-ladder, symplectic-decide (see workloads.py and perfbench/README.md).

Output: a table of every metric with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 its
per-layer ones, measured with the tracer of tracer.py installed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
from workloads import NAMES, generate  # noqa: E402

SETUP_PROBES = 9  # fresh interpreters timed per run, after one warm-up
DEADLINE_S = 170  # every run ends within this, building included


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def run_checked(argv, timeout):
    """Run a child to completion (killed and reaped on timeout)."""
    return subprocess.run(argv, capture_output=True, text=True, timeout=timeout, check=False)


def setup_seconds(src: str, timeout: float) -> tuple[float, float]:
    """Median import time of nilsplit over fresh interpreters, at the
    reference speed and raw."""
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        proc = run_checked([sys.executable, os.path.join(HERE, "import_probe.py"), src], timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        seconds, speed, origin = proc.stdout.split()
        if not os.path.realpath(origin).startswith(src + os.sep):
            raise RuntimeError(f"nilsplit imported from {origin}, not from {src}")
        if i:  # the first probe may compile bytecode; it is a warm-up
            raw.append(float(seconds))
            scaled.append(float(seconds) * reference.NOMINAL_S / float(speed))
    return statistics.median(scaled), statistics.median(raw)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "nilsplit", "cli.py")):
        return fail(f"no nilsplit sources under {src}; run from the root of a checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    docs, jobs = generate(args.workload, args.seed, os.path.relpath(work, root))
    for path, text in docs.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    jobs_path = os.path.join(work, "jobs.json")
    os.makedirs(work, exist_ok=True)
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)

    os.environ.pop("NILSPLIT_SEED", None)  # every search gets an explicit --seed
    try:
        setup, raw_setup = setup_seconds(src, timeout=60)
        left = DEADLINE_S - (time.monotonic() - started)
        proc = run_checked(
            [sys.executable, os.path.join(HERE, "worker.py"), "--src", src, "--jobs", jobs_path,
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans", os.path.join(work, "spans.json")],
            timeout=left,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    measured = {
        "setup_s": (setup, "s"),
        "wall_s": (res["wall_s"], "s"),
        "validate_s": (res["validate_s"], "s"),
        "cohomology_s": (res["cohomology_s"], "s"),
        "symplectic_s": (res["symplectic_s"], "s"),
        "csplit_s": (res["csplit_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "raw.setup_s": (raw_setup, "s"),
        "raw.wall_s": (res["raw_wall_s"], "s"),
        "speed": (res["speed"], "ratio"),
        "fail_ratio": (res["failed"] / res["attempted"], "ratio"),
        "undecided_ratio": (res["undecided"] / res["decisions"] if res["decisions"] else 0.0, "ratio"),
    }
    wanted = spec["end_to_end"]
    if args.trace:
        measured.update({k: (v, res["layer_units"][k]) for k, v in res["layers"].items()})
        wanted = spec["per_layer"]

    print(f"# {args.workload} seed={args.seed} passes={res['passes']} jobs/pass={len(jobs)} "
          f"attempted={res['attempted']} failed={res['failed']} undecided={res['undecided']}")
    for name, (value, unit) in measured.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    if args.trace and res["absent"]:
        print("# absent (not in this version of nilsplit): " + ", ".join(res["absent"]))
    for problem in res["problems"]:
        print(f"# FAILED {problem}")

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return fail(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
