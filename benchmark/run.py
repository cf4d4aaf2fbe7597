#!/usr/bin/env python3
"""Builds moodbench from this checkout and runs one workload.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]

The build goes to build-bench/ (configured once, then brought up to date on
every run). moodbench's own report lines go to stderr; the last line on
stdout is one JSON object with the keys correct, attempted, failed and
metrics -- the end-to-end metrics of BENCHMARK.json, or its per-layer ones
with --trace 1. --out also keeps the full record (workload, seed, ...) that
compare.py reads. The exit code is 0 only when the run completed and every
result was correct.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")
BUILD_TIMEOUT_S = 850
# Slack over --seconds for set-ups, warm-up, checks and the traced passes.
RUN_SLACK_S = 150


def sh(cmd, timeout, env):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, env=env)


def build(env):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S, env)
    sh(["cmake", "--build", BUILD, "--target", "moodbench", "-j", "4"],
       BUILD_TIMEOUT_S, env)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result record here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    # Compiler temporaries and run data stay inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        build(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = args.out or os.path.join(BUILD, "results", f"{tag}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(os.path.abspath(record_path)), exist_ok=True)
    if os.path.exists(record_path):
        os.remove(record_path)
    data_dir = os.path.join(BUILD, f"data-{tag}-{os.getpid()}")
    cmd = [os.path.join(BUILD, "moodbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}", f"--dir={data_dir}",
           f"--out={record_path}"]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace", f"--spans={os.path.join(BUILD, 'traces', tag + '.tsv')}"]
    # A SIGTERM to this script also stops moodbench (see the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("run.py: terminated"))
    child = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    try:
        rc = child.wait(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: moodbench timed out")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(data_dir, ignore_errors=True)
    if not os.path.exists(record_path):
        sys.exit(f"run.py: moodbench exited with {rc} and no result")
    with open(record_path) as f:
        record = json.load(f)
    if not args.out:
        os.remove(record_path)
    if list(record["metrics"]) != declared:
        sys.exit("run.py: moodbench's metrics differ from BENCHMARK.json's")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    sys.exit(0 if rc == 0 and record["correct"] else 1)


if __name__ == "__main__":
    main()
