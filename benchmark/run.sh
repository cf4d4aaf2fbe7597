#!/usr/bin/env bash
# Runs every moodbench workload once through run.py, printing each workload's
# metrics and keeping its result record for compare.py:
#
#   benchmark/run.sh --seed=N [--seconds=S] [--trace] [--out-dir=DIR]
#
# --seconds defaults to BENCHMARK.json's run_seconds, --out-dir to
# build-bench/results. Exits non-zero if any workload fails or is incorrect.
set -euo pipefail
cd "$(dirname "$0")/.."

spec() { python3 -c "import json; s = json.load(open('BENCHMARK.json')); print($1)"; }

seed=1
seconds=$(spec 's["run_seconds"]')
trace=0
out_dir=build-bench/results
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed=${arg#*=} ;;
    --seconds=*) seconds=${arg#*=} ;;
    --trace) trace=1 ;;
    --out-dir=*) out_dir=${arg#*=} ;;
    *) echo "usage: $0 --seed=N [--seconds=S] [--trace] [--out-dir=DIR]" >&2; exit 2 ;;
  esac
done

mkdir -p "$out_dir"
status=0
for w in $(spec '" ".join(w["name"] for w in s["workloads"])'); do
  python3 benchmark/run.py --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out "$out_dir/$w-seed$seed-trace$trace.json" >/dev/null || status=1
done
exit $status
