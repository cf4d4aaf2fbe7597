#!/usr/bin/env python3
"""Compares two sets of moodbench results, metric by metric, per workload.

    python3 benchmark/compare.py BASE NEW
    python3 benchmark/compare.py --summary RECORD... > benchmark/results/baseline.json

BASE and NEW are each a directory of result records (run.py --out, run.sh), a
single record, or a file written by --summary. For every workload and metric
it prints both sides' median and quartiles, the fraction of pairs the new side
won (pairs match by seed), and a verdict:

  improved    the new side won at least 9/10 of the pairs and the medians
              differ by more than the base runs' interquartile range
  regressed   the new median is worse than the base median by more than the
              metric's bound in BENCHMARK.json (per-layer metrics have no
              bound: the mirror image of "improved")
  unresolved  the base runs spread wider than the bound and not every new run
              beat every base run
  unchanged   otherwise

It also reports per workload whether the failed fraction (failed/attempted)
rose and whether any run was incorrect. Exit code 1 when an end-to-end metric
regressed, the failed fraction rose, or a run was incorrect. Standard library
only.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """Result records from a directory, a record file or a summary file."""
    if os.path.isdir(path):
        records = []
        for name in sorted(glob.glob(os.path.join(path, "*.json"))):
            records += load(name)
        return records
    with open(path) as f:
        data = json.load(f)
    return data["runs"] if "runs" in data else [data]


def group(records):
    """{(workload, trace): [record, ...]}"""
    out = {}
    for r in records:
        out.setdefault((r["workload"], bool(r["trace"])), []).append(r)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs_of(base, new, metric):
    """(base value, new value) pairs: by seed where both sides ran it (the
    i-th run of a seed with the i-th), else in order."""
    def by_seed(runs):
        out = {}
        for r in runs:
            out.setdefault(r["seed"], []).append(r["metrics"][metric]["value"])
        return out

    b, n = by_seed(base), by_seed(new)
    common = sorted(set(b) & set(n))
    if common:
        return [pair for s in common for pair in zip(b[s], n[s])]
    return list(zip([r["metrics"][metric]["value"] for r in base],
                    [r["metrics"][metric]["value"] for r in new]))


def verdict(base, new, pairs, better, bound):
    sign = 1 if better == "higher" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    q1, _, q3 = quartiles(base)
    iqr = q3 - q1
    gain = sign * (mn - mb)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved", win_frac
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > iqr:
            return "regressed", win_frac
        return "unchanged", win_frac
    scale = abs(mb) or 1.0
    all_better = (min(new) > max(base)) if sign > 0 else (max(new) < min(base))
    if iqr / scale > bound and not all_better:
        return "unresolved", win_frac
    if -gain > bound * scale:
        return "regressed", win_frac
    return "unchanged", win_frac


def failed_frac(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def compare(base_records, new_records, spec):
    metrics = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            metrics[m["name"]] = (kind, m["better"], m.get("bound"))
    base, new = group(base_records), group(new_records)
    bad = False
    fmt = "{:<12} {:<34} {:>30} {:>30} {:>5}  {}"
    print(fmt.format("workload", "metric", "base median [q1, q3]",
                     "new median [q1, q3]", "won", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        b_runs, n_runs = base[key], new[key]
        for name in b_runs[0]["metrics"]:
            if name not in metrics or name not in n_runs[0]["metrics"]:
                continue
            kind, better, bound = metrics[name]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            v, win_frac = verdict(bv, nv, pairs_of(b_runs, n_runs, name), better, bound)
            if v == "regressed" and kind == "end_to_end":
                bad = True
            bq, nq = quartiles(bv), quartiles(nv)
            print(fmt.format(workload, name,
                             "{:.5g} [{:.5g}, {:.5g}]".format(bq[1], bq[0], bq[2]),
                             "{:.5g} [{:.5g}, {:.5g}]".format(nq[1], nq[0], nq[2]),
                             "{:.0%}".format(win_frac), v))
        fb, fn = failed_frac(b_runs), failed_frac(n_runs)
        rose = fn > fb
        incorrect = [r["seed"] for r in b_runs + n_runs if not r["correct"]]
        bad = bad or rose or bool(incorrect)
        print("{:<12} failed_frac base {:.3g} new {:.3g}{}{}".format(
            workload, fb, fn, " ROSE" if rose else "",
            "  INCORRECT runs (seeds {})".format(incorrect) if incorrect else ""))
    for key in sorted(set(base) ^ set(new)):
        print("{:<12} (trace={}) only on one side".format(*key))
    return 1 if bad else 0


def summary(records):
    out = {}
    for (workload, trace), runs in sorted(group(records).items()):
        per = out.setdefault(workload, {})
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            per[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / abs(med) if med else 0.0,
                         "runs": len(values)}
    return {"host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "system": platform.system()},
            "summary": out, "runs": records}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="+")
    ap.add_argument("--summary", action="store_true",
                    help="print median, quartiles and spread of the given records")
    ap.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    if args.summary:
        records = [r for p in args.paths for r in load(p)]
        json.dump(summary(records), sys.stdout, indent=1)
        print()
        return 0
    if len(args.paths) != 2:
        ap.error("give BASE and NEW")
    with open(args.bench) as f:
        spec = json.load(f)
    return compare(load(args.paths[0]), load(args.paths[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
