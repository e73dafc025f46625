#!/usr/bin/env python3
"""Judges a change against its parent from two result files of run.py
(--out or --pairs), one verdict per (workload, end-to-end metric):

  python3 benchmark/compare.py BASE.json CHANGE.json

  improved    over at least 10 pairs, the change wins at least 9 of 10
              (ties count for neither side) and the medians differ by more
              than the parent's interquartile range;
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the metric's bound, and not every change run
              beats every parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound (a share of the parent's median);
  no worse    otherwise.

Runs pair up in file order within each workload. setup_s is host time and
is judged on medians only, never unresolved. A rise in the share of failed
ops is flagged too. Exits 1 on any regression or failure rise.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
MEDIAN_ONLY = {"setup_s"}


def load(path):
    with open(path) as f:
        return [r for r in json.load(f)["runs"] if not r.get("trace")]


def values(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def verdict(entry, base, change):
    higher = entry["better"] == "higher"

    def better(x, y):
        return x > y if higher else x < y

    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(better(c, b) for b, c in pairs)
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0,
                 (c3 - c1) / abs(cmed) if cmed else 0.0)
    worse = ((bmed - cmed) if higher else (cmed - bmed)) / abs(bmed) \
        if bmed else 0.0
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and
            better(cmed, bmed) and abs(cmed - bmed) > b3 - b1):
        return "improved", bmed, cmed, spread, worse
    if (entry["name"] not in MEDIAN_ONLY and spread > entry["bound"] and
            not all(better(c, b) for b in base for c in change)):
        return "unresolved", bmed, cmed, spread, worse
    if worse > entry["bound"]:
        return "regressed", bmed, cmed, spread, worse
    return "no worse", bmed, cmed, spread, worse


def failed_share(runs, workload):
    attempted = sum(r["attempted"] for r in runs if r["workload"] == workload)
    failed = sum(r["failed"] for r in runs if r["workload"] == workload)
    return failed / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bad = False
    print(f"{'workload':24} {'metric':18} {'parent':>12} {'change':>12} "
          f"{'worse':>8} {'spread':>7} {'bound':>6}  verdict")
    for w in [w["name"] for w in bench["workloads"]]:
        for entry in bench["end_to_end"]:
            b = values(base, w, entry["name"])
            c = values(change, w, entry["name"])
            if not b or not c:
                continue
            v, bmed, cmed, spread, worse = verdict(entry, b, c)
            bad |= v == "regressed"
            print(f"{w:24} {entry['name']:18} {bmed:12.6g} {cmed:12.6g} "
                  f"{worse:+8.2%} {spread:7.2%} {entry['bound']:6.0%}  {v}")
        fb, fc = failed_share(base, w), failed_share(change, w)
        if fc > fb:
            bad = True
            print(f"{w:24} failed ops rose from {fb:.3g} to {fc:.3g} of "
                  f"attempted")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
