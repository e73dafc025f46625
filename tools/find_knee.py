#!/usr/bin/env python3
"""Locate the saturation knee in a bench_ycsb --json worker sweep.

Usage: find_knee.py SWEEP.json [--threshold=1.05]

SWEEP.json comes from a bench_ycsb run with several worker counts
(--workers=6,12,24,...). Records are grouped into curves by (system,
dataset, workload, num_mns) -- the workload name carries the pipeline
depth as a ":pN" suffix -- and each curve is walked in worker order. The
knee is the FIRST worker count whose latency_stretch exceeds the
threshold (default 1.05, i.e. the busiest NIC is 5% past its unloaded
service capacity); curves that never cross report '-' with their top-end
stretch so "didn't knee" is distinguishable from "wasn't swept far
enough".

For each curve the table also reports, at the knee point (or the top
worker count if no knee):
  * peak ops/s over the whole curve,
  * which NIC gated (cnK / mnK, the argmax of the per-NIC utilizations),
  * mn_msg_balance, so a knee caused by placement skew (balance >> 1,
    one hot MN) is distinguishable at a glance from a balanced cluster
    running out of aggregate capacity (balance ~= 1, every MN hot).

Output is a GitHub-flavored markdown table on stdout, ready to paste into
EXPERIMENTS.md.

Exit status: 0 on success (even if no curve knees), 2 on usage/IO error.
"""
import json
import sys


def curve_key(rec):
    return (rec["system"], rec["dataset"], rec["workload"], rec["num_mns"])


def gating_nic(rec):
    """Name of the NIC holding the max per-NIC utilization."""
    best, best_u = "-", -1.0
    for i, u in enumerate(rec.get("cn_utilization", [])):
        if u > best_u:
            best, best_u = "cn%d" % i, u
    for i, u in enumerate(rec.get("mn_utilization", [])):
        if u > best_u:
            best, best_u = "mn%d" % i, u
    return best


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if len(args) != 1:
        sys.stderr.write(__doc__)
        return 2
    threshold = 1.05
    for o in opts:
        if o.startswith("--threshold="):
            threshold = float(o.split("=", 1)[1])
        else:
            sys.stderr.write("unknown option: %s\n" % o)
            return 2
    try:
        with open(args[0]) as f:
            records = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write("cannot load sweep file: %s\n" % e)
        return 2

    curves = {}
    for r in records:
        curves.setdefault(curve_key(r), []).append(r)

    rows = []
    for key in sorted(curves, key=lambda k: tuple(map(str, k))):
        pts = sorted(curves[key], key=lambda r: r["workers"])
        system, dataset, workload, num_mns = key
        peak_mops = max(p["ops_per_sec"] for p in pts) / 1e6
        knee = next((p for p in pts if p["latency_stretch"] > threshold),
                    None)
        at = knee if knee is not None else pts[-1]
        rows.append((
            system, dataset, workload,
            "%d" % num_mns,
            "%d" % knee["workers"] if knee is not None else "-",
            "%.2f" % at["latency_stretch"],
            "%.2f" % peak_mops,
            gating_nic(at),
            "%.2f" % at["mn_msg_balance"],
        ))

    header = ("system", "dataset", "workload", "mns", "knee@workers",
              "stretch", "peak-Mops", "gating-nic", "mn-balance")
    widths = [max(len(header[i]), max((len(r[i]) for r in rows), default=0))
              for i in range(len(header))]
    def fmt(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) \
            + " |"
    print(fmt(header))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        print(fmt(r))
    kneed = sum(1 for r in rows if r[4] != "-")
    sys.stderr.write("%d/%d curves knee past stretch %.2f\n"
                     % (kneed, len(rows), threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
