#!/usr/bin/env python3
"""Compare a bench_ycsb --json run against a committed seed.

Usage: check_bench_regression.py SEED.json CURRENT.json [--tolerance=0.05]
       check_bench_regression.py --knee-schema=KNEE.json
       check_bench_regression.py --clean FILE...

The --clean form checks bench_ycsb --json files on their own, with no seed:
every file must hold records, and every record must carry zero in every
loss counter listed below. The CI smokes whose runs may not lose work use
it, so the list lives only here.

The --knee-schema form validates a bench_scalability --json knee-curve file
instead of diffing two runs: every record must carry the full knee schema
(identity fields, throughput, the dual latency views, per-NIC utilization
vectors sized to the cluster, balance ratio, loss counters), the
utilization vectors must be internally consistent (nic_utilization is
their max; latency_stretch = max(1, nic_utilization); mn_msg_balance in
[1, num_mns]), and no two records may share a curve point. It does NOT
require loss counters to be zero -- sweeps are allowed to drive systems
into degraded regimes on purpose; CI asserts zero losses separately on
its own smoke sweep.

Checks, per (system, dataset, workload) record:
  * rtts_per_op within +/-tolerance (relative) of the seed. RTTs per op are
    a pure protocol property of the simulator -- independent of host speed
    and thread scheduling up to batching races -- so a drift beyond the
    tolerance means the protocol itself got chattier (or an accounting bug).
  * loss counters are zero: scan_subtree_skips, scan_leaf_drops,
    scan_truncated_ops, insert_failures, insert_overflow, remove_misses,
    alloc_failures, alloc_underflows. These count silently dropped, failed
    or substituted work (insert_overflow: inserts the bench's key pool
    could not serve, run as updates) or accounting drift; CI runs
    fault-free with ample memory, where any nonzero value is a bug. lac_wrong_value is also checked: a
    leaf-address-cache speculative read that returned a wrong value past
    validation is a correctness bug in ANY run, faulted or not.
  * churn rows (workload CHURN, any :pN suffix) actually exercise the
    reclamation pipeline: reclaimed_blocks > 0, and the quarantine drains.
    Sphinx churn rows must also report insert_walk_locks > 0: inserts that
    locked their start node in the start walk's own read (DESIGN.md Sec.
    16). Zero means that fast path went inert and every insert paid the
    start read again.
    retired_bytes_outstanding is a cluster-wide gauge sampled at phase
    end (it includes not-yet-ripe blocks retired by earlier workloads on
    the same cluster, e.g. YCSB-F's out-of-place RMW), so it is bounded
    against the cluster's cumulative retired_bytes_total -- the sum over
    every record sharing (system, dataset) -- not the row's own delta,
    above an absolute floor sized for the coarse-epoch tail a short
    batched phase legitimately leaves unripe. A stuck epoch shows up as
    reclaimed_blocks == 0 at CI scale and trips the byte bound on longer
    runs.
  * phase attribution sums exactly to round_trips (when phase_rtts present).
  * every seed record still exists in the current run (a missing system or
    workload is a silent coverage loss, not a pass).
  * pipelined rows (workload suffixed ":pN") hold their wins against the
    same run's serial sibling: rtts_per_op must not exceed the sibling's
    by more than the tolerance (fusion can only merge round trips, never
    add them; CHURN is exempt -- mutation conflicts, and so CAS-retry
    round trips, depend on batch interleaving), and Sphinx YCSB-C at
    depth >= 8 must keep >= 2x the
    sibling's ops_per_sec -- the pipelining acceptance bar, locked in so
    the batch engine can't silently degrade to the serial loop.

Exit status: 0 clean, 1 any check failed, 2 usage/IO error.
"""
import json
import sys


def key(rec):
    return (rec["system"], rec["dataset"], rec["workload"])


LOSS_COUNTERS = (
    "scan_subtree_skips",
    "scan_leaf_drops",
    "scan_truncated_ops",
    "insert_failures",
    "insert_overflow",
    "remove_misses",
    "alloc_failures",
    "alloc_underflows",
    "lac_wrong_value",
)


def loss_failures(rec):
    """One failure line per nonzero loss counter of a bench_ycsb record."""
    return ["%s/%s/%s: %s = %d (must be 0)"
            % (key(rec) + (counter, rec[counter]))
            for counter in LOSS_COUNTERS if rec.get(counter, 0) != 0]


def check_clean(paths):
    failures = []
    records = 0
    for path in paths:
        try:
            with open(path) as f:
                recs = json.load(f)
        except (OSError, ValueError) as e:
            sys.stderr.write("cannot load %s: %s\n" % (path, e))
            return 2
        if not isinstance(recs, list) or not recs:
            failures.append("%s: no benchmark records" % path)
            continue
        records += len(recs)
        failures += ["%s: %s" % (path, f) for r in recs
                     for f in loss_failures(r)]
    if failures:
        sys.stderr.write("loss counter check FAILED:\n")
        for f in failures:
            sys.stderr.write("  " + f + "\n")
        return 1
    print("loss counter check passed: %d records in %d file(s), all zero"
          % (records, len(paths)))
    return 0


# Knee-curve record schema (bench_scalability --json): field -> required
# type(s). Vectors are checked for length against num_cns / num_mns below.
KNEE_FIELDS = {
    "system": str,
    "dataset": str,
    "workload": str,
    "num_cns": int,
    "num_mns": int,
    "vnodes_per_mn": int,
    "pipeline_depth": int,
    "workers": int,
    "total_ops": int,
    "ops_per_sec": (int, float),
    "mean_latency_ns": (int, float),
    "mean_unloaded_latency_ns": (int, float),
    "p50_effective_ns": (int, float),
    "p99_effective_ns": (int, float),
    "p50_unloaded_ns": (int, float),
    "p99_unloaded_ns": (int, float),
    "latency_stretch": (int, float),
    "nic_utilization": (int, float),
    "cn_utilization": list,
    "mn_utilization": list,
    "mn_msg_balance": (int, float),
    "rtts_per_op": (int, float),
    "read_bytes_per_op": (int, float),
    "misses": int,
    "insert_failures": int,
    "insert_overflow": int,
    "alloc_failures": int,
    "alloc_underflows": int,
    "client_crashes": int,
}


def check_knee_schema(path):
    try:
        with open(path) as f:
            records = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write("cannot load knee file: %s\n" % e)
        return 2
    if not isinstance(records, list) or not records:
        sys.stderr.write("%s: expected a non-empty JSON array\n" % path)
        return 1
    failures = []
    seen = set()
    for i, r in enumerate(records):
        where = "record %d" % i
        if not isinstance(r, dict):
            failures.append("%s: not an object" % where)
            continue
        bad = False
        for field, types in KNEE_FIELDS.items():
            if field not in r:
                failures.append("%s: missing field '%s'" % (where, field))
                bad = True
            elif not isinstance(r[field], types):
                failures.append("%s: field '%s' has type %s" %
                                (where, field, type(r[field]).__name__))
                bad = True
        if bad:
            continue
        where = "%s/%s/%s mns=%d workers=%d" % (
            r["system"], r["dataset"], r["workload"], r["num_mns"],
            r["workers"])
        point = (r["system"], r["dataset"], r["workload"], r["num_cns"],
                 r["num_mns"], r["vnodes_per_mn"], r["pipeline_depth"],
                 r["workers"])
        if point in seen:
            failures.append("%s: duplicate curve point" % where)
        seen.add(point)
        cn, mn = r["cn_utilization"], r["mn_utilization"]
        if len(cn) != r["num_cns"]:
            failures.append("%s: cn_utilization has %d entries, num_cns=%d"
                            % (where, len(cn), r["num_cns"]))
        if len(mn) != r["num_mns"]:
            failures.append("%s: mn_utilization has %d entries, num_mns=%d"
                            % (where, len(mn), r["num_mns"]))
        utils = [u for u in cn + mn if isinstance(u, (int, float))]
        if len(utils) != len(cn) + len(mn) or any(u < 0 for u in utils):
            failures.append("%s: utilization vectors must hold non-negative "
                            "numbers" % where)
            continue
        if utils and abs(r["nic_utilization"] - max(utils)) > \
                1e-6 * max(1.0, max(utils)):
            failures.append(
                "%s: nic_utilization=%.6f != max(per-NIC)=%.6f"
                % (where, r["nic_utilization"], max(utils)))
        want_stretch = max(1.0, r["nic_utilization"])
        if abs(r["latency_stretch"] - want_stretch) > 1e-6 * want_stretch:
            failures.append(
                "%s: latency_stretch=%.6f != max(1, nic_utilization)=%.6f"
                % (where, r["latency_stretch"], want_stretch))
        if not (1.0 - 1e-9 <= r["mn_msg_balance"] <= r["num_mns"] + 1e-9):
            failures.append("%s: mn_msg_balance=%.4f outside [1, num_mns=%d]"
                            % (where, r["mn_msg_balance"], r["num_mns"]))
        if r["workers"] <= 0 or r["total_ops"] <= 0 or r["ops_per_sec"] <= 0:
            failures.append("%s: non-positive workers/total_ops/ops_per_sec"
                            % where)
        if r["p99_effective_ns"] < r["p50_effective_ns"]:
            failures.append("%s: p99_effective < p50_effective" % where)
    if failures:
        sys.stderr.write("knee schema check FAILED:\n")
        for f in failures:
            sys.stderr.write("  " + f + "\n")
        return 1
    print("knee schema check passed: %d records, %d curve points"
          % (len(records), len(seen)))
    return 0


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if "--clean" in opts:
        if len(opts) != 1 or not args:
            sys.stderr.write(__doc__)
            return 2
        return check_clean(args)
    for o in opts:
        if o.startswith("--knee-schema="):
            if args or len(opts) != 1:
                sys.stderr.write(__doc__)
                return 2
            return check_knee_schema(o.split("=", 1)[1])
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    tolerance = 0.05
    for o in opts:
        if o.startswith("--tolerance="):
            tolerance = float(o.split("=", 1)[1])
        else:
            sys.stderr.write("unknown option: %s\n" % o)
            return 2
    try:
        with open(args[0]) as f:
            seed = {key(r): r for r in json.load(f)}
        with open(args[1]) as f:
            cur = {key(r): r for r in json.load(f)}
    except (OSError, ValueError) as e:
        sys.stderr.write("cannot load inputs: %s\n" % e)
        return 2

    # One bench cluster serves every workload/depth of a (system, dataset)
    # pair, so the drain bound for the outstanding-bytes *gauge* is the
    # cluster's cumulative retired bytes, not any single row's delta.
    cluster_retired = {}
    for k, c in cur.items():
        ck = (k[0], k[1])
        cluster_retired[ck] = (cluster_retired.get(ck, 0) +
                               c.get("retired_bytes_total", 0))

    failures = []
    for k, s in sorted(seed.items()):
        c = cur.get(k)
        if c is None:
            failures.append("%s/%s/%s: missing from current run" % k)
            continue
        base = s["rtts_per_op"]
        now = c["rtts_per_op"]
        if base > 0 and abs(now - base) / base > tolerance:
            failures.append(
                "%s/%s/%s: rtts_per_op %.4f -> %.4f (%+.1f%%, tolerance %.0f%%)"
                % (k + (base, now, 100.0 * (now - base) / base,
                        100.0 * tolerance)))

    for k, c in sorted(cur.items()):
        failures += loss_failures(c)
        wl = k[2]
        if wl.split(":p")[0] == "CHURN":
            if c.get("reclaimed_blocks", 0) == 0:
                failures.append(
                    "%s/%s/%s: churn run recycled no blocks "
                    "(reclamation pipeline inert)" % k)
            if k[0] == "Sphinx" and c.get("insert_walk_locks", 0) == 0:
                failures.append(
                    "%s/%s/%s: no insert took a walk lock "
                    "(insert walk-lock fast path inert)" % k)
            total = cluster_retired.get((k[0], k[1]), 0)
            outstanding = c.get("retired_bytes_outstanding", 0)
            # The absolute floor covers the healthy not-yet-ripe tail: a
            # block ripens stamp+2 epochs after retirement, an epoch can
            # only advance when every pinned client re-pins, and a depth-8
            # batch pins for 8 ops at a time -- so a short CI phase sees
            # few, coarse epochs and legitimately ends with the last
            # couple of epochs' retires (up to ~100s of KiB) still
            # quarantined. At this scale a truly stuck epoch is caught by
            # the reclaimed_blocks==0 check above; the byte bound arms on
            # longer runs, where the tail stays put while cumulative
            # retirement grows past the floor.
            if total > 0 and outstanding * 2 > total and outstanding > 262144:
                failures.append(
                    "%s/%s/%s: retired_bytes_outstanding=%d > half of "
                    "cluster cumulative retired_bytes_total=%d "
                    "(quarantine not draining)" % (k + (outstanding, total)))
        phases = c.get("phase_rtts")
        if phases is not None and "round_trips" in c:
            total = sum(phases.values())
            if total != c["round_trips"]:
                failures.append(
                    "%s/%s/%s: sum(phase_rtts)=%d != round_trips=%d"
                    % (k + (total, c["round_trips"])))
        # Pipelined-row rules, against the serial sibling in the SAME run
        # (so host-speed drift cancels out).
        system, dataset, workload = k
        if ":p" not in workload:
            continue
        base_wl, _, depth_str = workload.rpartition(":p")
        try:
            depth = int(depth_str)
        except ValueError:
            continue
        sib = cur.get((system, dataset, base_wl))
        if sib is None:
            failures.append(
                "%s/%s/%s: no depth-1 sibling record to compare against" % k)
            continue
        # CHURN is exempt from the fusion-can-only-merge bound: it is
        # mutation-dominated (nothing fuses) and batch submission changes
        # the conflict interleaving, so CAS-retry round trips legitimately
        # differ from the serial sibling's. Its rtts_per_op is still
        # pinned against the seed by the tolerance check above.
        if base_wl != "CHURN" and sib["rtts_per_op"] > 0 and (
                c["rtts_per_op"] >
                sib["rtts_per_op"] * (1.0 + tolerance)):
            failures.append(
                "%s/%s/%s: pipelined rtts_per_op %.4f exceeds serial %.4f"
                % (k + (c["rtts_per_op"], sib["rtts_per_op"])))
        if (system == "Sphinx" and base_wl == "YCSB-C" and depth >= 8
                and c["ops_per_sec"] < 2.0 * sib["ops_per_sec"]):
            failures.append(
                "%s/%s/%s: pipelined ops_per_sec %.0f < 2x serial %.0f"
                % (k + (c["ops_per_sec"], sib["ops_per_sec"])))

    if failures:
        sys.stderr.write("bench regression check FAILED:\n")
        for f in failures:
            sys.stderr.write("  " + f + "\n")
        return 1
    print("bench regression check passed: %d records within %.0f%%"
          % (len(seed), 100.0 * tolerance))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
