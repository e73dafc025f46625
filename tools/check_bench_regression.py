#!/usr/bin/env python3
"""Compare a bench_ycsb --json run against a committed seed.

Usage: check_bench_regression.py SEED.json CURRENT.json [--tolerance=0.05]
       check_bench_regression.py --clean FILE...

The --clean form checks bench_ycsb --json files on their own, with no seed:
every file must hold records, and every record must carry zero in every
loss counter listed below. The CI smokes whose runs may not lose work use
it, so the list lives only here. It accepts --workers and --mns sweeps,
whose records share (system, dataset, workload) keys.

The gate form compares one record per (system, dataset, workload) key: a
key that occurs twice in either file (a sweep run) is a usage error.

Checks, per (system, dataset, workload) record:
  * rtts_per_op within +/-tolerance (relative) of the seed. RTTs per op are
    a pure protocol property of the simulator -- independent of host speed
    and thread scheduling up to batching races -- so a drift beyond the
    tolerance means the protocol itself got chattier (or an accounting bug).
  * loss counters are zero: scan_subtree_skips, scan_leaf_drops,
    scan_truncated_ops, insert_failures, insert_overflow, remove_misses,
    alloc_failures, alloc_underflows, client_crashes. These count silently
    dropped, failed or substituted work (insert_overflow: inserts the
    bench's key pool could not serve, run as updates; client_crashes:
    workers killed mid-op) or accounting drift; CI runs fault-free with
    ample memory, where any nonzero value is a bug. lac_wrong_value is
    also checked: a leaf-address-cache speculative read that returned a
    wrong value past validation is a correctness bug in ANY run, faulted
    or not.
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

Exit status: 0 clean, 1 any check failed, 2 usage/IO error or a duplicate
gate key.
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
    "client_crashes",
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


def load_keyed(path):
    """The records of one gate file keyed by (system, dataset, workload);
    None, with a diagnostic, when two records share a key."""
    with open(path) as f:
        recs = json.load(f)
    keyed = {}
    for r in recs:
        if key(r) in keyed:
            sys.stderr.write("%s: two records for %s/%s/%s; the gate "
                             "compares one per key (use --clean for "
                             "--workers or --mns sweeps)\n"
                             % ((path,) + key(r)))
            return None
        keyed[key(r)] = r
    return keyed


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if "--clean" in opts:
        if len(opts) != 1 or not args:
            sys.stderr.write(__doc__)
            return 2
        return check_clean(args)
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
        seed = load_keyed(args[0])
        cur = load_keyed(args[1])
    except (OSError, ValueError) as e:
        sys.stderr.write("cannot load inputs: %s\n" % e)
        return 2
    if seed is None or cur is None:
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
