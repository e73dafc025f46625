#!/usr/bin/env python3
"""Builds and runs the repository benchmark, checks correctness and prints
every metric by name and unit.

One run (the form BENCHMARK.json's command takes):
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
prints one "workload metric value unit" line per metric, then, as the last
line of stdout, {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.

A set of runs, for compare.py:
  python3 benchmark/run.py --out results.json [--seed 1] [--reps 3]
      [--workloads a,b] [--seconds S] [--trace-dir DIR]
--trace-dir also runs each workload once traced and writes
DIR/<workload>.trace.json (Chrome trace) and DIR/layers.json.

Alternating parent/change pairs, judged by compare.py:
  python3 benchmark/run.py --pairs 10 --baseline-rev <git rev> --out DIR

Decorator self-check:
  python3 benchmark/run.py --self-check

Every mode exits nonzero on any correctness failure. The build goes to
build-bench/ at the repository root.
"""
import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "sphinx_benchmark")
SLOW_RUN_S = 30


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def newest_source_mtime():
    newest = 0.0
    for top in ("src", "benchmark"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith((".cpp", ".h", ".txt")):
                    newest = max(newest,
                                 os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def build():
    """Builds the binary unless it is newer than every source file."""
    if (os.path.exists(BINARY) and
            os.path.getmtime(BINARY) >= newest_source_mtime()):
        return
    for cmd in (["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("benchmark build failed: " + " ".join(cmd))


def run_binary(args):
    """Runs the benchmark binary; returns its last stdout line as JSON."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stdout)
        sys.exit(f"sphinx_benchmark {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def worse_share(entry, base, value):
    """How much worse `value` is than `base`, as a share of `base`."""
    delta = (base - value) if entry["better"] == "higher" else (value - base)
    return delta / abs(base) if base else 0.0


def run_one(workload, seed, seconds, trace, trace_out=None):
    """One run with its correctness verdict and printed result."""
    bench = spec()
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    args = [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={1 if trace else 0}"]
    if trace_out:
        args.append(f"--trace-out={trace_out}")
    start = time.monotonic()
    raw = run_binary(args)
    wall = time.monotonic() - start
    errors = list(raw["errors"])
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        errors.append("metrics missing: " + ", ".join(missing))
    if trace:
        # Tracing must not move virtual time: the traced replay of the same
        # chunks has to match the untraced one within the end-to-end bounds.
        for entry in bench["end_to_end"]:
            name = entry["name"]
            if name in raw["untraced"]:
                base, got = raw["untraced"][name], raw["traced"][name]
                if abs(worse_share(entry, base, got)) > entry["bound"]:
                    errors.append(f"traced {name} {got} differs from "
                                  f"untraced {base} by more than its bound")
    metrics = {m["name"]: {"value": raw["metrics"][m["name"]],
                           "unit": m["unit"]}
               for m in wanted if m["name"] in raw["metrics"]}
    for name, m in metrics.items():
        n = raw["samples"].get(name)
        print(f"{workload} {name} {m['value']} {m['unit']}" +
              (f" (n={n})" if n is not None else ""))
    for e in errors:
        print(f"{workload} ERROR {e}")
    print(f"# {workload} seed {seed}: {wall:.1f} s wall" +
          (f"  WARNING: {SLOW_RUN_S} s or more" if wall >= SLOW_RUN_S else ""))
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "correct": not errors, "errors": errors,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "wall_s": wall, "metrics": metrics}


def run_set(args, workloads):
    start = time.monotonic()
    runs = [run_one(w, args.seed, args.seconds, False)
            for _ in range(args.reps) for w in workloads]
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        layers = {}
        for w in workloads:
            r = run_one(w, args.seed, args.seconds, True,
                        os.path.join(args.trace_dir, f"{w}.trace.json"))
            runs.append(r)
            layers[w] = {k: v["value"] for k, v in r["metrics"].items()}
        with open(os.path.join(args.trace_dir, "layers.json"), "w") as f:
            json.dump(layers, f, indent=1)
    print(f"# set of {len(runs)} runs: {time.monotonic() - start:.1f} s wall")
    return runs


def write_runs(path, runs):
    with open(path, "w") as f:
        json.dump({"runs": runs}, f, indent=1)


def baseline_tree(rev):
    """The library at `rev` with this checkout's benchmark on top, so both
    sides of a comparison run identical benchmark code."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", rev], check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    tree = os.path.join(BUILD, "baseline-" + sha[:12])
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", sha],
                                 check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
    shutil.rmtree(os.path.join(tree, "benchmark"), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "benchmark"),
                    os.path.join(tree, "benchmark"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    return tree


def run_pairs(args, workloads):
    trees = {"base": baseline_tree(args.baseline_rev), "change": ROOT}
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            for w in workloads:
                cmd = [sys.executable,
                       os.path.join(trees[side], "benchmark", "run.py"),
                       "--workload", w, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=sys.stderr, text=True)
                lines = proc.stdout.strip().splitlines()
                if not lines:
                    sys.exit(f"{side} run of {w} printed no result")
                result = json.loads(lines[-1])
                result.update(workload=w, seed=args.seed, pair=i)
                runs[side].append(result)
                log(f"pair {i} {side} {w}: correct={result['correct']}")
    os.makedirs(args.out, exist_ok=True)
    paths = {side: os.path.join(args.out, f"{side}.json") for side in runs}
    for side, path in paths.items():
        write_runs(path, runs[side])
    compare = os.path.join(ROOT, "benchmark", "compare.py")
    verdict = subprocess.run([sys.executable, compare, paths["base"],
                              paths["change"]])
    correct = all(r["correct"] for side in runs.values() for r in side)
    return 0 if correct and verdict.returncode == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--workloads")
    p.add_argument("--trace-dir")
    p.add_argument("--pairs", type=int)
    p.add_argument("--baseline-rev")
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in workloads + [args.workload or names[0]]
               if w not in names]
    if unknown:
        sys.exit(f"unknown workload(s) {unknown}; one of {names}")

    build()
    if args.self_check:
        result = run_binary(["--self-check"])
        print(json.dumps(result))
        return 0 if result["self_check"] else 1
    if args.workload:
        r = run_one(args.workload, args.seed, args.seconds, args.trace == 1)
        print(json.dumps({k: r[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if r["correct"] else 1
    if args.pairs:
        if not (args.baseline_rev and args.out):
            sys.exit("--pairs needs --baseline-rev and --out")
        return run_pairs(args, workloads)
    if not args.out:
        sys.exit("give --workload, --out, --pairs or --self-check")
    runs = run_set(args, workloads)
    write_runs(args.out, runs)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
