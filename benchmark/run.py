#!/usr/bin/env python3
"""Repository benchmark for nocmap: builds benchmark/nocmap_bench out of tree
(Release, library tests/benches/examples off) and runs its workloads, each in
its own process.

  python3 benchmark/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--repeat K]
  python3 benchmark/run.py --smoke        every workload briefly + one traced nmap-tight pass
  python3 benchmark/run.py --self-test    helper checks, corrupted outputs, failing run
  python3 benchmark/run.py calibrate      print the tight bandwidths (never measured)
  python3 benchmark/run.py compare A B [--pairs N]

Every metric prints as `workload metric value unit n=samples`; the last line of
standard output is one JSON object (correct, attempted, failed, metrics). All
runs are written to bench-out/results.json. The exit status is non-zero when
any output fails validation. See benchmark/README.md for the metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "bench-out"
CONFIG = HERE / "workloads.json"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds nocmap_bench; returns the binary path."""
    bdir = build_dir()
    OUT.mkdir(exist_ok=True)
    log = OUT / "build.log"
    cache = bdir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        # A build tree configured for another checkout; start over.
        subprocess.run(["cmake", "-E", "rm", "-rf", str(bdir)], check=False)
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "nocmap_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (see {log})")
    return bdir / "nocmap_bench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"  # not a git checkout (never borrow an enclosing repository's SHA)
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload in its own process; returns its result document."""
    tag = f"{workload}-s{seed}-t{int(trace)}"
    out = OUT / f"{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [str(binary), "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--config", str(CONFIG), "--out", str(out),
           "--git-sha", git_sha(), *extra]
    if trace:
        cmd += ["--trace-out", str(OUT / "trace.json")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{tag} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.exists():
        fail(f"{tag} exited with status {proc.returncode}")
    return json.loads(out.read_text())


def check_metrics(doc, spec):
    """The run's metrics as {name: entry}, in BENCHMARK.json order; every
    listed metric must be present with a finite value."""
    wanted = spec["per_layer"] if doc["trace"] else spec["end_to_end"]
    have = {m["name"]: m for m in doc["metrics"]}
    metrics = {}
    for entry in wanted:
        m = have.get(entry["name"])
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            fail(f"{doc['workload']}: metric {entry['name']} missing or not finite")
        metrics[entry["name"]] = m
    return metrics


def print_run(doc, metrics):
    for name, m in metrics.items():
        print(f"{doc['workload']} {name} {m['value']:.6g} {m['unit']} n={m['n']}")
    for m in doc["extra"]:
        print(f"# {doc['workload']} {m['name']} {m['value']:.6g} {m['unit']} n={m['n']}", file=sys.stderr)
    for message in doc["failures"]:
        print(f"# {doc['workload']} FAILED: {message}", file=sys.stderr)


def run_workloads(binary, workloads, seed, seconds, trace, repeat=1, extra=()):
    spec = benchmark_spec()
    runs = []
    for _ in range(repeat):
        for workload in workloads:
            doc = run_one(binary, workload, seed, seconds, trace, extra)
            doc["metrics_by_name"] = check_metrics(doc, spec)
            print_run(doc, doc["metrics_by_name"])
            runs.append(doc)
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    correct = all(r["correct"] for r in runs)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {},
    }
    for r in runs:
        prefix = "" if len(runs) == 1 else f"{r['workload']}."
        for name, m in r["metrics_by_name"].items():
            summary["metrics"][prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps(summary))
    return 0 if correct else 1


# ---------------------------------------------------------------- compare

def load_runs(path):
    runs = json.loads(Path(path).read_text())["runs"]
    by_workload = {}
    for r in runs:
        if not r["trace"]:
            by_workload.setdefault(r["workload"], []).append(r["metrics_by_name"])
    return by_workload


def verdict(a, b, better, bound):
    """choosing-metrics sections 6-8: a = parent runs, b = change runs."""
    lower = better == "lower"
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    pairs = min(len(a), len(b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    q_a = statistics.quantiles(a, n=4) if len(a) > 1 else [med_a] * 3
    q_b = statistics.quantiles(b, n=4) if len(b) > 1 else [med_b] * 3
    spread = q_a[2] - q_a[0]
    worse_by = ((med_b - med_a) if lower else (med_a - med_b)) / abs(med_a) if med_a else 0.0
    all_better = all((y < x if lower else y > x) for x in a for y in b)
    if pairs and wins >= 0.9 * pairs and abs(med_b - med_a) > spread and worse_by < 0:
        v = "better"
    elif med_a and spread / abs(med_a) > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "within bound"
    return med_a, q_a, med_b, q_b, wins, pairs, v


def run_pairs(dir_a, dir_b, pairs, workloads, seed, seconds):
    """Runs `pairs` alternating pairs of two checkouts' benchmarks."""
    results = {dir_a: [], dir_b: []}
    for i in range(pairs):
        order = (dir_a, dir_b) if i % 2 == 0 else (dir_b, dir_a)
        for d in order:
            for w in workloads:
                proc = subprocess.run([sys.executable, str(Path(d) / "benchmark" / "run.py"), "--workload", w,
                                       "--seed", str(seed), "--seconds", str(seconds)], cwd=d,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr[-4000:])
                    fail(f"run of {w} in {d} failed")
                results[d] += json.loads((Path(d) / "bench-out" / "results.json").read_text())["runs"]
    paths = []
    for side, d in (("A", dir_a), ("B", dir_b)):
        path = OUT / f"compare-{side}.json"
        path.write_text(json.dumps({"runs": results[d]}, indent=1) + "\n")
        paths.append(path)
    return paths


def compare(args):
    a, b = args.a, args.b
    if Path(a).is_dir() and Path(b).is_dir():
        OUT.mkdir(exist_ok=True)
        workloads = [args.workload] if args.workload else [w["name"] for w in benchmark_spec()["workloads"]]
        a, b = run_pairs(a, b, args.pairs or 10, workloads, args.seed,
                         args.seconds or benchmark_spec()["run_seconds"])
    runs_a, runs_b = load_runs(a), load_runs(b)
    print(f"{'workload':<12} {'metric':<24} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'wins':>7}  verdict")
    for metric in benchmark_spec()["end_to_end"]:
        for workload in runs_a:
            if workload not in runs_b:
                continue
            xa = [r[metric["name"]]["value"] for r in runs_a[workload]]
            xb = [r[metric["name"]]["value"] for r in runs_b[workload]]
            if args.pairs:
                xa, xb = xa[:args.pairs], xb[:args.pairs]
            med_a, q_a, med_b, q_b, wins, pairs, v = verdict(xa, xb, metric["better"], metric["bound"])
            side_a = f"{med_a:.6g} [{q_a[0]:.4g}, {q_a[2]:.4g}]"
            side_b = f"{med_b:.6g} [{q_b[0]:.4g}, {q_b[2]:.4g}]"
            print(f"{workload:<12} {metric['name']:<24} {side_a:>34} {side_b:>34} {wins:>3}/{pairs:<3}  {v}")
    return 0


# ------------------------------------------------------------ smoke, tests

def smoke(binary):
    workloads = [w["name"] for w in benchmark_spec()["workloads"]]
    status = run_workloads(binary, workloads, 1, 2, False)
    return status or run_workloads(binary, ["nmap-tight"], 1, 2, True)


def self_test(binary):
    status = subprocess.run([str(binary), "self-test", "--config", str(CONFIG)]).returncode
    print("self-test: helper and validator checks", "passed" if status == 0 else "FAILED")
    # A corrupted output must make a real run exit non-zero.
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", "nmap-tight",
                           "--seconds", "1", "--corrupt"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    rejected = proc.returncode != 0 and '"correct": false' in proc.stdout
    print("self-test: corrupted nmap-tight result", "rejected (exit %d)" % proc.returncode if rejected
          else "NOT rejected")
    return 0 if status == 0 and rejected else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", help="results JSON of the parent, or its checkout directory")
        p.add_argument("b", help="results JSON of the change, or its checkout directory")
        p.add_argument("--pairs", type=int, default=0)
        p.add_argument("--workload")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=0)
        return compare(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "calibrate":
        return subprocess.run([str(build()), "calibrate", "--config", str(CONFIG)]).returncode

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="one workload (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="measurement length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"],
                   help="per-layer traced run instead of the timed run")
    p.add_argument("--repeat", type=int, default=1, help="run each workload this many times")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()

    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(names)})")
    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.smoke:
        return smoke(binary)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    return run_workloads(binary, [args.workload] if args.workload else names, args.seed, seconds,
                         args.trace == "1", args.repeat, ["--corrupt"] if args.corrupt else [])


if __name__ == "__main__":
    sys.exit(main())
