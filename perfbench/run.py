#!/usr/bin/env python3
"""Host-time benchmark of the simulator.

Builds the simulator's libraries and the benchmark program from source
(Release, into $CARGO_TARGET_DIR or .bench_build at the repository
root), runs one workload and prints one JSON result line last on
stdout. See perfbench/README.md for the workloads and metrics.

  python3 perfbench/run.py --workload colo --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --workload all             # every workload
  python3 perfbench/run.py --steady 5                 # spread vs bounds
  python3 perfbench/run.py --steady 5 --workload colo # one workload
  python3 perfbench/run.py --regen-refs               # reference digests
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("colo", "fleet", "fleet-faults")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure and build; on failure exit non-zero, printing nothing
    on stdout."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            sys.exit(1)
    return os.path.join(bdir, "perfbench")


def host_facts():
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "hw_threads": os.cpu_count(),
             "compiler": "unknown", "build_type": "unknown",
             "git_sha": "unknown"}
    cache = os.path.join(build_dir(), "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"],
                                         capture_output=True, text=True)
                    facts["compiler"] = (out.stdout.splitlines() or
                                         [cxx])[0]
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    facts["build_type"] = line.split("=", 1)[1].strip()
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    if sha.returncode == 0:
        facts["git_sha"] = sha.stdout.strip()
    return facts


def run_bench(exe, workload, seed, seconds, trace):
    """Run one workload; returns (stdout text, parsed result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--refs", os.path.join(HERE, "refs")]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        sys.exit(1)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write("perfbench: benchmark exited %d\n" % out.returncode)
        sys.exit(1)
    return out.stdout, json.loads(lines[-1])


def steady(exe, reps, seconds, seed_base, workloads):
    """Repeat each workload with successive seeds and report each
    end-to-end metric's median, quartiles and spread against its
    bound in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"host": host_facts(), "seconds": seconds, "reps": reps,
              "workloads": {}}
    sys.stderr.write("host: %s\n" % json.dumps(report["host"]))
    ok = True
    for w in workloads:
        values = {}
        for i in range(reps):
            _, res = run_bench(exe, w, seed_base + i, seconds, 0)
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print("\n%s (%d runs)" % (w, reps))
        print("%-12s %12s %12s %12s %8s %6s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound",
            "/bound"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0.0)
            rows[name] = {"values": vals, "q1": q1, "median": med,
                          "q3": q3, "spread": spread, "bound": bound}
            print("%-12s %12.6g %12.6g %12.6g %8.4f %6.3f %6.2f" % (
                name, q1, med, q3, spread, bound,
                spread / bound if bound else float("inf")))
        report["workloads"][w] = rows
    path = os.path.join(build_dir(), "steady.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("\nwrote %s" % path)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="'all' runs every workload in turn (the "
                    "default with --steady)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="REPS",
                    help="repeat each workload REPS times")
    ap.add_argument("--regen-refs", action="store_true",
                    help="rewrite perfbench/refs from this build")
    args = ap.parse_args()

    exe = build()
    workloads = (WORKLOADS if args.workload in (None, "all") else
                 (args.workload,))
    if args.regen_refs:
        for w in WORKLOADS:
            cmd = [exe, "--workload", w, "--refs",
                   os.path.join(HERE, "refs"), "--write-refs"]
            if subprocess.run(cmd).returncode != 0:
                return 1
        return 0
    if args.steady is not None:
        if args.steady < 2:
            ap.error("--steady needs at least 2 repetitions")
        return steady(exe, args.steady, args.seconds, args.seed,
                      workloads)
    if not args.workload:
        ap.error("--workload is required")
    sys.stderr.write("host: %s\n" % json.dumps(host_facts()))
    for w in workloads:
        sys.stderr.write("\n== %s ==\n" % w)
        text, _ = run_bench(exe, w, args.seed, args.seconds,
                            args.trace)
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
