#!/usr/bin/env python3
"""Build and run the MBA-Solver pipeline benchmark.

Builds the library targets of ../src together with the benchmark driver
(perfbench/CMakeLists.txt) into .bench_build/ at the repository root, then
runs one workload and passes its output through. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Build logs go to standard error.

    python3 perfbench/run.py --workload paper-pipeline --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --emit-opaque --seed=20210620 \\
        > perfbench/inputs/opaque_synth.tsv

Workloads: paper-pipeline, table6-blast, opaque-synth (see README.md).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper-pipeline", "table6-blast", "opaque-synth")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources next to perfbench/ (expected ../src)")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--emit-opaque", action="store_true")
    args = ap.parse_args()

    if not (args.workload or args.selftest or args.emit_opaque):
        ap.error("one of --workload, --selftest or --emit-opaque is required")
    binary = build()
    inputs = os.path.join(HERE, "inputs")
    if args.emit_opaque:
        cmd = ["--emit-opaque", "--seed=%d" % args.seed]
    elif args.selftest:
        cmd = ["--selftest", "--input-dir", inputs]
    else:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--input-dir", inputs,
               "--trace-out", os.path.join(
                   trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]

    env = dict(os.environ)
    # The synthesizer's 3-variable basis table, as the root build bakes in.
    table = os.path.join(ROOT, "data", "basis3.tbl")
    if os.path.isfile(table):
        env["MBA_BASIS3_TABLE"] = table
    proc = subprocess.run([binary] + cmd, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
