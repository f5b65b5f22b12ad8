#!/usr/bin/env python3
"""Build and run the host-time benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload allvsall-rs119 --seed 1 --seconds 20 --trace 0

The first run configures perfbench/ (which pulls in the repository's
top-level CMake project, so the library gets the flags users build it with)
into .bench_build/perfbench and builds only its perfbench_e2e target; later
runs reuse that build. The workload runs in one child process, perfbench_e2e,
whose standard output is passed through: its last line is the result JSON.
Each run also leaves a result file, with the host fingerprint and (when
traced) the spans, under .bench_build/results/.

Exit codes: 0 on a completed run, 1 if the build or the workload failed,
2 on bad arguments or a host that cannot run the configured thread count.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("allvsall-rs119", "sweep-ck34", "service-ck34")
WORKLOAD_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    for sub in ("", "src"):
        if not os.path.isfile(os.path.join(root, sub, "CMakeLists.txt")):
            fail(1, f"no repository sources under {root}; run from the repository root")
    binary = os.path.join(build_dir, "perfbench_e2e")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(1, f"build step failed: {' '.join(cmd)}")
    if not os.path.isfile(binary):
        fail(1, f"build produced no {binary}")
    return binary


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, help="input seed (default: --default-seed)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, required=True,
                   help="host threads T for PairCache::build and the service")
    p.add_argument("--default-seed", type=int, default=1,
                   help="seed used when --seed is not given")
    p.add_argument("--holdout-seed", type=int,
                   help="seed reserved for confirming claims; recorded, not used")
    p.add_argument("--smoke", action="store_true", help="tiny datasets, one pass")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt one result before its check (self-test)")
    args = p.parse_args()

    nproc = os.cpu_count() or 1
    if args.threads < 1 or args.threads > nproc:
        fail(2, f"--threads {args.threads} outside 1..{nproc} on this host")

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    out_dir = os.path.join(root, ".bench_build", "results")
    binary = build(root, build_dir)
    os.makedirs(out_dir, exist_ok=True)

    seed = args.default_seed if args.seed is None else args.seed
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--out", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")
    if args.holdout_seed is not None:
        print(f"holdout seed {args.holdout_seed} (reserved for confirming claims)")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"{args.workload} exceeded {WORKLOAD_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(1, f"{args.workload} exited with code {done.returncode}")


if __name__ == "__main__":
    main()
