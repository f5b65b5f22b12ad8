#!/usr/bin/env python3
"""Self-test of the benchmark on tiny datasets (about a minute with a warm build).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
  * every workload, untraced and traced, prints a last line with exactly the
    keys correct/attempted/failed/metrics, passes its checks, and reports
    every metric BENCHMARK.json names, each with the unit named there;
  * a deliberately corrupted copy of one result fails its check on every
    workload (correct false, failed > 0);
  * in a directory holding only BENCHMARK.json and perfbench/ (no library
    sources) the benchmark exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    threads = str(min(2, os.cpu_count() or 1))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []

    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{w} --trace {trace}"
            done = run(["--workload", w, "--seed", "3", "--seconds", "1", "--trace",
                        str(trace), "--threads", threads, "--smoke"])
            res = result_of(done) if done.returncode == 0 else None
            if res is None:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("failed") != 0 or \
                    res.get("attempted", 0) < 1:
                problems.append(f"{label}: correct={res.get('correct')} "
                                f"attempted={res.get('attempted')} failed={res.get('failed')}")
            metrics = res.get("metrics", {})
            if set(metrics) != set(expected[trace]):
                problems.append(f"{label}: missing {sorted(set(expected[trace]) - set(metrics))}"
                                f", unexpected {sorted(set(metrics) - set(expected[trace]))}")
            for name, unit in expected[trace].items():
                m = metrics.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append(f"{label}: {name} unit {m.get('unit')!r}, want {unit!r}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{label}: {name} value {v!r}")

        done = run(["--workload", w, "--seed", "3", "--seconds", "1", "--trace", "0",
                    "--threads", threads, "--smoke", "--corrupt"])
        res = result_of(done) if done.returncode == 0 else None
        if res is None or res["correct"] is not False or res["failed"] < 1:
            problems.append(f"{w} --corrupt: the corrupted result passed its check ({res})")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    done = run(["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                "--trace", "0", "--threads", threads], cwd=bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append("bare directory: the benchmark did not fail without library sources")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: OK" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
