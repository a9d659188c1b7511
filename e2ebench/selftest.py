#!/usr/bin/env python3
"""Small-size self-test of the e2ebench harness.

    python3 e2ebench/selftest.py

Run from the repository root. Runs every workload of the harness (the ones
BENCHMARK.json gates and distill_eager_100k_t1) at toy size (a few thousand
players, a few hundred swarm commits) for one second, untraced and traced,
and asserts that every check passed, no operation failed, and exactly the
metrics BENCHMARK.json names were printed, with their units (end-to-end
metrics nonzero). Last, it runs the benchmark in a
directory holding only BENCHMARK.json and e2ebench/ and asserts that it
fails without printing a result. Exit status 0 means every assertion held.
"""
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import WORKLOADS  # noqa: E402


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run(cmd, cwd, timeout):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    gated = {workload["name"] for workload in bench["workloads"]}
    expect(gated <= set(WORKLOADS), "BENCHMARK.json names harness workloads")
    for workload in WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = run(bench["command"] + [
                "--workload", workload, "--seed", "5",
                "--seconds", "1", "--trace", trace, "--toy"], root, 900)
            expect(proc.returncode == 0, f"{label}: exit status 0")
            try:
                result = last_json(proc.stdout)
            except ValueError:
                result = None
            expect(isinstance(result, dict), f"{label}: last line is JSON")
            if not isinstance(result, dict):
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: result keys")
            expect(result.get("correct") is True, f"{label}: checks passed")
            expect(result.get("failed") == 0, f"{label}: no failed operation")
            expect(isinstance(result.get("attempted"), int)
                   and result["attempted"] >= 1, f"{label}: attempted >= 1")
            metrics = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in bench[group]}
            expect(set(metrics) == set(wanted),
                   f"{label}: exactly the {group} metrics")
            for name, unit in wanted.items():
                metric = metrics.get(name, {})
                expect(metric.get("unit") == unit
                       and isinstance(metric.get("value"), (int, float)),
                       f"{label}: {name} in {unit}")
                if group == "end_to_end":
                    expect(metric.get("value", 0) > 0,
                           f"{label}: {name} is nonzero")
                # Every metric is also printed by name with its unit.
                expect(any(line.startswith(f"{name} = ") and
                           line.endswith(f" {unit}")
                           for line in proc.stdout.splitlines()),
                       f"{label}: {name} printed")

    # A directory with only the benchmark's own files cannot build the
    # program: the run must fail and print no result.
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    bare = os.path.join(build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(bench["command"] + [
        "--workload", bench["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
        text=True, timeout=180, env=env)
    try:
        printed_result = last_json(proc.stdout) is not None
    except ValueError:
        printed_result = False
    expect(proc.returncode != 0 and not printed_result,
           "bare benchmark directory: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
