#!/usr/bin/env python3
"""Build the project optimised and run one e2ebench workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
harness and acp_billboardd (Release) into the build directory
($CARGO_TARGET_DIR if set, else .bench_build), and later calls rebuild
incrementally. The harness's output passes through; its last line is the JSON
result. Build output goes to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = (
    "distill_1m_t2",
    "distill_eager_100k_t1",
    "distill_remote_1m_t2",
    "bbload_sharded_pipe16",
)


def build(root, build_dir):
    bench_dir = os.path.join(root, "e2ebench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no project sources next to e2ebench/ "
                 "(run from a full checkout)")
    cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2ebench",
                    "acp_billboardd", "-j", jobs],
                   check=True, stdout=sys.stderr)
    harness = os.path.join(build_dir, "e2ebench")
    daemon = os.path.join(build_dir, "acp", "tools", "acp_billboardd")
    for binary in (harness, daemon):
        if not os.access(binary, os.X_OK):
            sys.exit(f"e2ebench: build produced no {binary}")
    return harness, daemon


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="shrink the workload (self-test)")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        harness, daemon = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"e2ebench: build failed: {error}")

    # Unix socket paths are short; keep them relative to the checkout.
    socket_dir = os.path.relpath(build_dir, root)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--daemon", daemon, "--socket-dir", socket_dir]
    if args.toy:
        cmd.append("--toy")
    sys.stdout.flush()
    result = subprocess.run(cmd)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
