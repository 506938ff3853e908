#!/usr/bin/env python3
"""Builds and runs the rstlab benchmark.

    python3 rstbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--smoke]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) inside the checkout, and so do tape files and span logs.
Build output goes to stderr; the last line of stdout is the result JSON.
Exits non-zero without a result when the rstlab sources are missing, the
build fails, or any output is wrong.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("decide-outofcore", "query-inmemory", "serve-mixed")


def fail(message):
    print(f"rstbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_describe(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    described = subprocess.run(
        ["git", "-C", root, "describe", "--always", "--dirty", "--tags"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return described.stdout.strip() or "none"


def build(root, build_dir):
    source = os.path.join(root, "rstbench")
    tree = os.path.join(build_dir, "rstbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", source, "-B", tree,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", tree, "--target", "rstbench",
                    "--parallel", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(tree, "rstbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own test")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no rstlab sources under {root}/src")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    scratch = os.path.join(build_dir, "run")
    spans = os.path.join(build_dir, "spans")
    os.makedirs(spans, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scratch-dir", scratch,
               "--spans-out",
               os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl"),
               "--git-describe", git_describe(root)]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    os.execv(binary, command)


if __name__ == "__main__":
    main()
