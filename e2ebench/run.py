#!/usr/bin/env python3
"""Builds the engine and the benchmark binary from source, then runs one
workload of the end-to-end benchmark.

    python3 e2ebench/run.py --workload tpch_mem --seed 1 --seconds 20 --trace 0

Workloads: tpch_mem, tpch_spill, fleet. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}; build output
goes to stderr. The build tree and the benchmark's working state live in
.bench_build/ at the repository root. Extra flags (--quick,
--corrupt-reference, --manifest) are passed to the binary; see
e2ebench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
STATE_DIR = os.path.join(ROOT, ".bench_build", "e2ebench-state")


def source_hash():
    """SHA-256 over the engine sources and the benchmark's own sources."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: engine sources (src/) not found next to e2ebench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("e2ebench: build failed")
    return os.path.join(BUILD_DIR, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args, extra = parser.parse_known_args()
    binary = build()
    if "--manifest" in extra:
        sys.exit(subprocess.run([binary, "--manifest"]).returncode)
    if not args.workload:
        parser.error("--workload is required")
    os.makedirs(STATE_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--state-dir", STATE_DIR, "--source-hash", source_hash(),
           "--git-sha", git_sha()] + extra
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
