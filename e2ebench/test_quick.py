#!/usr/bin/env python3
"""Quick self-test of the end-to-end benchmark (about a minute).

    python3 e2ebench/test_quick.py

At tiny scale factors (--quick) it checks that
  1. every workload, untraced and traced, prints a correct result whose
     metrics are exactly the BENCHMARK.json catalog for that mode, each
     with the catalog's unit;
  2. a deliberately corrupted reference digest (--corrupt-reference) is
     reported as a failure: nonzero exit, "correct": false, failures > 0,
     and the failing queries named on stderr;
  3. BENCHMARK.json equals the manifest the binary generates from its
     metric catalog.
"""

import json
import os
import subprocess
import sys
import tempfile

import run

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def invoke(binary, state, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--quick", "--state-dir", state] + list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or "correct" not in result:
        result = None
    return p, result


def main():
    binary = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    generated = json.loads(
        subprocess.run([binary, "--manifest"], capture_output=True, text=True,
                       check=True).stdout)
    check(generated == manifest, "BENCHMARK.json matches the binary's catalog")

    os.makedirs(os.path.join(run.ROOT, ".bench_build"), exist_ok=True)
    with tempfile.TemporaryDirectory(
            dir=os.path.join(run.ROOT, ".bench_build")) as state:
        for w in manifest["workloads"]:
            name = w["name"]
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                p, result = invoke(binary, state, name, trace)
                tag = "%s trace=%d" % (name, trace)
                check(p.returncode == 0 and result is not None,
                      tag + " exits 0 with a result line")
                if result is None:
                    print(p.stderr[-2000:])
                    continue
                check(sorted(result) ==
                      ["attempted", "correct", "failed", "metrics"],
                      tag + " result has exactly the four keys")
                check(result["correct"] is True and result["failed"] == 0
                      and result["attempted"] > 0,
                      tag + " is correct with no failures")
                want = {m["name"]: m["unit"] for m in manifest[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want, tag + " emits every %s metric with its "
                      "unit" % key)

            p, result = invoke(binary, state, name, 0, "--corrupt-reference")
            tag = name + " corrupted reference"
            check(p.returncode == 1, tag + " exits 1")
            check(result is not None and result["correct"] is False
                  and result["failed"] > 0,
                  tag + " reports correct=false with failures")
            check("FAIL " in p.stderr and "reference" in p.stderr,
                  tag + " names the failing queries")

    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
