#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload t1-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run it from the root of the repository. It builds the Go benchmark in
this directory from source into .bench_build/ (the build cache, module
cache and Go's own settings stay there too, so nothing outside the
checkout is read or written), then runs the chosen workload in a fresh
process. `--workload all` runs every workload named in BENCHMARK.json,
each in its own process, and ends with one JSON line that merges their
results under "<workload>/<metric>" names. Every other argument goes to
the benchmark unchanged; see README.md.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

BUILD_TIMEOUT_S = 850  # a first build compiles the standard library too
RUN_TIMEOUT_S = 175  # one run must end within 180 s


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    return env


def build():
    go = shutil.which("go")
    if go is None:
        sys.exit("run.py: the go toolchain is not on PATH")
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        r = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    if r.returncode != 0:
        sys.exit("run.py: build failed (run from the repository root, next to go.mod)")


def run_one(args):
    """Runs the benchmark once; returns (exit code, its stdout)."""
    try:
        r = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1, ""
    return r.returncode, r.stdout


def workload_arg(args):
    for i, a in enumerate(args):
        if a in ("--workload", "-workload") and i + 1 < len(args):
            return i + 1
        if a.startswith("--workload=") or a.startswith("-workload="):
            return i
    return None


def run_all(args, at):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        a = list(args)
        a[at] = name if a[at] == "all" else "--workload=" + name
        code, out = run_one(a)
        sys.stdout.write(out)
        worst = worst or code
        lines = out.strip().splitlines()
        if code != 0 and not lines:
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][name + "/" + k] = v
    print(json.dumps(merged, sort_keys=True))
    return worst


def main():
    args = sys.argv[1:]
    build()
    at = workload_arg(args)
    if at is not None and args[at] in ("all", "--workload=all", "-workload=all"):
        return run_all(args, at)
    code, out = run_one(args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
