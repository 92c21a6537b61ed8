#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload bulk-rw --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Everything the build and the run write
goes under .bench_build/ in that checkout: the Go build cache, temporary
files, the binary and the traced runs' span dumps. The binary's exit code
is passed through; a failed build exits non-zero without printing a
result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOTELEMETRY"] = "off"
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("run.py: no go.mod at %s; the benchmark builds the program from source\n" % ROOT)
        return 2
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH, env=go_env())
    if build.returncode != 0:
        sys.stderr.write("run.py: go build failed\n")
        return 2
    args = sys.argv[1:] + ["--out", os.path.join(BUILD, "traces")]
    try:
        return subprocess.run([BINARY] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
