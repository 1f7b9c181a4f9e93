#!/usr/bin/env python3
"""Build and run the MC3 benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `mc3` binary (the server under
test) and the benchmark binary `mc3-perfbench` in release mode, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
binary. Its last stdout line is the JSON result; its exit code is passed
through. Build output goes to stderr.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solve-synthetic", "serve-private", "serve-shapes")
# The benchmark binary measures for --seconds plus a few seconds of set-up;
# anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "mc3-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        sys.exit("run.py: run from the root of an MC3 checkout (no Cargo.toml or crates/ here)")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "mc3-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--mc3", os.path.join(release, "mc3"),
    ]
    # The benchmark binary and the `mc3 serve` it spawns share a fresh process group,
    # so a hung run can be stopped as a whole.
    bench = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(bench)
        sys.exit(f"run.py: the benchmark did not finish within {RUN_TIMEOUT_S} s")
    except BaseException:
        stop_group(bench)
        raise
    sys.exit(code)


def stop_group(bench):
    try:
        os.killpg(bench.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    bench.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(bench.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
