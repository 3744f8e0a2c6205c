#!/usr/bin/env python3
"""Build and run the engine-bound dhqp benchmark.

Run from the repository root:

    python3 enginebench/run.py --workload oltp_mix --seed 1 --seconds 30 --trace 0

Builds the `enginebench` binary in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), runs it with every `DHQP_*` variable removed from
its environment, echoes its output and exits with its status. The last line
of standard output is the run's JSON result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# One run is bounded at 180 s; leave room for process start and teardown.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DHQP_")}
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("enginebench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "enginebench")
    try:
        proc = subprocess.run([exe] + sys.argv[1:], stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"enginebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        print(f"enginebench: no JSON result line: {e}", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print(f"enginebench: result keys {sorted(result)}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
