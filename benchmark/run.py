#!/usr/bin/env python3
"""Build the benchmark and measure one workload.

    python3 benchmark/run.py --workload paper --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds benchmark/main.exe with dune (the
first build compiles the libraries it needs), runs it as one child
process on one OCaml domain, checks that its result line carries exactly
the metrics BENCHMARK.json names, with their units, and prints that line
last. Exits non-zero when the build fails, the child fails, or any run
failed its correctness check.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["paper", "scale", "flood", "faulty"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd in its own process group. On timeout, or when this script
    is stopped, kill the group and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} timed out after {timeout} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def fail(msg):
    sys.exit(f"benchmark: {msg}")


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./benchmark/main.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
        env=env,
    )
    if code != 0:
        fail("build failed")

    exe = os.path.join("_build", "default", "benchmark", "main.exe")
    code, out = run(
        [
            exe,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = out.splitlines()
    if not lines:
        fail(f"no output (exit {code})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result (exit {code})")

    with open("BENCHMARK.json") as f:
        catalog = json.load(f)["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in catalog}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        fail("result does not match BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
