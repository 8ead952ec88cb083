#!/usr/bin/env python3
"""Self-tests for the benchmark.

    python3 perfbench/selftest.py

Runs the package's unit tests (open-loop timing from the scheduled send,
failure counting, span attribution, seeded inputs), then a tiny pass of
every workload, untraced and traced, and checks that each prints every
metric BENCHMARK.json names, with its unit, and counts its operations.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("selftest: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    env = {k: v for k, v in os.environ.items() if not k.startswith("OA_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    unit = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                           "--manifest-path", os.path.join(HERE, "Cargo.toml")],
                          cwd=ROOT, env=env)
    if unit.returncode != 0:
        fail("unit tests")
    for w in spec["workloads"]:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                 timeout=600)
            if run.returncode != 0:
                fail(f"{w['name']} trace {trace} exited {run.returncode}:\n{run.stderr[-2000:]}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{w['name']}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{w['name']} trace {trace}: {result}\n{run.stderr[-2000:]}")
            want = {m["name"]: m["unit"] for m in table}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{w['name']} trace {trace}: metrics {got} != {want}")
            print(f"selftest: {w['name']} trace {trace}: ok "
                  f"({result['attempted']} attempted)")
    print("selftest: all passed")


if __name__ == "__main__":
    main()
