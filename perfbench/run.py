#!/usr/bin/env python3
"""Build the OA program and this benchmark from source, then run one workload.

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Builds `oa` (the repository's release
binary) and `perfbench` (the package in this directory) into
$CARGO_TARGET_DIR (default `.bench_build`), clears every OA_* variable,
and runs the workload.  The last line of stdout is the result object.
Exits non-zero, printing no result, when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_fingerprint():
    """Commit id when in a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("OA_")}
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "oa-core", "--bin", "oa"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Cargo's output goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    bench = os.path.join(target, "release", "perfbench")
    cmd = [bench, *sys.argv[1:], "--oa", os.path.join(target, "release", "oa"),
           "--out-dir", out_dir, "--commit", source_fingerprint()]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
