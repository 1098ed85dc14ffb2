#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Every argument is passed to the gmdf_perfbench binary (see main.cpp); the
last line of stdout is its JSON result. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to
the checkout root); build output goes to stderr. A failed build exits
non-zero without printing a result.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tag = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + tag)


def build(out_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ next to perfbench/, nothing to build", file=sys.stderr)
        return False
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def source_rev():
    """The git revision when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(out_dir, "gmdf_perfbench")
    args = [binary] + sys.argv[1:] + ["--rev", source_rev()]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
