#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Each test runs perfbench/run.py with short --seconds:

1. every metric named in BENCHMARK.json is printed with its unit: the
   end_to_end set by every workload at --trace 0, the per_layer set at
   --trace 1;
2. a deliberately refused op (a request to a session that was closed) is
   counted as failed, marks the run incorrect, and exits non-zero;
3. the traced run's containment and residual checks execute, and a
   failing one would mark the run incorrect.

Exits non-zero on the first failed test.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seconds, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace), *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output (exit {r.returncode})\n{r.stderr[-2000:]}")
    return r.returncode, json.loads(lines[-1]), r.stderr


def expect(cond, what):
    if not cond:
        raise AssertionError(what)
    print("ok  ", what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    # 1 + 3: metric coverage at both trace levels; traced checks execute.
    checks = {
        "net.codec_ns <= net.self_us", "interactive",
        "sim.advance_us <= hub.pump_us", "in-process run+drain+resumes <= fleet.poll_us", "fleet",
        "campaign generate+build+execute <= untraced pair", "campaign",
    }
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, stderr = run(workload, trace, 1.5 if trace else 1)
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} --trace {trace}: correct, exit 0")
            printed = result["metrics"]
            for m in spec[key]:
                got = printed.get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{workload} --trace {trace}: prints {m['name']} [{m['unit']}]")
            if trace:
                ran = dict(re.findall(r"^check (.+?): .*: (ok|FAILED)$", stderr, re.M))
                expect(checks <= set(ran), f"{workload} --trace 1: every containment and residual check ran")
                expect(("FAILED" in ran.values()) == (not result["correct"]),
                       f"{workload} --trace 1: check outcomes agree with 'correct'")

    # 2: a refused op is a failed op.
    code, result, _ = run("interactive", 0, 1, "--inject-refusal")
    expect(result["failed"] >= 1 and not result["correct"] and code != 0,
           "interactive --inject-refusal: the refused request counts as failed, exit non-zero")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("FAIL", e)
        sys.exit(1)
