#!/usr/bin/env python3
"""Self-test of the SKIP-Sim benchmark.

Runs every workload of BENCHMARK.json at the tiny size for one second,
at the seed whose tiny-size digests perfbench/goldens.json records:
untraced, it must report correct outputs (matching those digests) and
exactly the end-to-end metrics BENCHMARK.json names; traced, exactly
the per-layer metrics; and with --corrupt (every operation's output
digest flipped) it must report every operation as failed and exit
non-zero.

Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", trace,
         "--size", "tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result


def expect_metrics(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    return got == want


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(failures)
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            rc, result = bench(workload, trace)
            if rc != 0 or result is None or not result["correct"] \
                    or result["failed"] != 0 or result["attempted"] < 1:
                failures.append("%s --trace %s: exit %d, result %s"
                                % (workload, trace, rc, result))
            elif not expect_metrics(result, declared):
                failures.append("%s --trace %s: metrics %s differ from "
                                "BENCHMARK.json" % (workload, trace,
                                                    sorted(result["metrics"])))
        rc, result = bench(workload, "0", "--corrupt")
        if rc == 0 or result is None or result["correct"] \
                or result["failed"] != result["attempted"] \
                or result["attempted"] < 1:
            failures.append("%s --corrupt: a flipped digest was not "
                            "reported as failed ops (exit %d, result %s)"
                            % (workload, rc, result))
        print("%-14s %s" % (workload,
                            "ok" if len(failures) == before else "FAIL"))
    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
