#!/usr/bin/env python3
"""Build and run the SKIP-Sim benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the
repository's src/) in Release mode into $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed. The benchmark
binary then runs the workload and prints, as its last line, the JSON
result. Options the runner does not know (--size, --corrupt, ...) are
passed to the binary.

    python3 perfbench/run.py --record-goldens 0-99,1009 [--size tiny]

re-records the reference-output digests in perfbench/goldens.json
(the tiny size's, which the self-test checks, with --size tiny).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
WORKLOADS = ["paper_sweep", "fleet_lor", "sessions_kv", "kineto_ingest"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SKIP-Sim sources next to perfbench/ (src/CMakeLists.txt)")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", build_dir, "--target", "skipbench", "-j", "4"])
    return os.path.join(build_dir, "skipbench")


def step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the files the benchmark builds from (src/, perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD of the repository rooted at ROOT; "none" outside one."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_goldens(binary, seeds, passthrough):
    with open(GOLDENS) as f:
        doc = json.load(f)
    tiny = "tiny" in passthrough
    digests = doc.setdefault("tiny_digests" if tiny else "digests", {})
    for workload in WORKLOADS:
        table = digests.setdefault(workload, {})
        for seed in seeds:
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "0", "--record"]
                + passthrough, stdout=subprocess.PIPE, text=True)
            lines = [l for l in proc.stdout.splitlines()
                     if l.startswith("RECORD ")]
            if proc.returncode != 0 or len(lines) != 1:
                fail("recording %s seed %d failed" % (workload, seed))
            table[str(seed)] = lines[0].split()[3]
        digests[workload] = dict(
            sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(GOLDENS, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--record-goldens", metavar="SEEDS")
    args, passthrough = parser.parse_known_args()

    binary = build()
    if args.record_goldens:
        record_goldens(binary, seed_list(args.record_goldens), passthrough)
        return 0
    if not args.workload:
        fail("--workload is required")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--goldens", GOLDENS,
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--source-digest", source_digest(), "--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run(cmd + passthrough).returncode


if __name__ == "__main__":
    sys.exit(main())
