#!/usr/bin/env python3
"""Build and run the rselect benchmark.

    python3 perfbench/run.py --workload guest-trace --seed 1 --seconds 35 --trace 0

Run from the repository root. The script builds perfbench/ (which
compiles the library from src/) into .bench_build/, then runs the
benchmark program, whose last stdout line is the JSON result. Build
output goes to stderr. Traced runs (--trace 1) also leave their spans
in .bench_build/spans-<workload>-<seed>.tsv.

    python3 perfbench/run.py --write-pins

re-records perfbench/pins/ from the current tree.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("guest-trace", "guest-combined", "service-fleet")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/ is missing; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target",
                  "rselect-perfbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # stdout is reserved for results, so the build talks on stderr.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "rselect-perfbench")


def commit_id():
    """The git commit, or a digest of the sources outside git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--",
                                "src", "perfbench"], cwd=ROOT,
                               capture_output=True, text=True, check=True)
        return sha.stdout.strip()[:12] + ("-dirty" if dirty.stdout else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    binary = build()
    pins = os.path.join(HERE, "pins")
    if args.write_pins:
        cmd = [binary, "--write-pins", pins]
    else:
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--pins", pins,
               "--commit", commit_id()]
        if args.trace:
            cmd += ["--spans", os.path.join(
                BUILD, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
