#!/usr/bin/env python3
"""Builds the m3dbench driver (first use only) and runs one workload.

Usage, from the repository root:

    python3 m3dbench/run.py --workload diag-cold --seed 1 --seconds 10 --trace 0

Every argument is forwarded to the driver binary; see m3dbench/README.md.
The build is configured with CMake into m3dbench/.build and compiles the
library from src/, so the first call takes about a minute.  Build output
goes to stderr: the last line of stdout is always the driver's result JSON.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
BINARY = os.path.join(BUILD, "m3dbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("m3dbench: library sources (src/) not found next to the "
                 "benchmark directory; run from a full checkout")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "m3dbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("m3dbench: build step failed: " + " ".join(cmd))


def main():
    build()
    os.chdir(ROOT)
    scratch = os.path.join(BUILD, "scratch")
    done = subprocess.run([BINARY] + sys.argv[1:] + ["--scratch", scratch])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
