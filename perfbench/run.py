#!/usr/bin/env python3
"""Build and run the CausalEC benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the
repository's libraries, causalec_server and the perfbench program, Release)
into .bench_build/perfbench; later runs only rebuild what changed. Build
output goes to standard error. The program's standard output is passed
through; its last line is the result object, and the exit code is the
program's (non-zero when a correctness check fails or the build fails).
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["perfbench", "causalec_server"]


# Compiler and program temporaries stay inside the checkout too.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP)


def sh(args):
    return subprocess.run(args, cwd=ROOT, env=ENV, stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no CausalEC sources next to perfbench/", file=sys.stderr)
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    for attempt in range(2):
        if attempt == 1 or not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            shutil.rmtree(BUILD, ignore_errors=True)
            if sh(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator) != 0:
                continue
        if sh(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS) == 0:
            return True
    return False


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    os.makedirs(TMP, exist_ok=True)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(ENV, PERFBENCH_COMMIT=source_id())
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
