#!/usr/bin/env python3
"""Builds dcbench from this checkout's sources and runs it.

    python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 benchmark/run.py --selftest

The first call configures and builds a Release tree in .bench_build at the
repository root (or in $CARGO_TARGET_DIR, relative to the root, when set);
later calls only re-check it. Build output goes to stderr, so the last line
of stdout is dcbench's result. Exits non-zero without printing a result when
the library sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    bench = Path(__file__).resolve().parent
    root = bench.parent
    if not (root / "src" / "sim" / "machine.hpp").is_file():
        fail(f"library sources not found under {root / 'src'}")
    build = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")

    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(f"command failed: {' '.join(cmd)}")

    if not any((build / f).is_file() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(bench), "-B", str(build),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", str(build), "-j", str(min(4, os.cpu_count() or 1))])
    exe = str(build / "dcbench")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
