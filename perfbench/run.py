#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compile-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload
    python3 perfbench/run.py --regenerate-expected            # fig7 expected output

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and never touches the repository's own build files.  Build output goes to
standard error; the last line of standard output is the benchmark's JSON
result.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["compile-suite", "reproduce-fig7", "speculative-track"]
EXPECTED = HERE / "expected" / "fig7_reference.txt"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "driver" / "compiler.h").is_file():
        fail(f"compiler sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir if build_dir.is_absolute() else Path.cwd() / build_dir) / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(build_dir), "-j", jobs]]
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        # Configured once; the build step re-runs cmake when a CMakeLists
        # or the set of sources changes.
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def run(binary, args):
    try:
        res = subprocess.run([str(binary)] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    return res.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--regenerate-expected", action="store_true",
                   help=f"rewrite {EXPECTED.relative_to(ROOT)} from the untransformed suite codes")
    a = p.parse_args()
    if not a.regenerate_expected and a.workload is None:
        p.error("--workload or --regenerate-expected is required")

    binary = build()
    if a.regenerate_expected:
        EXPECTED.parent.mkdir(exist_ok=True)
        return run(binary, ["--write-expected", str(EXPECTED)])

    common = ["--seed", str(a.seed), "--seconds", str(a.seconds),
              "--expected", str(EXPECTED)]
    if a.workload != "all":
        return run(binary, ["--workload", a.workload, "--trace", a.trace] + common)
    # Every workload, untraced then traced: all end-to-end and per-layer
    # figures in one go (each run's JSON line follows its summary).
    for w in WORKLOADS:
        for trace in ("0", "1"):
            code = run(binary, ["--workload", w, "--trace", trace] + common)
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
