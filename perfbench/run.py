#!/usr/bin/env python3
"""Run one workload of the grs benchmark and print its result line.

    python3 perfbench/run.py --workload paper_serial --seed 1 --seconds 45 --trace 0

Run from the repository root. The first call configures and builds the
benchmark program, grs_perfbench, from perfbench/ and src/ into
.bench_build/perfbench; later calls rebuild incrementally. Its
scratch files (result stores, reports, sink outputs) live in a temporary
directory under the build directory and are removed when the run ends.
The last line of standard output is the JSON result; everything else goes to
standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("paper_serial", "study_cold", "study_warm")
RUN_TIMEOUT_S = 170


def build(bench_dir: Path, build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "grs_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "grs_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "gpu" / "simulator.h").is_file():
        print(f"perfbench: no simulator sources under {root / 'src'}", file=sys.stderr)
        return 2
    build_root = root / ".bench_build"
    try:
        exe = build(bench_dir, build_root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix="perfbench-work-", dir=build_root)
    try:
        proc = subprocess.run(
            [str(exe), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", str(root), "--work", work],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: grs_perfbench exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
