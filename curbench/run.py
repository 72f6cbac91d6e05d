#!/usr/bin/env python3
"""Builds and runs the curation benchmark from the root of a checkout.

    python3 curbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Configures and builds curbench/ (which compiles ../src) into
$CARGO_TARGET_DIR (default .bench_build), runs the helper self-tests, then
runs the benchmark once. Every metric is printed by name with its unit;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero when a check fails.
`--record` prints the reference digest line for digests.txt instead.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> None:
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "curbench", "curbench_selftest"],
        stdout=sys.stderr, check=True)
    subprocess.run([str(build_dir / "curbench_selftest")],
                   stdout=sys.stderr, check=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "spread"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"curbench: no Nebula sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        build(build_dir)
    except subprocess.CalledProcessError as e:
        print(f"curbench: build or self-test failed: {e}", file=sys.stderr)
        return 2

    tmp = build_dir / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "curbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp),
           "--digests", str(HERE / "digests.txt")]
    if args.record:
        cmd.append("--record")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"curbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
