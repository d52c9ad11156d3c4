#!/usr/bin/env python3
"""Builds capart_bench from source and runs one workload.

Run from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is configured and built (Release) under
$CARGO_TARGET_DIR/capart_bench, or .bench_build/capart_bench when the
variable is unset; later runs only rebuild what changed. The run writes its
--out result JSON (and, with --trace 1, a Chrome trace of its spans) next to
the build. Standard output ends with the benchmark's one-line JSON result;
build output goes to standard error. A failed build exits non-zero without
printing a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["fig19_21_live", "fig19_21_spool", "zoo_parallel", "clos_32t"]


def build(source: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "capart_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (build_dir / "capart_bench").resolve()
    try:
        binary = build(source, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    command = [
        str(binary),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--workdir={build_dir / 'work'}",
    ]
    if args.trace:
        command += [f"--out={results / (stem + '-traced.json')}",
                    f"--trace={results / (stem + '-trace.json')}"]
    else:
        command += [f"--out={results / (stem + '.json')}"]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
