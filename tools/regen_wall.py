#!/usr/bin/env python3
"""Times a full regeneration: every fig* and abl* bench of a build.

Run from the repository root after building (Release):

    python3 tools/regen_wall.py [--build build]

Each binary in <build>/bench whose name starts with fig or abl runs once,
in name order, with its defaults (the default --jobs included); its output
is discarded. Standard output is one JSON object: the wall seconds of each
bench, their total, the commit the build's source tree has checked out, the
CPU model and nproc (the CPUs this process may run on). A bench that exits
non-zero is reported in "failed" and the script exits 1. One run takes
minutes; it is a measurement, not a check.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit(build: Path) -> str:
    """HEAD of the source tree the build was configured from."""
    source = "."
    try:
        with open(build / "CMakeCache.txt", encoding="utf-8") as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    source = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        return subprocess.run(["git", "-C", source, "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build",
                        help="CMake build directory (default: build)")
    args = parser.parse_args()

    bench_dir = Path(args.build) / "bench"
    benches = sorted(p for p in bench_dir.iterdir()
                     if p.name.startswith(("fig", "abl"))
                     and p.is_file() and os.access(p, os.X_OK)) \
        if bench_dir.is_dir() else []
    if not benches:
        print(f"regen_wall.py: no fig*/abl* binaries in {bench_dir}",
              file=sys.stderr)
        return 1

    seconds = {}
    failed = []
    for bench in benches:
        start = time.perf_counter()
        result = subprocess.run([str(bench)], stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        seconds[bench.name] = round(time.perf_counter() - start, 3)
        if result.returncode != 0:
            failed.append(bench.name)
    print(json.dumps({
        "benches": seconds,
        "total_s": round(sum(seconds.values()), 3),
        "failed": failed,
        "commit": commit(Path(args.build)),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
