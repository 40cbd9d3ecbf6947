#!/usr/bin/env python3
"""Build the nicsched perf benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload offload_fixed1us --seed 42 \
        --seconds 10 --trace 0

The first call configures and builds ../src plus the benchmark in Release
under .bench_build/ (or $CARGO_TARGET_DIR, when set); later calls only
re-check the build. The benchmark's own output is passed through; its last
line is the JSON result. A copy with the run's manifest is written to
<build dir>/results/. See perfbench/README.md for the metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build(directory):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (directory / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(directory),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(directory), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only the benchmark.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    binary = directory / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def source_identity():
    """Git commit when available, plus a digest of the simulator sources."""
    commit = "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"git:{commit} src-sha256:{digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    directory = build_dir()
    binary = build(directory)
    results = directory / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", source_identity(), "--out", str(out)]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
