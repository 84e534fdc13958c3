#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (a Release CMake build of
the library sources in src/ plus the hydra_perfbench binary) under
.bench_build/perfbench, or under $CARGO_TARGET_DIR/perfbench when that is
set; later calls only rebuild what changed. The last line of standard
output is the result JSON printed by hydra_perfbench. See
perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("regen_wlc", "datagen_wls", "serve_mixed", "serve_shared_wire")
# Every run, build included, must end well inside 180 seconds; the first
# build in a fresh checkout may take longer and is allowed to.
RUN_BUDGET_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Names the code under test: the git commit when there is one, else a
    digest of the library and benchmark sources."""
    def git(*argv):
        out = subprocess.run(["git", "-C", str(ROOT), *argv],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else ""

    try:
        # Only a repository rooted here names this code; a checkout nested
        # in some other repository does not.
        if git("rev-parse", "--show-toplevel") == str(ROOT):
            dirty = "+dirty" if git("status", "--porcelain") else ""
            return "git:" + git("rev-parse", "HEAD") + dirty
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    if not (ROOT / "src" / "hydra" / "regenerator.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            # Build logs go to stderr: stdout ends with the result line.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd), code=1)
    return build_dir / "hydra_perfbench"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    started = time.monotonic()
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binary = build(build_root / "perfbench")
    out_dir = build_root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", f"{args.seconds:g}", "--trace",
           args.trace, "--out-dir", str(out_dir), "--source", source_id()]
    budget = max(30.0, RUN_BUDGET_S - (time.monotonic() - started))
    try:
        # subprocess.run kills and reaps the binary if it overruns.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {budget:.0f} s",
             code=1)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"hydra_perfbench exited {proc.returncode} without a result",
             code=1)

    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys differ from the contract")
    declared = declared_metrics(args.trace == "1")
    if declared is not None:
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != declared:
            problems.append("metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got) ^ set(declared))}")
    print("\n".join(lines[:-1]))
    if problems:
        fail("; ".join(problems), code=1)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
