#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T
                             --trace 0|1 [--break CHECK]

Builds perfbench/ (and the library it links, from this checkout's sources)
with CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset, then
runs one workload, or each workload BENCHMARK.json lists when NAME is `all`.
Every metric is printed with its unit. A workload's last stdout line is its
JSON result {"correct", "attempted", "failed", "metrics"}, printed only when
its metric names and units match BENCHMARK.json.
--break perturbs one expectation of the correctness checks (residual, bytes,
bound, makespan or parity) so a run shows that check failing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the repository's CMakeLists.txt and src/ are missing; "
             "nothing to build")
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            fail(f"build step failed: {' '.join(cmd)}")


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_result(spec, line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists
    for this mode, with the listed units."""
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not the contract's")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected)
                       if got[k] != expected[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def run_workload(spec, build_dir, workload, args):
    cmd = [str(build_dir / "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.break_check:
        cmd += ["--break", args.break_check]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.stdout.write(out.stdout)
        fail(f"perfbench exited with code {out.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    check_result(spec, lines[-1], args.trace)
    print(lines[-1], flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--break", dest="break_check")
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for workload in names if args.workload == "all" else [args.workload]:
        run_workload(spec, build_dir, workload, args)


if __name__ == "__main__":
    main()
