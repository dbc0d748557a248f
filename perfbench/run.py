#!/usr/bin/env python3
"""Build and run the measured resilient-solve benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1

Run from the repository root. Each call configures and builds the library
and perfbench/resilient_bench.cpp with CMake (Release) under
$CARGO_TARGET_DIR, or .bench_build when unset; only the first call compiles
anything. The driver's own stdout is passed through; its last line is the JSON
result. Store directories live under the build directory and are removed
when the run ends. Traced runs (--trace 1) also write their spans to
<build>/traces/<workload>-seed<n>.json.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    obj = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", src, "-B", obj, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", obj, "--target", "resilient_bench", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(obj, "resilient_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        return 1

    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", workdir,
           "--trace-out", os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    # A SIGTERM to this wrapper must not orphan the driver.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
