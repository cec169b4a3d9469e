#!/usr/bin/env python3
"""Builds the serve-path benchmark from source and runs one workload.

    python3 servebench/run.py --workload count_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; the first run configures and
compiles, later runs only re-check it. All arguments are passed through to
the servebench binary, whose last stdout line is the JSON result. Exits
non-zero without a result when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("servebench: build failed: %s\n" % " ".join(step))
                return None
    return os.path.join(build_dir, "servebench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "servebench"))
    binary = build(build_dir)
    if binary is None:
        return 1
    workdir = os.path.join(os.path.abspath(target), "run")
    os.makedirs(workdir, exist_ok=True)
    return subprocess.run([binary] + sys.argv[1:] + ["--workdir", workdir]).returncode


if __name__ == "__main__":
    sys.exit(main())
