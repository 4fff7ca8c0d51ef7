#!/usr/bin/env python3
"""Builds the relmax benchmark from source and runs one workload.

    python3 perfbench/run.py --workload solve|batch|serve-rw \
        --seed N --seconds S --trace 0|1

Run it from the root of a relmax checkout. The first run configures and
builds perfbench/ (which compiles the library from ../src) into
.bench_build/; later runs rebuild incrementally. The last stdout line is the
JSON result; build output goes to stderr. A traced run writes its spans to
.bench_build/traces/<workload>-<seed>.json.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no relmax sources next to perfbench/ "
                 "(run from the root of a relmax checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def flag(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    args = sys.argv[1:]
    try:
        build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if flag(args, "--trace") == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{flag(args, '--workload')}-{flag(args, '--seed')}.json"
        args += ["--trace-out", os.path.join(traces, name)]
    binary = os.path.join(BUILD, "perfbench")
    # Replace this process, so the benchmark is the only process to stop.
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
