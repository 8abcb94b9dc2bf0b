#!/usr/bin/env python3
"""Builds pc_bench_e2e from this checkout's sources and runs it.

    python3 bench/e2e/run.py --workload rag_warm --seed 1 --seconds 16 --trace 0
    python3 bench/e2e/run.py --all --seed 1 --out results/run1
    python3 bench/e2e/run.py --smoke

Arguments go to pc_bench_e2e unchanged (see README.md). The build lives in
$CARGO_TARGET_DIR/e2e, or .bench_build/e2e when that is unset; build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
Exits non-zero without a result when the repository's sources are missing
or the build fails, and stops a single-workload run that exceeds 170 s.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170

# Knobs of the system under test that the benchmark fixes itself; a stray
# value in the caller's environment must not change what is measured.
SCRUBBED_ENV = ("PC_KV_FORMAT", "PC_DISK_DIR", "PC_DISK_CAPACITY",
                "PC_REQTL", "PC_REQLOG", "PC_TRACE", "PC_TRACE_BUF")


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        sha = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty"], capture_output=True, text=True)
        if sha.returncode == 0 and sha.stdout.strip():
            configure.append("-DPC_GIT_SHA=" + sha.stdout.strip())
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "pc_bench_e2e"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pc_bench_e2e")


def main():
    # On SIGTERM, exit through an exception: subprocess.run then kills the
    # build or benchmark process it is waiting for and reaps it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: the repository's src/ is missing; nothing to build",
              file=sys.stderr)
        return 2
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"))
    try:
        exe = build(os.path.join(build_root, "e2e"))
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build_root, "e2e-out")]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    timeout = RUN_TIMEOUT_S if "--workload" in args else None
    try:
        return subprocess.run([exe] + args, env=env,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("run.py: pc_bench_e2e exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
