#!/usr/bin/env python3
"""End-to-end benchmark for LawsDB: builds the benchmark binary, runs one workload.

Run from the root of a checkout:

  python3 e2e_bench/run.py --workload lofar_query_mix --seed 1 \
      --seconds 20 --trace 0

Workloads: lofar_archive, lofar_query_mix, sensor_stream (see
BENCHMARK.json). The first call configures and compiles the engine and
the benchmark binary into .bench_build/e2e_bench (a few minutes); later calls only
check that the build is current. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
exit code is non-zero when the build fails, an operation fails or an
answer is wrong. Per-run records (environment, every metric, and with
--trace 1 the spans) are written to .bench_build/results.

  python3 e2e_bench/run.py --self-check

runs every workload at a reduced size once as is and once per planted
wrong expectation, and fails unless each planted check reports failed
operations and a non-zero exit.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2e_bench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("lofar_archive", "lofar_query_mix", "sensor_stream")
# Seconds one benchmark run may take before it is stopped.
RUN_TIMEOUT_S = 170
# Checks each workload can plant for the self-check.
PLANTS = {
    "lofar_archive": ("loaded_image",),
    "lofar_query_mix": ("exact_digest", "model_digest", "oracle"),
    "sensor_stream": ("exact_digest", "model_digest", "oracle"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and compiles the benchmark binary; returns True when it is current."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "e2e_bench-build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as out:
            steps = []
            if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
                steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
            steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    break
            else:
                return os.path.exists(BINARY)
    with open(log_path) as f:
        log("e2e_bench: build failed; last lines of " + log_path + ":")
        log("".join(f.readlines()[-20:]))
    return False


def code_version():
    """The git commit when the checkout is a repository, else a digest of
    the engine sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "no git checkout; src sha256 " + h.hexdigest()[:16]


def run_binary(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    cmd = [BINARY] + args + [
        "--out-dir", os.path.join(BUILD_ROOT, "results"),
        "--tmp-root", os.path.join(BUILD_ROOT, "tmp"),
        "--git-commit", code_version(),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None,
                           stderr=subprocess.DEVNULL if capture else None)
    except subprocess.TimeoutExpired:
        log("e2e_bench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1, None
    return r.returncode, (r.stdout.decode() if capture else None)


def self_check():
    ok = True
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", "0", "--small"]
        for plant in ("none",) + PLANTS[workload]:
            rc, out = run_binary(base + ["--plant", plant], capture=True)
            result = json.loads(out.strip().splitlines()[-1]) if out else {}
            failed = result.get("failed", 0)
            if plant == "none":
                good = rc == 0 and result.get("correct") is True \
                    and failed == 0
            else:
                good = rc != 0 and result.get("correct") is False \
                    and failed > 0
            print("%s %-16s plant=%-13s exit=%d failed=%s" % (
                "PASS" if good else "FAIL", workload, plant, rc, failed))
            ok = ok and good
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.self_check:
        return self_check()
    rc, _ = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", repr(args.seconds),
                        "--trace", args.trace])
    return rc


if __name__ == "__main__":
    sys.exit(main())
