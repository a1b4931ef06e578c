#!/usr/bin/env python3
"""Builds the QuickSand benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into the directory named by
CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to build.log in that directory and
is echoed to stderr only when the build fails. The workload runs in its
own process; its last stdout line is the result JSON (see src/main.cpp and
RATIONALE.md).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["feed_month", "daemon_live", "policy_eval", "client_exposure"]


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(step))
                return None
    return os.path.join(build_dir, "perfbench")


def git_provenance():
    """(rev, dirty) of the checkout, or ("unknown", "unknown") outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        try:
            out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                 text=True, env=env, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    if rev is None:
        return "unknown", "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    return rev, "unknown" if status is None else ("1" if status else "0")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        return 1
    rev, dirty = git_provenance()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-rev", rev, "--git-dirty", dirty]
    sys.stdout.flush()
    child = subprocess.Popen(command)
    # A stopped run stops its workload too: pass the signal on and wait.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda sig, _frame: child.send_signal(sig))
    code = child.wait()
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
