#!/usr/bin/env python3
"""Build SQUARE from source and run one benchmark workload.

    python3 perfbench/run.py --workload compile_suite --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --test     # the benchmark's own unit tests

Run it from the repository root.  The build lives in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to stderr, so stdout carries only the benchmark's header
line and, last, its result object.  Exits non-zero without a result when
the sources are missing or the build fails.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_suite", "serve_warm", "serve_mixed")
ADDR_NO_RANDOMIZE = 0x0040000


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("no SQUARE sources next to perfbench/; nothing to benchmark")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fixed_layout():
    """Turn off address-space randomization for the run and its children.

    Heap and stack placement shifted compile() times by up to 20% from
    one process to the next; a fixed layout makes runs comparable.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def kill_session(sid):
    """SIGKILL every process left in session @sid (the fabric daemons)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as f:
                fields = f.read().rsplit(")", 1)[1].split()
            if int(fields[3]) == sid:
                os.kill(int(entry), signal.SIGKILL)
        except (OSError, IndexError, ValueError):
            continue


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if not args.test and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    target = "perfbench_tests" if args.test else "perfbench"
    if not build(build_dir, [target]):
        log("build failed")
        return 2
    if args.test:
        return subprocess.run([os.path.join(build_dir, target)]).returncode

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-root", os.path.join(build_dir, "runs"),
           "--git", git_describe()]
    # Its own session, so nothing it starts can outlive this script.
    proc = subprocess.Popen(cmd, start_new_session=True,
                            preexec_fn=fixed_layout)

    def stop(signum, _frame):
        kill_session(proc.pid)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    # Above the program's own cap: compile_suite stops by 4 * S + 30 s.
    timeout = 4 * args.seconds + 60
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; killing it" % timeout)
        code = 3
    kill_session(proc.pid)
    if proc.poll() is None:
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
