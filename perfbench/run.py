#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is
incremental, so only the first run in a tree compiles. perfbench_driver
runs with DIVERSE_THREADS set explicitly (socket workers inherit it), in its
own process group; every process of that group is stopped and gone before
this script exits. The last line of standard output is the JSON result;
build logs and diagnostics go to standard error. A tree without the library
sources or a failed build exits 2 without a result; a failed check prints
the result with "correct": false and exits 1.
"""

import argparse
import hashlib
import os
import pathlib
import signal
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Kernel-pool threads per process; perfbench/README.md explains the budget.
KERNEL_THREADS = "1"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(out):
    cmd_cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd_build = ["cmake", "--build", str(out), "--target", "perfbench_driver",
                 "-j", jobs]
    for cmd in (cmd_cfg, cmd_build):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def src_digest():
    """Content hash of the library sources: identifies the code measured
    even where the tree is not a git checkout."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stop_group(pgid):
    """SIGKILLs whatever is left of the group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log(f"process group {pgid} still alive after SIGKILL")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no library sources next to {BENCH_DIR}; nothing to measure")
        return 2
    out = build_dir() / "perfbench"
    if not build(out):
        return 2
    driver = out / "bin" / "perfbench_driver"
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ, DIVERSE_THREADS=KERNEL_THREADS)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(trace_dir), "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log(f"driver exceeded {RUN_TIMEOUT_S}s; stopped")
        return 1
    finally:
        stop_group(proc.pid)
    sys.stdout.write(stdout)
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
