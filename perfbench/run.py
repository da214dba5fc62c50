#!/usr/bin/env python3
"""Build camp-kvsd and the perfbench binary from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload read-resident --seed 1 --seconds 10 --trace 0

Workloads: read-resident, bg-cache-aside, write-durable. With --trace 1 the
run also replays the same requests in process with a span around every layer
call and reports the per-layer metrics instead of the end-to-end ones. The
last line of stdout is one JSON object; see perfbench/README.md.

Binaries are built into $CARGO_TARGET_DIR (default .bench_build); scratch
files (data dirs, span files) go to .perfbench_work. The daemon is pinned to
one core and the generator to another when the machine has two.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read-resident", "bg-cache-aside", "write-durable")
# A run must end within 180 s; stop well before that.
TIMEOUT_S = 170


def build(target):
    """Builds both binaries; returns False (build output on stderr) on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "camp-kvs", "--bin", "camp-kvsd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in commands:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=400)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == {"correct", "attempted", "failed", "metrics"}
        and result["attempted"] >= 1
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work_dir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--kvsd", os.path.join(target, "release", "camp-kvsd"),
        "--work-dir", work_dir,
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
    ]
    cpus = sorted(os.sched_getaffinity(0))
    client_cpus = None
    if len(cpus) >= 2 and shutil.which("taskset"):
        cmd += ["--server-cpu", str(cpus[0])]
        client_cpus = {cpus[1]}

    def pin():
        if client_cpus:
            os.sched_setaffinity(0, client_cpus)

    # Its own process group, so a timeout also stops the daemons it spawned.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             preexec_fn=pin, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"perfbench: no result within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0 or not valid_result(lines[-1]):
        # Show what was measured, but no result line.
        sys.stderr.write(out)
        print(f"perfbench: run failed (exit {child.returncode})", file=sys.stderr)
        return child.returncode or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
