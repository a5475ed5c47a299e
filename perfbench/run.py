#!/usr/bin/env python3
"""Build the FlexStep benchmark binary from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload parsec_sweep --seed 1 --seconds 45 --trace 0

The binary is compiled with CMake into .bench_build/perfbench (an
incremental no-op after the first build). An untraced run times the
workload's set-up in several fresh processes (--setup-only) and in the
measuring process itself, and reports the median as setup_s; the other
metrics come from the measuring process. The host-speed probes run in
processes of their own before and after. Diagnostics are printed as lines
starting with '#'; the last line is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, without printing a result,
when the build or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
EXPECTED = BENCH_DIR / "expected.txt"
WORKLOADS = ("parsec_sweep", "manycore_64", "vuln_campaign")
RUN_TIMEOUT_S = 170
# Fresh processes that only set up, besides the measuring process's own
# set-up: each pays the process's one-time costs, and the median of the
# samples is setup_s. About 0.6 s (parsec_sweep), 7 s (manycore_64) and
# 5 s (vuln_campaign) in all.
SETUP_PROCESSES = {"parsec_sweep": 14, "manycore_64": 8, "vuln_campaign": 6}

# Knobs the simulator reads from the environment, and the C library's
# allocator tunables; any of them would change what is measured.
SIMULATOR_ENV = ("FLEX_ENGINE", "FLEX_TRACE", "FLEX_FUSED", "FLEX_ANALYZE",
                 "FLEX_THREADS", "FLEX_CAMPAIGN_DIE_SHARD", "GLIBC_TUNABLES")


def clean_env():
    return {k: v for k, v in os.environ.items()
            if k not in SIMULATOR_ENV and not k.startswith("MALLOC_")}


def build():
    """Configure and build the binary; returns the binary's path."""
    if not (ROOT / "src" / "sim" / "scenario.h").is_file():
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    env = clean_env()
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", "4"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return BUILD_DIR / "perfbench"


def run_process(cmd):
    """Run one process to its end; returns (exit code, stdout)."""
    env = clean_env()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return 124, ""
    return proc.returncode, out


def workload_cmd(binary, args, extra=()):
    return [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--expected", str(EXPECTED), *extra]


def run(binary, args, extra=()):
    """Run the binary once on the workload; returns (exit code, stdout)."""
    return run_process(workload_cmd(binary, args, extra))


def measure(binary, args, extra=(), setup_processes=None):
    """One benchmark run: host probes, fresh set-up processes (untraced runs
    only) and the measuring process. Returns (diagnostic lines, result), or
    raises RuntimeError when a process fails."""
    if setup_processes is None:
        setup_processes = SETUP_PROCESSES[args.workload]
    lines = []

    def call(cmd, what, keep="#"):
        code, out = run_process(cmd)
        if code != 0:
            sys.stderr.write(out)
            raise RuntimeError(f"{what} exited with code {code}")
        out_lines = out.strip().splitlines()
        lines.extend(l for l in out_lines if l.startswith(keep))
        return out_lines

    probe = [str(binary), "--host-probe"]
    call(probe, "host probe")
    setups = []
    if args.trace == 0:
        setup_cmd = workload_cmd(binary, args, ["--setup-only", *extra])
        for _ in range(setup_processes):
            out_lines = call(setup_cmd, "set-up process", keep="# FAILED")
            setups.append(json.loads(out_lines[-1]))
    result = json.loads(call(workload_cmd(binary, args, extra), "benchmark process")[-1])
    call(probe, "host probe")
    if args.trace == 0:
        samples = [r["metrics"]["setup_s"]["value"] for r in setups]
        samples.append(result["metrics"]["setup_s"]["value"])
        lines.append("# setup_s samples: " + " ".join(f"{s:.4f}" for s in samples))
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        for r in setups:
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
    return lines, result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    binary = build()
    extra = []
    if args.trace == 1:
        extra = ["--trace-out",
                 str(BUILD_DIR / f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        lines, result = measure(binary, args, extra)
    except RuntimeError as e:
        sys.exit(f"perfbench: {e}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
