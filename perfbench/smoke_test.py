#!/usr/bin/env python3
"""Smoke tests for the benchmark itself, at reduced size.

    python3 perfbench/smoke_test.py

For each workload, at the smoke size:
  * an untraced run at the default seed passes every check;
  * the same run with one op's expected value deliberately wrong counts
    exactly that op as failed, each time it runs;
  * an untraced run at another seed passes every check;
  * two traced runs at the same seed print every per-layer metric named in
    BENCHMARK.json, and every count repeats exactly.
Exits 0 when all hold.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SECONDS = 1
SETUP_PROCESSES = 2


class Args:
    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = SECONDS
        self.trace = trace


def result(binary, workload, seed, trace=0, extra=()):
    """One run as run.py makes it (fresh set-up processes included); returns
    (result, passes of the measuring process)."""
    lines, res = bench.measure(binary, Args(workload, seed, trace),
                               ["--size", "smoke", *extra], SETUP_PROCESSES)
    passes = [int(l.split("=")[1].split()[0]) for l in lines
              if l.startswith("# passes=")]
    return res, passes[0] if passes else None


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    binary = bench.build()
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in bench.WORKLOADS:
        res, _ = result(binary, workload, 1)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{workload}: default seed passes every check")
        want = dict(end_to_end)
        if workload == "vuln_campaign":
            # Not listed in BENCHMARK.json: its throughput is injections_per_s.
            del want["sim_mips"]
            want["injections_per_s"] = "1/s"
        expect({k: v["unit"] for k, v in res["metrics"].items()} == want,
               f"{workload}: prints every end-to-end metric with its unit")

        # The last op runs once per pass, and also as the warm-up op of each
        # set-up when it is the only op: it must fail exactly that often.
        last_op = {"parsec_sweep": 23, "manycore_64": 1, "vuln_campaign": 0}[workload]
        res, passes = result(binary, workload, 1,
                             extra=["--corrupt-op", str(last_op)])
        runs = passes + (1 + SETUP_PROCESSES if last_op == 0 else 0)
        expect(not res["correct"] and res["failed"] == runs,
               f"{workload}: a wrong expected value fails its op "
               f"({res['failed']} failed of {runs} runs)")

        res, _ = result(binary, workload, 7)
        expect(res["correct"] and res["failed"] == 0,
               f"{workload}: seed 7 passes every check")

        first, _ = result(binary, workload, 1, trace=1)
        second, _ = result(binary, workload, 1, trace=1)
        units = {k: v["unit"] for k, v in first["metrics"].items()}
        expect(units == per_layer,
               f"{workload}: traced run prints every per-layer metric")
        counts = [k for k, u in per_layer.items() if u in ("count", "cycles")]
        same = all(first["metrics"][k]["value"] == second["metrics"][k]["value"]
                   for k in counts)
        expect(same, f"{workload}: per-layer counts repeat exactly")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
