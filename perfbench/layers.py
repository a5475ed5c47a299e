#!/usr/bin/env python3
"""Traced runs of every workload, as one table of per-layer metrics.

    python3 perfbench/layers.py [--seed N]

Runs each workload once with --trace 1 and prints one row per per-layer
metric named in BENCHMARK.json (tracing overhead included), one column per
workload. Exits non-zero if a run fails or misses a metric.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


class Args:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.seconds = 1
        self.trace = 1


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    seed = p.parse_args(argv).seed
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    binary = bench.build()
    columns = {}
    for workload in bench.WORKLOADS:
        code, out = bench.run(binary, Args(workload, seed))
        if code != 0:
            sys.exit(f"{workload}: benchmark binary exited with {code}")
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{workload}: {result['failed']} of {result['attempted']} ops failed")
        columns[workload] = result["metrics"]
    print(f"{'metric':36}{'unit':>9}" + "".join(f"{w:>16}" for w in columns))
    for metric in spec["per_layer"]:
        name = metric["name"]
        if any(name not in m for m in columns.values()):
            sys.exit(f"missing per-layer metric {name}")
        row = "".join(f"{m[name]['value']:16.6g}" for m in columns.values())
        print(f"{name:36}{metric['unit']:>9}{row}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
