"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --workloads exact,cli

For each workload and metric prints the median and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of
the median, next to the bound in BENCHMARK.json, plus the share of failed
operations.  Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--workloads", default="exact,flags,certificates,cli")
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    first, last = map(int, args.seeds.split("-"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in args.workloads.split(","):
        values, shares = {}, set()
        for seed in range(first, last + 1):
            out = subprocess.run(
                [*bench["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.splitlines()[-1])
            shares.add((res["failed"], res["attempted"], res["correct"]))
            for key, m in res["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        print(f"{name}: failed/attempted/correct {sorted(shares)}")
        for key, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  {key:30s} median {med:.6g}  spread {(q3 - q1) / med:.4f}"
                  f"  bound {bounds.get(key, '-')}  values "
                  + " ".join(f"{v:.4g}" for v in vals))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
