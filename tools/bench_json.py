"""Summarise perfbench runs of a parent and a changed checkout as JSON.

    python tools/bench_json.py PARENT CHANGE --tier1 PARENT_S CHANGE_S

PARENT and CHANGE are checkouts whose ``.perfbench_out/`` holds the
``result-<workload>-seed<k>-trace0.json`` files of end-to-end runs
(``python3 perfbench/run.py --workload W --seed k``).  Runs with the same
workload and seed on both sides form a pair.  For every workload the
output gives, per side, the median and quartiles of each end-to-end
metric and the failed operations, and per metric how many pairs the
change won.  It also records the line count of ``src/`` on both sides,
in total and per module, the Tier-1 wall times given on the command line, and the Python and
numpy versions and CPU count of the machine that runs it.  The JSON goes
to stdout.
"""

import argparse
import json
import os
import platform
import re
import statistics
from pathlib import Path

import numpy as np

RESULT = re.compile(r"result-(?P<workload>\w+)-seed(?P<seed>\d+)-trace0\.json")


def load_runs(checkout):
    """{workload: {seed: result file contents}} of one checkout."""
    runs = {}
    for path in sorted((Path(checkout) / ".perfbench_out").glob("result-*")):
        m = RESULT.fullmatch(path.name)
        if m:
            runs.setdefault(m["workload"], {})[int(m["seed"])] = \
                json.loads(path.read_text())
    return runs


def src_lines(checkout):
    """{module path under src/: line count} of one checkout."""
    src = Path(checkout) / "src"
    return {str(p.relative_to(src)): len(p.read_text().splitlines())
            for p in sorted(src.rglob("*.py"))}


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def workload_summary(parent, change):
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        raise SystemExit("no seed was run on both sides")
    sides = {"parent": [parent[k] for k in seeds],
             "change": [change[k] for k in seeds]}
    out = {"pairs": len(seeds), "seeds": seeds, "metrics": {}}
    for name, metric in sides["parent"][0]["result"]["metrics"].items():
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs]
                  for side, runs in sides.items()}
        out["metrics"][name] = {
            "unit": metric["unit"],
            "parent": spread(values["parent"]),
            "change": spread(values["change"]),
            "change_wins": sum(c < p for p, c in zip(values["parent"],
                                                     values["change"])),
        }
    for side, runs in sides.items():
        out[f"failed_{side}"] = statistics.median(
            r["result"]["failed"] for r in runs)
        out[f"attempted_{side}"] = statistics.median(
            r["result"]["attempted"] for r in runs)
        out[f"failed_operations_{side}"] = sorted(
            {f[1] for r in runs for f in r["failures"]})
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--tier1", nargs=2, type=float, required=True,
                   metavar=("PARENT_S", "CHANGE_S"),
                   help="Tier-1 test suite wall times in seconds")
    args = p.parse_args(argv)
    parent, change = load_runs(args.parent), load_runs(args.change)
    modules = {"parent": src_lines(args.parent),
               "change": src_lines(args.change)}
    out = {
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "nproc": os.cpu_count()},
        "src_lines": {side: sum(lines.values())
                      for side, lines in modules.items()},
        "src_module_lines": modules,
        "tier1_wall_s": {"parent": args.tier1[0], "change": args.tier1[1]},
        "workloads": {w: workload_summary(parent[w], change[w])
                      for w in sorted(set(parent) & set(change))},
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
