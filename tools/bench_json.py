"""Summarise perfbench runs of a parent and a changed checkout as JSON.

    python tools/bench_json.py PARENT CHANGE --tier1 PARENT_LOG CHANGE_LOG

PARENT and CHANGE are checkouts whose ``.perfbench_out/`` holds the
``result-<workload>-seed<k>-trace<t>.json`` files of end-to-end runs
(``python3 perfbench/run.py --workload W --seed k``, t = 0) and of traced
runs (the same with ``--trace 1``).  Runs with the same workload, seed
and trace flag on both sides form a pair.  For every workload the output
gives, per side, the median and quartiles of each end-to-end metric and
the failed operations, and per metric how many pairs the change won.  A
traced run times one round of every workload, so the per-layer metrics
are summarised the same way over all traced pairs, whatever their
workload; a change wins a pair when it moves the metric in the direction
that ``BENCHMARK.json`` calls better.  The output also records the line
count of ``src/`` on both sides, in total and per module, the number of
function parameters with a default in ``src/`` on both sides (positional
and keyword-only ones: every value a caller can set), and the Python
and numpy versions and CPU count of the machine that runs it.  PARENT_LOG
and CHANGE_LOG hold the output of the Tier-1 suite run with
``--durations=5`` on each side; the output gives the suite's wall time
and its five slowest test phases from them.  The JSON goes to stdout.
"""

import argparse
import ast
import json
import os
import platform
import re
import statistics
from pathlib import Path

import numpy as np

RESULT = re.compile(
    r"result-(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def load_runs(checkout, trace):
    """{workload: {seed: result file contents}} of one checkout's runs
    made with ``--trace trace``."""
    runs = {}
    for path in sorted((Path(checkout) / ".perfbench_out").glob("result-*")):
        m = RESULT.fullmatch(path.name)
        if m and int(m["trace"]) == trace:
            runs.setdefault(m["workload"], {})[int(m["seed"])] = \
                json.loads(path.read_text())
    return runs


SLOW = re.compile(
    r"(?P<s>[\d.]+)s (?P<phase>call|setup|teardown) +(?P<test>\S+)")
SUMMARY = re.compile(r"=* ?(?P<counts>\d+ passed.*) in (?P<s>[\d.]+)s\b")


def tier1(log):
    """Wall time, outcome counts and slowest test phases of one saved
    ``pytest --durations=5`` output."""
    out = {"slowest": []}
    for line in Path(log).read_text().splitlines():
        if m := SLOW.fullmatch(line.strip()):
            out["slowest"].append({"test": m["test"], "phase": m["phase"],
                                   "s": float(m["s"])})
        elif m := SUMMARY.match(line.strip()):
            out["wall_s"], out["outcome"] = float(m["s"]), m["counts"]
    if "wall_s" not in out:
        raise SystemExit(f"{log}: no pytest summary line")
    return out


def src_lines(checkout):
    """{module path under src/: line count} of one checkout."""
    src = Path(checkout) / "src"
    return {str(p.relative_to(src)): len(p.read_text().splitlines())
            for p in sorted(src.rglob("*.py"))}


def param_defaults(checkout):
    """Parameters with a default, positional or keyword-only, over all
    functions under src/ of one checkout."""
    count = 0
    for path in sorted((Path(checkout) / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    return count


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare(sides, better):
    """Per metric of paired runs: unit, spread per side and the pairs in
    which the change is better (``better[name]`` is "lower" or "higher",
    lower if absent)."""
    out = {}
    for name, metric in sides["parent"][0]["result"]["metrics"].items():
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs]
                  for side, runs in sides.items()}
        sign = -1 if better.get(name) == "higher" else 1
        out[name] = {
            "unit": metric["unit"],
            "parent": spread(values["parent"]),
            "change": spread(values["change"]),
            "change_wins": sum(sign * c < sign * p for p, c in zip(
                values["parent"], values["change"])),
        }
    return out


def workload_summary(parent, change, better):
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        raise SystemExit("no seed was run on both sides")
    sides = {"parent": [parent[k] for k in seeds],
             "change": [change[k] for k in seeds]}
    out = {"pairs": len(seeds), "seeds": seeds, "metrics": compare(sides, better)}
    for side, runs in sides.items():
        out[f"failed_{side}"] = statistics.median(
            r["result"]["failed"] for r in runs)
        out[f"attempted_{side}"] = statistics.median(
            r["result"]["attempted"] for r in runs)
        out[f"failed_operations_{side}"] = sorted(
            {f[1] for r in runs for f in r["failures"]})
    return out


def layer_summary(parent, change, better):
    """The per-layer metrics of all traced pairs, or None without any."""
    pairs = [(w, k) for w in sorted(set(parent) & set(change))
             for k in sorted(set(parent[w]) & set(change[w]))]
    if not pairs:
        return None
    sides = {"parent": [parent[w][k] for w, k in pairs],
             "change": [change[w][k] for w, k in pairs]}
    return {"pairs": len(pairs),
            "runs": [f"{w} seed {k}" for w, k in pairs],
            "metrics": compare(sides, better)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--tier1", nargs=2, required=True,
                   metavar=("PARENT_LOG", "CHANGE_LOG"),
                   help="saved output of the Tier-1 suite run with "
                        "--durations=5 on each side")
    args = p.parse_args(argv)
    parent, change = load_runs(args.parent, 0), load_runs(args.change, 0)
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    modules = {"parent": src_lines(args.parent),
               "change": src_lines(args.change)}
    out = {
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "nproc": os.cpu_count()},
        "src_lines": {side: sum(lines.values())
                      for side, lines in modules.items()},
        "src_module_lines": modules,
        "src_param_defaults": {"parent": param_defaults(args.parent),
                               "change": param_defaults(args.change)},
        "tier1": {"parent": tier1(args.tier1[0]),
                  "change": tier1(args.tier1[1])},
        "workloads": {w: workload_summary(parent[w], change[w], better)
                      for w in sorted(set(parent) & set(change))},
        "per_layer": layer_summary(load_runs(args.parent, 1),
                                   load_runs(args.change, 1), better),
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
