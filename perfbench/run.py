"""Benchmark for weylkit: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout (the program is imported from ./src).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Result and
trace files go to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
NAMES = ("exact", "flags", "certificates", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it")
    return p.parse_args(argv)


def load_workload(name, seed):
    """Imports numpy, the oracles and weylkit (inside set-up)."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import weylkit
    if Path(weylkit.__file__).resolve().parent != ROOT / "src" / "weylkit":
        raise SystemExit(f"weylkit imported from {weylkit.__file__}, "
                         f"not from {ROOT / 'src'}")
    wl = workloads.WORKLOADS[name](ROOT, seed)
    wl.setup()
    return wl


def timed_setup(name, seed):
    t0 = time.perf_counter()
    wl = load_workload(name, seed)
    elapsed = time.perf_counter() - t0
    wl.close()
    return elapsed


def child_setups(args):
    """Set-up time, measured in fresh processes so imports count."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up failed: {out.stderr[-800:]}")
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


class Recorder:
    """Per-operation durations and counters; with tracing on, also one
    span per call (name, layer, start, end, parent)."""

    def __init__(self, trace):
        self.trace = trace
        self.spans = []
        self.rounds = []          # one list of op records per round
        self.failures = []

    def run_round(self, wl, label):
        from checks import CheckFailed
        records = []
        parent = len(self.spans)
        if self.trace:
            self.spans.append({"id": parent, "parent": None,
                               "name": f"{label} round", "layer": "bench",
                               "start": time.perf_counter()})
        for op in wl.round():
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # an operation that fails is counted
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            counters = {}
            if error is None and op.count is not None:
                counters = op.count(result)
            if error is None and op.check is not None:
                try:
                    op.check(result)
                except CheckFailed as exc:
                    error = f"wrong answer: {exc}"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            rec = {"workload": wl.name, "name": op.name, "layer": op.layer,
                   "kind": op.kind, "dt": t1 - t0, "ok": error is None,
                   "fault": op.fault, "counters": counters}
            records.append(rec)
            if error is not None:
                self.failures.append((wl.name, op.name, op.fault, error))
            if self.trace:
                self.spans.append({"id": len(self.spans), "parent": parent,
                                   "name": op.name, "layer": op.layer,
                                   "start": t0, "end": t1, "ok": error is None})
        if self.trace:
            self.spans[parent]["end"] = time.perf_counter()
        self.rounds.append(records)
        return records

    def all_records(self):
        return [r for rnd in self.rounds for r in rnd]

    def summary(self):
        recs = self.all_records()
        correct = not any(not fault for _, _, fault, _ in self.failures)
        return correct, len(recs), sum(not r["ok"] for r in recs)


def end_to_end(args):
    setup_s = child_setups(args)
    wl = load_workload(args.workload, args.seed)
    rec = Recorder(trace=False)
    try:
        start = time.perf_counter()
        while True:
            rec.run_round(wl, args.workload)
            if (len(rec.rounds) >= wl.min_rounds
                    and time.perf_counter() - start >= args.seconds):
                break
        peak = wl.peak_rss_mb()
    finally:
        wl.close()
    walls = [sum(r["dt"] for r in rnd) for rnd in rec.rounds]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "call_p50_s": (statistics.median(r["dt"] for r in rec.all_records()),
                       "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return rec, metrics, {"rounds": len(walls), "round_walls_s": walls}


def per_layer(args):
    """One traced round of every workload, the named one first."""
    import workloads
    rec = Recorder(trace=True)
    extra = {}
    order = [args.workload] + [n for n in NAMES if n != args.workload]
    for name in order:
        wl = load_workload(name, args.seed)
        try:
            records = rec.run_round(wl, name)
            if name == args.workload:
                extra["traced_wall_s"] = sum(r["dt"] for r in records)
            if isinstance(wl, workloads.Cli):
                extra["cli.startup_s"] = wl.startup_probe()
                t0 = time.perf_counter()
                try:
                    extra["cli.inprocess_s"] = wl.inprocess_pass()
                except Exception as exc:
                    rec.failures.append(("cli", "in-process pass", False,
                                         f"{type(exc).__name__}: {exc}"))
                    extra["cli.inprocess_s"] = time.perf_counter() - t0
        finally:
            wl.close()
    return rec, layer_metrics(rec.all_records(), extra), extra


def layer_metrics(recs, extra):
    def of(kind):
        return [r for r in recs if r["kind"] == kind]

    def total(kind):
        return sum(r["dt"] for r in of(kind))

    def counted(kind, key):
        return sum(r["counters"].get(key, 0) for r in of(kind))

    def rate(kind):
        return (counted(kind, "calls") or len(of(kind))) / total(kind)

    builds = of("build") + of("build_F4")
    return {
        "coxeter.build_s": (total("build"), "s"),
        "coxeter.build_F4_s": (total("build_F4"), "s"),
        "coxeter.elements_per_s": (
            sum(r["counters"].get("elements", 0) for r in builds)
            / sum(r["dt"] for r in builds), "1/s"),
        "coxeter.leq_masks_s": (total("leq_masks"), "s"),
        "coxeter.bruhat_queries_per_s": (rate("bruhat_leq"), "1/s"),
        "thickenings.count_s": (total("count"), "s"),
        "thickenings.enumerate_s": (total("enumerate"), "s"),
        "thickenings.found": (counted("count", "found")
                              + counted("enumerate", "found"), "count"),
        "configurations.checks_per_s": (rate("config"), "1/s"),
        "symspace.distances_per_s": (rate("distance"), "1/s"),
        "symspace.horofunction_s": (total("horofunction"), "s"),
        "flagdyn.positions_per_s": (rate("position"), "1/s"),
        "flagdyn.limit_sample_s": (total("limit_sample"), "s"),
        "flagdyn.flags_per_word": (counted("limit_sample", "flags")
                                   / counted("limit_sample", "words"), "1"),
        "flagdyn.membership_s": (total("membership"), "s"),
        "flagdyn.probe_s": (total("probe"), "s"),
        "flagdyn.probe_words": (counted("probe", "words"), "count"),
        "morse.schottky_s": (total("schottky"), "s"),
        "morse.triples_checked": (counted("schottky", "triples"), "count"),
        "morse.orbit_growth_s": (total("orbit_growth"), "s"),
        "morse.defect_report_s": (total("defect"), "s"),
        "cli.startup_s": (extra["cli.startup_s"], "s"),
        "cli.inprocess_s": (extra["cli.inprocess_s"], "s"),
        "cli.stdout_bytes": (counted("subprocess", "bytes"), "bytes"),
    }


def write_outputs(args, rec, result, extra):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"result": result, "extra": extra,
         "failures": [list(f) for f in rec.failures]}, indent=1))
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"spans": rec.spans, "records": rec.all_records()}))


def run_all(args):
    """Every workload in its own process; one table, then one JSON line."""
    out = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
            text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.splitlines()[-1])
        out[name] = res
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "weylkit" / "__init__.py").is_file():
        print(f"error: no weylkit sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(args.workload, args.seed)}))
        return 0
    if args.workload == "all":
        return run_all(args)
    rec, metrics, extra = (per_layer if args.trace else end_to_end)(args)
    correct, attempted, failed = rec.summary()
    for wl_name, op, fault, error in rec.failures:
        tag = "known fault" if fault else "UNEXPECTED"
        print(f"failed ({tag}) {wl_name}/{op}: {error[:300]}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    write_outputs(args, rec, result, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
