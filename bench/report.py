"""Run every workload through run.py and print each metric by name and unit.

    python3 bench/report.py --seeds 1-10 --sets 2 --traced --baseline bench/baseline.json

Each (workload, seed) is a separate `run.py --trace 0` process.  The table
gives each end-to-end metric's median over the seeds and its spread: the
distance between the first and third quartiles as a share of the median.
--traced adds one `--trace 1` run per workload, on the first seed, and prints
its per-layer metrics.  --sets N repeats all of it N times, one whole set
after the other, and then compares every later set with the first: each
median may be worse by at most the metric's bound, and the traced counts
must repeat exactly.  --baseline writes every set, the comparison and the
environment to a JSON file.  Run from the root of a source checkout, like
run.py.
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
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py process: (last-line result, environment it printed)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exit {proc.returncode}: {proc.stderr.strip()}")
    env = next((json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("environment ")), {})
    return json.loads(lines[-1]), env


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 with fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


COUNT_UNITS = ("count", "B")


def measure_set(spec: dict, workloads: list[str], seeds: list[int], seconds: int, traced: bool) -> tuple[dict, dict]:
    """One set of runs: (per-workload results, environment)."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out, env = {}, {}
    for name in workloads:
        runs = []
        for seed in seeds:
            result, env = run_once(name, seed, seconds, 0)
            runs.append(result)
        entry = {"correct": all(r["correct"] for r in runs),
                 "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        print(f"{name}: {len(runs)} runs, correct {entry['correct']}, fail_ratio {entry['fail_ratio']:.4g}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            s = spread(values)
            entry["end_to_end"][metric] = {"unit": unit, "median": statistics.median(values), "spread": s,
                                           "values": values}
            flag = "" if s <= bound / 3 else f"  (spread above a third of bound {bound})"
            print(f"  {metric:<12} {statistics.median(values):12.5g} {unit:<3} spread {s:6.2%}{flag}", flush=True)
        if traced:
            result, _ = run_once(name, seeds[0], seconds, 1)
            entry["traced"] = {"seed": seeds[0], "correct": result["correct"],
                               "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                               "units": {k: v["unit"] for k, v in result["metrics"].items()}}
            for k, v in result["metrics"].items():
                if v["value"]:
                    print(f"    {k:<40} {v['value']:14.6g} {v['unit']}", flush=True)
        out[name] = entry
    return out, env


def compare(spec: dict, first: dict, later: dict) -> tuple[dict, bool]:
    """Later set against the first: median change per metric, and traced counts."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table, ok = {}, True
    for name, entry in later.items():
        rows = {}
        for metric, bound in bounds.items():
            a, b = first[name]["end_to_end"][metric]["median"], entry["end_to_end"][metric]["median"]
            worse = (b - a) / a if better[metric] == "lower" else (a - b) / a
            rows[metric] = {"first": a, "later": b, "worse_by": worse, "bound": bound, "ok": worse <= bound}
            ok &= worse <= bound
            print(f"  {name:<12} {metric:<12} {a:10.5g} -> {b:10.5g}  worse by {worse:+7.2%} (bound {bound:.0%})"
                  f"{'' if worse <= bound else '  NOT WITHIN BOUND'}")
        if "traced" in entry:
            t0, t1 = first[name]["traced"], entry["traced"]
            counts = [k for k, u in t1["units"].items() if u in COUNT_UNITS]
            differ = [k for k in counts if t0["per_layer"][k] != t1["per_layer"][k]]
            rows["traced_counts_identical"] = not differ
            ok &= not differ
            print(f"  {name:<12} traced counts {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        table[name] = rows
    return table, ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1", help="one seed or an inclusive range such as 1-10")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--baseline", type=Path, default=None)
    args = p.parse_args(argv)
    seeds = _seeds(args.seeds)

    report = {"seeds": seeds, "run_seconds": args.seconds, "date": time.strftime("%Y-%m-%d"), "sets": []}
    ok = True
    for i in range(args.sets):
        print(f"set {i + 1} of {args.sets}", flush=True)
        workloads, report["environment"] = measure_set(spec, args.workloads.split(","), seeds, args.seconds,
                                                       args.traced)
        ok &= all(e["correct"] and e.get("traced", {}).get("correct", True) for e in workloads.values())
        report["sets"].append(workloads)
    if args.sets > 1:
        report["agreement"] = []
        for later in report["sets"][1:]:
            print("later set against the first")
            table, agree = compare(spec, report["sets"][0], later)
            report["agreement"].append(table)
            ok &= agree
    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
