#!/usr/bin/env python3
"""Steadiness check for the repository benchmark: runs run.py once per
seed on each workload and prints, for every end-to-end metric, the median
and quartiles of the per-run values and the interquartile spread as a
share of the median, next to the bound BENCHMARK.json gives it. This is
the evidence for those bounds.

    python3 perfbench/steady.py --seeds 10 --seconds 20
    python3 perfbench/steady.py --workloads pow_jit --seeds 5

A report with the host and every raw value is written to
.bench_build/perfbench/steady-<workloads>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    return lines[-2], lines[-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"runs": {}}
    for workload in a.workloads.split(","):
        values = {m: [] for m in bounds}
        shares = set()
        orders = {}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            info, result = run_once(workload, seed, a.seconds, 0)
            report["host"] = info["host"]
            report["runs"].setdefault(workload, []).append(
                {"seed": seed, "result": result, "info": info})
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            shares.add(result["failed"] / result["attempted"])
            for t in info["transitions"]:
                orders[" ".join(t)] = orders.get(" ".join(t), 0) + 1
            print("%-12s seed %-3d %s  attempted %d failed %d" % (
                workload, seed, "  ".join(
                    "%s=%.6g" % (m, values[m][-1]) for m in bounds),
                result["attempted"], result["failed"]), flush=True)
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print("%-12s %-12s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %5.1f%% (bound %4.1f%%)%s" % (
                      workload, m, med, q1, q3, spread * 100,
                      bounds[m] * 100,
                      "" if spread <= bounds[m] / 3 else "  <- over 1/3"))
        for order, n in sorted(orders.items()):
            print("%-12s %4d rounds with tier transitions: %s" % (
                workload, n, order or "(none)"))
        print("%-12s failed share: %s" % (
            workload, ", ".join(sorted("%.6g" % s for s in shares))))
    path = os.path.join(ROOT, ".bench_build", "perfbench",
                        "steady-%s.json" % a.workloads.replace(",", "-"))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("report: " + os.path.relpath(path, ROOT))


if __name__ == "__main__":
    main()
