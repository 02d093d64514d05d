"""Run the benchmark twice over ten seeds per workload and compare the two sets.

Usage, from the repository root:

    python3 perfbench/repeat.py [--runs 10] [--workload NAME ...] [--out perfbench/baseline.json]

Each run is its own process, with seeds 1..runs and BENCHMARK.json's
run_seconds. The workloads are run in two sets, one after the other. For
every end-to-end metric and set this prints the median of the runs and
the spread, the distance between the first and third quartile as a share
of the median, and marks a spread above a third of the metric's bound
(``setup_s`` excepted). It then prints by how much the second set's median
is worse than the first's, and marks a change beyond the bound. Last, one
``--trace 1`` run per workload at seed 1 gives the per-layer metrics and
self-time shares. ``--out`` writes all of it, with every run's provenance
and the share of the machine's CPU time a hypervisor gave to other guests
during the run (``steal_share``, from /proc/stat), as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def cpu_ticks() -> list[int]:
    """The machine-wide CPU counters (user, nice, system, idle, iowait, irq, softirq, steal)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return [0] * 8


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = cpu_ticks()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    delta = [b - a for a, b in zip(before, cpu_ticks())]
    steal = delta[7] / sum(delta) if sum(delta) else 0.0
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1]), steal


def summarise(values, bound) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {w: {"sets": []} for w in workloads}
    for number in range(1, SETS + 1):
        for workload in workloads:
            runs = []
            for seed in range(1, args.runs + 1):
                report, result, steal = run_once(workload, seed, seconds, 0)
                runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"], "ops": report["samples"]["ops"], "steal_share": steal,
                             "provenance": report["provenance"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"set {number} {workload} seed {seed}: correct={result['correct']} "
                      f"ops={report['samples']['ops']} steal={steal:.3f} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            stats = {name: summarise([r["metrics"][name] for r in runs], m["bound"]) for name, m in metrics.items()}
            for name, s in stats.items():
                flag = "" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "  <-- above a third of the bound"
                print(f"  {name:14s} median {s['median']:10.4f}  spread {s['spread']:.4f}  bound {s['bound']}{flag}",
                      flush=True)
            summary[workload]["sets"].append({"end_to_end": stats, "runs": runs})

    for workload in workloads:
        entry = summary[workload]
        first, second = (s["end_to_end"] for s in entry["sets"][:2])
        entry["second_set_worse_by"] = {}
        for name, m in metrics.items():
            change = second[name]["median"] / first[name]["median"] - 1
            worse = change if m["better"] == "lower" else -change
            entry["second_set_worse_by"][name] = worse
            flag = "" if worse <= m["bound"] else "  <-- beyond the bound"
            print(f"{workload} {name:14s} second set worse by {worse:+.4f}  bound {m['bound']}{flag}", flush=True)
        report, result, steal = run_once(workload, 1, seconds, 1)
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        entry["traced"] = {"seed": 1, "ops": report["traced"]["ops"], "spans": report["traced"]["spans"],
                           "absent_layers": report["traced"]["absent_layers"], "steal_share": steal,
                           "per_layer": layers,
                           "self_time_shares": {k: v for k, v in layers.items() if k.startswith("share.")}}
        shares = {k: round(v, 3) for k, v in entry["traced"]["self_time_shares"].items() if v >= 0.001}
        print(f"{workload} traced shares {shares} trace_overhead {layers['trace_overhead']:.3f}", flush=True)
    if args.out:
        doc = {"run_seconds": seconds, "seeds": list(range(1, args.runs + 1)), "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
