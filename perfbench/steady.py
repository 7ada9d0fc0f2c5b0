"""Steadiness check: do two sets of runs of the same code agree?

  python3 perfbench/steady.py --runs 10

Runs every workload of BENCHMARK.json `--runs` times per set for its
run_seconds, each run with its own seed (set A: 1..N, set B: 1001..1000+N),
alternating A and B so drift hits both sets alike. For each workload and
end-to-end metric it prints the two medians, each set's spread (quartile
distance over median, as statistics.quantiles(values, n=4) gives the
quartiles) and whether

  spread_ok: both sets' spreads are within the metric's bound, setup_s's
             excepted: it is judged by agreement alone, as set-up time is
             one short cold measurement per interpreter and follows the
             host's speed, so its spread is printed but not held to the
             bound, and
  agree:     the two medians differ by at most the bound, in either
             direction, as a share of set A's median.

It writes everything, with the raw values, to perfbench/out/steady.json.
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
SEED_BASE = {"A": 1, "B": 1001}
OUT = HERE / "out" / "steady.json"


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect output")
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    values = {s: {w: {} for w in workloads} for s in SEED_BASE}
    for i in range(args.runs):
        order = "AB" if i % 2 == 0 else "BA"
        for workload in workloads:
            for s in order:
                result = run_once(workload, SEED_BASE[s] + i,
                                  bench["run_seconds"])
                for name, entry in result["metrics"].items():
                    values[s][workload].setdefault(name, []).append(entry["value"])
                print(f"set {s} run {i} {workload} done", file=sys.stderr,
                      flush=True)

    rows = []
    steady = True
    for workload in workloads:
        for m in bench["end_to_end"]:
            row = {"workload": workload, "metric": m["name"], "unit": m["unit"],
                   "bound": m["bound"]}
            for s in SEED_BASE:
                vals = values[s][workload][m["name"]]
                row[s] = {"median": statistics.median(vals),
                          "spread": spread(vals), "values": vals}
            row["spread_ok"] = m["name"] == "setup_s" or all(
                row[s]["spread"] <= m["bound"] for s in SEED_BASE)
            a, b = row["A"]["median"], row["B"]["median"]
            row["agree"] = abs(b - a) / a <= m["bound"]
            steady &= row["spread_ok"] and row["agree"]
            rows.append(row)

    print(f"{'workload':<13} {'metric':<16} {'unit':<6} {'bound':>6} "
          + " ".join(f"{'med ' + s:>12} {'spread ' + s:>9}" for s in SEED_BASE)
          + f"  spread_ok agree  (n={args.runs} runs per set)")
    for row in rows:
        print(f"{row['workload']:<13} {row['metric']:<16} {row['unit']:<6} "
              f"{row['bound']:>6} "
              + " ".join(f"{row[s]['median']:>12.6g} {row[s]['spread']:>9.4f}"
                         for s in SEED_BASE)
              + f"  {str(row['spread_ok']):<9} {row['agree']}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"runs": args.runs,
                               "seconds": bench["run_seconds"],
                               "rows": rows}, indent=1))
    print(f"steady: {steady}; written to {OUT}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
