"""Paired benchmark runs of a git revision against the working tree.

  python3 tools/ab.py REV [--out BENCH_N.json] [--change "what changed"]

`git archive`s REV into a temporary directory and runs the benchmark,
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`, in
that tree ("parent") and in this one ("change"), each run a fresh
interpreter.  The workloads and the run length T are BENCHMARK.json's.
There are PAIRS pairs; pair i runs seed i on every workload in both trees,
odd pairs the parent first, even pairs the change.  The output file has
BENCH_19's shape: per workload and end-to-end metric the parent's and the
change's medians, the parent's quartiles (linear interpolation), both
sides' extremes and how many pairs the change won or lost by the metric's
direction in BENCHMARK.json, accuracy_bits per seed, every run's record
and the machine record of the first run.  It also records each tree's
output digests: `nanoinfer run --format json`'s output_sha256 for every
preset, generated at seed 0, with --backend cpu, sim and auto, one BLAS
thread, and whether the two trees' are equal.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10  # fewer pairs cannot show a gain in nine of ten


def benchmark(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def metric_directions(root: Path = ROOT) -> dict[str, str]:
    """End-to-end metric name -> "lower" or "higher", from BENCHMARK.json."""
    return {m["name"]: m["better"] for m in benchmark(root)["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile by linear interpolation (one value: it)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """Per workload and metric, the parent/change summary of paired runs.

    Each run is {"pair", "workload", "side" ("parent" or "change"), "seed",
    "metrics": {name: value}}.  A pair counts for a metric only when both
    its sides report it; the change wins a pair when its value is better
    than the parent's in the metric's direction, loses when worse.
    """
    summary: dict[str, dict] = {}
    by_key = {(r["workload"], r["pair"], r["side"]): r for r in runs}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = sorted({r["pair"] for r in runs if r["workload"] == workload})
        out = summary[workload] = {}
        for name, better in directions.items():
            both = [(by_key[(workload, i, "parent")],
                     by_key[(workload, i, "change")]) for i in pairs
                    if (workload, i, "parent") in by_key
                    and (workload, i, "change") in by_key
                    and name in by_key[(workload, i, "parent")]["metrics"]
                    and name in by_key[(workload, i, "change")]["metrics"]]
            if not both:
                continue
            par = [p["metrics"][name] for p, _ in both]
            chg = [c["metrics"][name] for _, c in both]
            sign = 1 if better == "higher" else -1
            q1, q3 = quartiles(par)
            entry = {
                "parent_median": statistics.median(par),
                "change_median": statistics.median(chg),
                "parent_q1": q1, "parent_q3": q3,
                "parent_min": min(par), "parent_max": max(par),
                "change_min": min(chg), "change_max": max(chg),
                "pairs": len(both),
                "change_better": sum(sign * (c - p) > 0
                                     for p, c in zip(par, chg)),
                "change_worse": sum(sign * (c - p) < 0
                                    for p, c in zip(par, chg)),
            }
            if name == "accuracy_bits":
                entry["per_seed"] = {
                    str(p["seed"]): {"parent": p["metrics"][name],
                                     "change": c["metrics"][name]}
                    for p, c in both}
            out[name] = entry
    return summary


def archive(rev: str, dest: Path) -> str:
    """Extract `git archive rev` into dest; return rev's short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                           capture_output=True, text=True, check=True
                           ).stdout.strip()
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return short


# run in a tree's own interpreter: each preset's output_sha256 by backend
DIGESTS = """
import contextlib, io, json, pathlib, tempfile
from nanoinfer.cli import main
from nanoinfer.presets import PRESETS

def cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if main(list(args)):
            raise SystemExit(f"nanoinfer {' '.join(args)} failed")
    return out.getvalue()

digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for preset in sorted(PRESETS):
        model = str(pathlib.Path(tmp) / "model.ninf")
        cli("gen", preset, model)
        for backend in ("cpu", "sim", "auto"):
            digests[f"{preset}/{backend}"] = json.loads(cli(
                "run", "--model", model, "--backend", backend, "--runs",
                "1", "--warmup", "0", "--format", "json"))["output_sha256"]
print(json.dumps(digests))
"""


def output_digests(tree: Path) -> dict[str, str]:
    """"preset/backend" -> output_sha256 of `nanoinfer run` in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", DIGESTS], cwd=tree,
                          env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{tree}: output digests failed:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run_once(tree: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """One benchmark run in tree: its result line, with each metric as its
    value, and its machine record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        timeout=3 * seconds + 600)
    if proc.returncode:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["metrics"] = {name: e["value"]
                         for name, e in result["metrics"].items()}
    return result, json.loads(lines[0]).get("machine", {})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the parent revision, e.g. HEAD~1")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH.json")
    ap.add_argument("--change", default="",
                    help="one line saying what the change is")
    args = ap.parse_args(argv)

    spec = benchmark()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs: list[dict] = []
    machine: dict = {}
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        parent = Path(tmp)
        short = archive(args.rev, parent)
        trees = {"parent": parent, "change": ROOT}
        for pair in range(1, PAIRS + 1):
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            for workload in workloads:
                for side in order:
                    result, record = run_once(trees[side], workload, pair,
                                              seconds)
                    machine = machine or record
                    runs.append({"pair": pair, "workload": workload,
                                 "side": side, "seed": pair, **result})
                    print(f"pair {pair} {workload} {side}: "
                          f"{json.dumps(result['metrics'])}", flush=True)
        digests = {side: output_digests(tree) for side, tree in trees.items()}
    bench = {
        "change": args.change,
        "parent_commit": short,
        "machine": machine,
        "method": (
            f"tools/ab.py {args.rev}: perfbench/run.py --seconds {seconds:g} "
            f"--trace 0, the parent from a git archive of {short} and the "
            f"change from the working tree, each run a fresh interpreter, "
            f"{PAIRS} pairs per workload (seeds 1-{PAIRS}), odd pairs parent "
            f"first. Quartiles by linear interpolation."),
        "output_sha256": {**digests,
                          "equal": digests["parent"] == digests["change"]},
        "trace0_summary": summarize(runs, metric_directions()),
        "trace0_runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"written {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
