"""Smoke tests: tools/calibrate.py's add-cost, rank and weights reports.

They time kernels, so they assert each report's shape, not any timing:
add-cost gives one line per product shape and the median addition cost
beside ADD_COST; rank gives one line per conv naming the planned and the
fastest scheme; weights gives the GEMM rate, each fitted weight beside the
engine's, and how often each set of weights picks a scheme near the fastest.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from nanoinfer import kernels
from nanoinfer.graph import OpKind, fuse
from nanoinfer.presets import build_preset

ROOT = Path(__file__).resolve().parents[1]


def test_calibrate_add_cost_reports_each_shape():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "calibrate.py"), "add-cost",
         "--shapes", "128x64x256"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    num = r"-?[0-9.]+"
    assert re.fullmatch(
        rf"128x64x256: direct {num} ms, one level {num} ms \({num}x\), its "
        rf"products {num} ms; addition cost {num} multiplies; a level saves "
        rf"{num} per addition", lines[0]), lines[0]
    assert re.fullmatch(rf"median addition cost {num} \(ADD_COST is "
                        rf"{kernels.ADD_COST}\)", lines[1]), lines[1]


def test_calibrate_rank_lists_every_conv():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "calibrate.py"), "rank",
         "--preset", "resnet-mini", "--rounds", "1"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    convs = [n.id for n in fuse(build_preset("resnet-mini")).nodes
             if n.kind is OpKind.CONV2D]
    for conv in convs:
        row = [line for line in lines
               if line.startswith(f"resnet-mini {conv}: planned ")]
        assert len(row) == 1, conv
        assert ", fastest " in row[0]
    assert lines[-1].endswith(f"of {len(convs)} convs planned within 10% "
                              "or 0.02 ms of the fastest scheme")


def test_calibrate_weights_reports_every_fit():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "calibrate.py"), "weights",
         "--preset", "resnet-mini", "--rounds", "1"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"one GEMM multiply: \S+ ps", lines[0])
    for line, name in zip(lines[1:5], ("SMALL_PRODUCT_COST", "MOVE_COST",
                                       "SHUFFLE_COST", "CALL_COST")):
        assert re.fullmatch(rf"{name}: fitted \S+ \(engine \S+\)", line)
    totals = set()
    for line, label in zip(lines[5:7], ("fitted", "engine")):
        match = re.fullmatch(rf"{label} weights: cheapest scheme near the "
                             r"fastest on (\d+) of (\d+) convs; missed: .+",
                             line)
        assert match, line
        assert int(match[1]) <= int(match[2])
        totals.add(int(match[2]))
    assert len(totals) == 1 and totals.pop() > 0
    assert lines[7].startswith("fitted time / measured time: median miss x")
    assert len(lines) == 8


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_summary_of_canned_pairs():
    # tools/ab.py's summary arithmetic, on run records made up here (the
    # benchmark itself is not run)
    ab = load_ab()
    directions = ab.metric_directions()
    assert directions["latency_p90_ms"] == "lower"
    assert directions["accuracy_bits"] == "higher"
    parent_p90, change_p90 = [1.0, 2.0, 3.0, 4.0, 5.0], [0.9, 2.5, 2.0, 4.0, 1.0]
    parent_bits, change_bits = [20.0, 21.0, 22.0, 23.0, 24.0], [21.0] * 5
    runs = []
    for i in range(5):
        for side, p90, bits in (("parent", parent_p90[i], parent_bits[i]),
                                ("change", change_p90[i], change_bits[i])):
            runs.append({"pair": i + 1, "workload": "w", "side": side,
                         "seed": 10 + i, "metrics": {
                             "latency_p90_ms": p90, "accuracy_bits": bits}})
    runs.append({"pair": 6, "workload": "w", "side": "parent", "seed": 15,
                 "metrics": {"latency_p90_ms": 100.0}})  # no partner
    summary = ab.summarize(runs, directions)
    p90 = summary["w"]["latency_p90_ms"]
    assert (p90["parent_median"], p90["change_median"]) == (3.0, 2.0)
    assert (p90["parent_q1"], p90["parent_q3"]) == (2.0, 4.0)
    assert (p90["parent_min"], p90["parent_max"]) == (1.0, 5.0)
    assert (p90["change_min"], p90["change_max"]) == (0.9, 4.0)
    assert (p90["pairs"], p90["change_better"], p90["change_worse"]) == (
        5, 3, 1)
    bits = summary["w"]["accuracy_bits"]
    assert (bits["change_better"], bits["change_worse"]) == (1, 3)
    assert bits["per_seed"]["12"] == {"parent": 22.0, "change": 21.0}
    assert set(summary["w"]) == {"latency_p90_ms", "accuracy_bits"}
    assert ab.quartiles([1.0, 2.0]) == (1.25, 1.75)
    assert ab.quartiles([7.0]) == (7.0, 7.0)
