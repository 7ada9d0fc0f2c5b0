"""Smoke tests: tools/calibrate.py's add-cost, rank and weights reports.

They time kernels, so they assert each report's shape, not any timing:
add-cost gives one line per product shape and the median addition cost
beside ADD_COST; rank gives one line per conv naming the planned and the
fastest scheme; weights gives the GEMM rate, each fitted weight beside the
engine's, and how often each set of weights picks a scheme near the fastest.
"""

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
