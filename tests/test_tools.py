"""Smoke test: tools/calibrate.py's ranking report runs on a preset.

It times every scheme of every conv, so it asserts the report's shape, not
any timing: one line per conv naming the planned and the fastest scheme.
"""

import os
import subprocess
import sys
from pathlib import Path

from nanoinfer.graph import OpKind, fuse
from nanoinfer.presets import build_preset

ROOT = Path(__file__).resolve().parents[1]


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
