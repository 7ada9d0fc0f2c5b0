"""Smoke test: the benchmark in perfbench/ still runs against the engine.

perfbench/ drives the public API (Session, conv_sliding, conv_winograd,
weight_transform, ...) with its own keywords. A change to any of them that
the benchmark does not follow would break it without failing another test.
Each run takes about 5 s: a 1 s timed phase plus set-up probes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload,trace", [("resnet-32", "0"),
                                            ("mobilenet-32", "1")])
def test_benchmark_runs_correct(workload, trace, tmp_path):
    # run a copy, so the trace it writes lands in tmp_path, not the tree
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", trace],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
