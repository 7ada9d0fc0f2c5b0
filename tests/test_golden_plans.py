"""Every preset's plan, as `dump-plan` prints it on each backend choice,
equals its golden file in tests/golden/ (compared as parsed JSON).

Regenerate the files with

    PYTHONPATH=src python tests/test_golden_plans.py

and list in CHANGES.md what changed in each plan.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from nanoinfer.cli import main
from nanoinfer.presets import PRESETS

GOLDEN = pathlib.Path(__file__).parent / "golden"
BACKENDS = ("cpu", "sim", "auto")
CASES = [(preset, backend) for preset in sorted(PRESETS)
         for backend in BACKENDS]


def golden_path(preset: str, backend: str) -> pathlib.Path:
    return GOLDEN / f"plan_{preset}_{backend}.json"


def dump_plan(preset: str, backend: str) -> str:
    """`gen preset` at seed 0, then `dump-plan --backend backend` of it."""
    with tempfile.TemporaryDirectory() as tmp:
        model = str(pathlib.Path(tmp) / "model.ninf")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["gen", preset, model]) == 0
            out.seek(0)
            out.truncate()
            assert main(["dump-plan", "--model", model,
                         "--backend", backend]) == 0
    return out.getvalue()


@pytest.mark.parametrize("preset,backend", CASES)
def test_plan_matches_golden(preset, backend):
    want = json.loads(golden_path(preset, backend).read_text())
    assert json.loads(dump_plan(preset, backend)) == want


if __name__ == "__main__":
    for preset, backend in CASES:
        golden_path(preset, backend).write_text(dump_plan(preset, backend))
        print(golden_path(preset, backend), file=sys.stderr)
