"""Time set-up in a fresh process, so transform generation starts cold.

Reads model bytes on stdin and prints one JSON object of millisecond times.

  python3 perfbench/setup_probe.py pipeline --threads 2 --seed 1 < model
      model bytes -> load_model -> fuse -> pre_infer -> Session -> first run
  python3 perfbench/setup_probe.py components --threads 2 --seed 1 < model
      select_schemes, cold generate_transforms for every tile the plan
      uses, weight_transform and plan_memory, each timed on its own
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nanoinfer import (  # noqa: E402
    CpuBackend, Session, SchemeKind, from_nchw, fuse, generate_transforms,
    load_model, plan_memory, pre_infer, select_schemes,
)
from nanoinfer.winograd import DEFAULT_SPACING, weight_transform  # noqa: E402

from workloads import make_inputs  # noqa: E402


STAGES = ("graph.load", "graph.fuse", "preinference.pre_infer",
          "backend.session", "backend.first_run")


class Spans:
    """Timed spans relative to the probe's start."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.records: list[dict] = []

    def timed(self, name: str, fn, parent: str | None = "setup"):
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self.records.append({"id": name, "name": name, "parent": parent,
                             "start_ms": (start - self.origin) * 1e3,
                             "end_ms": (end - self.origin) * 1e3})
        return result

    def ms(self, name: str) -> float:
        return sum(r["end_ms"] - r["start_ms"] for r in self.records
                   if r["name"] == name)


def pipeline(data: bytes, threads: int, seed: int) -> dict:
    spans = Spans()

    def setup():
        g = spans.timed("graph.load", lambda: load_model(data))
        g = spans.timed("graph.fuse", lambda: fuse(g))
        backend = CpuBackend()
        plan = spans.timed("preinference.pre_infer",
                           lambda: pre_infer(g, [backend.spec()]))
        session = spans.timed("backend.session",
                              lambda: Session(plan, [backend], threads=threads))
        x = spans.timed("bench.make_input", lambda: {
            tid: from_nchw(arr) for tid, arr in make_inputs(g, seed)[0].items()})
        spans.timed("backend.first_run", lambda: session.run(x))
        session.close()

    spans.timed("setup", setup, parent=None)
    times = {name: spans.ms(name) for name in STAGES}
    times["setup"] = sum(times.values())  # excludes making the input
    return {"ms": times, "spans": spans.records}


def components(data: bytes) -> dict:
    spans = Spans()
    g = fuse(load_model(data))
    schemes = spans.timed("preinference.select_schemes",
                          lambda: select_schemes(g), parent=None)
    winograd = [(node, schemes[node.id]) for node in g.nodes
                if node.id in schemes
                and schemes[node.id].kind is SchemeKind.WINOGRAD]
    sizes = sorted({(s.tile, node.weights.shape[2]) for node, s in winograd})
    transforms = spans.timed(
        "winograd.generate",
        lambda: {key: generate_transforms(*key, DEFAULT_SPACING)
                 for key in sizes}, parent=None)
    spans.timed("winograd.weight_transform",
                lambda: [weight_transform(node.weights,
                                          transforms[(s.tile,
                                                      node.weights.shape[2])])
                         for node, s in winograd], parent=None)
    spans.timed("preinference.plan_memory",
                lambda: plan_memory(g, schemes=schemes), parent=None)
    times = {name: spans.ms(name) for name in
             ("preinference.select_schemes", "winograd.generate",
              "winograd.weight_transform", "preinference.plan_memory")}
    return {"ms": times, "spans": spans.records}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pipeline", "components"))
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    data = sys.stdin.buffer.read()
    if args.mode == "pipeline":
        result = pipeline(data, args.threads, args.seed)
    else:
        result = components(data)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
