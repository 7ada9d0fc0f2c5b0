"""Command-line entry points: gen, run, compare, winograd-dump, dump-plan."""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .backend import CpuBackend, Session, _as_tensor, _packed_view, resolve_backend
from .errors import EngineError
from .graph import Graph, OpKind, fuse, load_model, save_model
from .preinference import (
    OpStep, conv_schemes, load_cost_models, packed_bytes, pre_infer,
    _conv_params,
)
from .presets import PRESETS, build_preset
from .tensor import Tensor, from_nchw, pack_nc4hw4
from .winograd import DEFAULT_SPACING, generate_transforms

log = logging.getLogger("nanoinfer")

# timed runs of each scheme per layer in compare; the median is reported,
# since one run can catch a BLAS thread stall many times the GEMM's length
COMPARE_ROUNDS = 7


@dataclass
class BenchReport:
    """Latency statistics over measured runs; warm-up is never included."""

    latencies_ms: list[float]
    backend: str
    scheme_breakdown: dict[str, int] = field(default_factory=dict)
    warmup_runs: int = 0

    @property
    def mean_ms(self) -> float:
        return statistics.fmean(self.latencies_ms)

    @property
    def min_ms(self) -> float:
        return min(self.latencies_ms)

    @property
    def max_ms(self) -> float:
        return max(self.latencies_ms)

    def percentile(self, q: float) -> float:
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def to_dict(self) -> dict:
        return {
            "runs": len(self.latencies_ms),
            "warmup": self.warmup_runs,
            "latencies_ms": self.latencies_ms,
            "mean_ms": self.mean_ms,
            "min_ms": self.min_ms,
            "max_ms": self.max_ms,
            "p50_ms": self.percentile(50),
            "p90_ms": self.percentile(90),
            "backend": self.backend,
            "scheme_breakdown": self.scheme_breakdown,
        }


def _setup_logging() -> None:
    level = os.environ.get("NANO_INFER_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_graph(path: str) -> Graph:
    with open(path, "rb") as fh:
        return load_model(fh.read())


def _default_input(g: Graph, seed: int) -> Tensor:
    tid = g.inputs[0]
    shape = tuple(g.tensor_shapes[tid].dims)
    rng = np.random.default_rng(seed)
    return from_nchw(rng.uniform(-1.0, 1.0, size=shape).astype(np.float32))


def _read_input(path: str, g: Graph) -> Tensor:
    shape = tuple(g.tensor_shapes[g.inputs[0]].dims)
    count = int(np.prod(shape))
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != count:
        raise EngineError(
            f"input file holds {raw.size} floats, model expects {count}"
        )
    return from_nchw(raw.reshape(shape))


def _make_backends(which: str, cost_path: str | None):
    overrides = load_cost_models(cost_path) if cost_path else {}
    cpu_kwargs = {"cost": overrides["cpu"]} if "cpu" in overrides else {}
    cpu = CpuBackend(**cpu_kwargs)
    if which == "cpu":
        return [cpu]
    sim_kwargs = {"cost": overrides["sim"]} if "sim" in overrides else {}
    sim = resolve_backend("sim", **sim_kwargs)
    return [cpu, sim]


def cmd_gen(args) -> int:
    g = build_preset(args.preset, seed=args.seed)
    data = save_model(g)
    with open(args.out, "wb") as fh:
        fh.write(data)
    log.info("wrote %s (%d bytes, %d nodes)", args.out, len(data), len(g.nodes))
    print(f"{args.out}: {len(data)} bytes, {len(g.nodes)} nodes")
    return 0


def _session_for(args, g: Graph):
    desired = getattr(args, "backend", "cpu")
    backends = _make_backends("cpu" if desired == "cpu" else "all",
                              getattr(args, "cost_model", None))
    specs = [b.spec() for b in backends]
    force = "sim" if desired == "sim" else None
    plan = pre_infer(g, specs, spacing=args.f, force_backend=force)
    chosen = "sim" if "sim" in set(plan.assignment.values()) else "cpu"
    session = Session(plan, backends)
    return session, plan, chosen


def cmd_run(args) -> int:
    if args.runs < 1:
        raise EngineError(f"--runs must be at least 1, got {args.runs}")
    g = fuse(_load_graph(args.model))
    session, plan, chosen = _session_for(args, g)
    tensor = (_read_input(args.input, g) if args.input
              else _default_input(g, args.seed))
    for _ in range(args.warmup):
        session.run(tensor)
    latencies = []
    outputs = None
    for _ in range(args.runs):
        start = time.perf_counter()
        outputs, step_times = session.run_timed(tensor)
        wall = (time.perf_counter() - start) * 1e3
        surcharge = sum(ms for _, ms in step_times) - wall
        latencies.append(wall + max(surcharge, 0.0))
    breakdown: dict[str, int] = {}
    for scheme in plan.schemes.values():
        breakdown[scheme.label()] = breakdown.get(scheme.label(), 0) + 1
    report = BenchReport(latencies, chosen, breakdown, warmup_runs=args.warmup)
    digest = hashlib.sha256()
    for tid in sorted(outputs):
        digest.update(outputs[tid].data.tobytes())
    payload = {"report": report.to_dict(),
               "output_sha256": digest.hexdigest()}
    if args.dump_plan:
        payload["plan"] = plan.dump()
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        r = report.to_dict()
        print(f"backend={r['backend']} runs={r['runs']} warmup={r['warmup']}")
        print(f"mean={r['mean_ms']:.3f}ms min={r['min_ms']:.3f}ms "
              f"max={r['max_ms']:.3f}ms p50={r['p50_ms']:.3f}ms "
              f"p90={r['p90_ms']:.3f}ms")
        print(f"schemes={r['scheme_breakdown']}")
        print(f"output sha256={payload['output_sha256'][:16]}...")
    session.close()
    return 0


def replay_cpu(g: Graph, plan, tensor: Tensor) -> dict:
    """Functional CPU replay of a plan; returns tensor id -> packed value."""
    cpu = CpuBackend()
    values = {g.inputs[0]: pack_nc4hw4(tensor)}
    for step in plan.steps:
        if not isinstance(step, OpStep):
            continue
        node = step.node
        out_shape = g.tensor_shapes[node.outputs[0]]
        buf = np.zeros(packed_bytes(out_shape) // 4, dtype=np.float32)
        execution = cpu.create_execution(step, plan, g.tensor_shapes)
        execution.run([values[t].data.reshape(-1) for t in node.inputs], [buf])
        values[node.outputs[0]] = _as_tensor(_packed_view(buf, out_shape),
                                             out_shape)
    return values


def cmd_compare(args) -> int:
    g = fuse(_load_graph(args.model))
    cpu = CpuBackend()
    plan = pre_infer(g, [cpu.spec()], spacing=args.f)
    tensor = (_read_input(args.input, g) if args.input
              else _default_input(g, args.seed))
    values = replay_cpu(g, plan, tensor)

    rows = []
    worst = 0.0
    for node in g.nodes:
        if node.kind is not OpKind.CONV2D:
            continue
        x = values[node.inputs[0]].data.reshape(-1)
        nbytes = packed_bytes(g.tensor_shapes[node.outputs[0]])
        executions, outs = {}, {}
        for scheme in conv_schemes(_conv_params(node)):
            step = OpStep(node, scheme, cpu.name, None)
            execution = cpu.create_execution(step, plan, g.tensor_shapes)
            out = np.zeros(nbytes // 4, dtype=np.float32)
            # the warm-up run caches the weight transform, as pre_infer does
            # for the planned tile, so the timed runs leave it out
            execution.run([x], [out])
            executions[scheme.label()] = execution
            outs[scheme.label()] = out
        labels = list(executions)
        times = {label: [] for label in labels}
        for r in range(COMPARE_ROUNDS):
            # rotate the order so that no scheme always runs first
            for label in labels[r % len(labels):] + labels[:r % len(labels)]:
                start = time.perf_counter()
                executions[label].run([x], [outs[label]])
                times[label].append((time.perf_counter() - start) * 1e3)
        timings = {label: statistics.median(t) for label, t in times.items()}
        base = outs["sliding"].astype(np.float64)
        scale = float(np.max(np.abs(base))) + 1e-12
        deviation = max(
            float(np.max(np.abs(o.astype(np.float64) - base))) / scale
            for o in outs.values()
        )
        worst = max(worst, deviation)
        rows.append({
            "layer": node.id,
            "chosen": plan.schemes[node.id].label(),
            "fastest": min(timings, key=timings.get),
            "max_rel_deviation": deviation,
            "timings_ms": timings,
            "estimates_ms": plan.candidates[node.id],
        })
    payload = {"layers": rows, "max_rel_deviation": worst}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for row in rows:
            # the fastest measured candidate is marked with a star
            times = " ".join(
                f"{k}={v:.2f}ms{'*' if k == row['fastest'] else ''}"
                f"(est={row['estimates_ms'][k]:.2f}ms)"
                for k, v in row["timings_ms"].items())
            print(f"{row['layer']}: chosen={row['chosen']} "
                  f"dev={row['max_rel_deviation']:.2e} {times}")
        print(f"max relative deviation: {worst:.3e}")
    return 0 if worst <= 1e-3 else 1


def cmd_winograd_dump(args) -> int:
    t = generate_transforms(args.n, args.k, args.f)
    payload = {
        "n": t.n, "k": t.k, "alpha": t.alpha, "f": t.f,
        "A": t.A.tolist(), "B": t.B.tolist(), "G": t.G.tolist(),
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_dump_plan(args) -> int:
    g = fuse(_load_graph(args.model))
    backends = _make_backends("all" if args.backend != "cpu" else "cpu",
                              args.cost_model)
    plan = pre_infer(g, [b.spec() for b in backends], spacing=args.f)
    print(json.dumps(plan.dump(), sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoinfer",
        description="Desk-scale inference engine with pre-inference planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="model file path")
            p.add_argument("--input", help="raw little-endian f32 NCHW input")
        p.add_argument("--backend", choices=("cpu", "sim", "auto"),
                       default="cpu")
        p.add_argument("--cost-model", dest="cost_model",
                       help="JSON cost-constant overrides")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--f", type=float, default=DEFAULT_SPACING,
                       help="winograd interpolation point spacing")
        p.add_argument("--format", choices=("table", "json"), default="table")

    p_gen = sub.add_parser("gen", help="emit a synthetic model")
    p_gen.add_argument("preset", choices=sorted(PRESETS))
    p_gen.add_argument("out")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="benchmark a model")
    common(p_run)
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--warmup", type=int, default=1)
    p_run.add_argument("--dump-plan", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="cross-check conv schemes per layer")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_wd = sub.add_parser("winograd-dump", help="print A, B, G as JSON")
    p_wd.add_argument("--n", type=int, required=True)
    p_wd.add_argument("--k", type=int, required=True)
    p_wd.add_argument("--f", type=float, default=DEFAULT_SPACING)
    p_wd.set_defaults(func=cmd_winograd_dump)

    p_dp = sub.add_parser("dump-plan", help="print the execution plan as JSON")
    common(p_dp)
    p_dp.set_defaults(func=cmd_dump_plan)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
