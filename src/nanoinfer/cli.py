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
from dataclasses import replace

import numpy as np

from .backend import CpuBackend, Session, resolve_backend
from .errors import EngineError, GraphValidationError
from .graph import Graph, OpKind, fuse, load_model, save_model
from .preinference import (
    OpStep, conv_schemes, load_cost_models, plan_memory, pre_infer,
)
from .presets import PRESETS, build_preset
from .tensor import Layout, Tensor, from_nchw, relayout, zeros
from .winograd import DEFAULT_SPACING, generate_transforms

log = logging.getLogger("nanoinfer")

# timed runs of each scheme per layer in compare; the median is reported,
# since one run can catch a BLAS thread stall many times the GEMM's length
COMPARE_ROUNDS = 7


def bench_report(latencies_ms: list[float], backend: str,
                 scheme_breakdown: dict[str, int], warmup_runs: int) -> dict:
    """run's report: latency statistics over the measured runs; warm-up is
    never included."""
    return {
        "runs": len(latencies_ms),
        "warmup": warmup_runs,
        "latencies_ms": latencies_ms,
        "mean_ms": statistics.fmean(latencies_ms),
        "min_ms": min(latencies_ms),
        "max_ms": max(latencies_ms),
        "p50_ms": float(np.percentile(np.asarray(latencies_ms), 50)),
        "p90_ms": float(np.percentile(np.asarray(latencies_ms), 90)),
        "backend": backend,
        "scheme_breakdown": scheme_breakdown,
    }


def blas_threads() -> str:
    """The BLAS thread setting of this process, as run and compare report it
    beside their times: at OpenBLAS's default of one thread per CPU, every
    GEMM early in a process can stall for milliseconds."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return f"default ({os.cpu_count()} cpus)"


def _setup_logging() -> None:
    level = os.environ.get("NANO_INFER_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _check_seed(seed: int) -> None:
    # NumPy's generators take only non-negative seeds
    if seed < 0:
        raise EngineError(f"--seed must be at least 0, got {seed}")


def _load_graph(path: str) -> Graph:
    with open(path, "rb") as fh:
        return load_model(fh.read())


def _default_input(g: Graph, seed: int) -> dict[str, Tensor]:
    """Every graph input, drawn in input order from one generator."""
    rng = np.random.default_rng(seed)
    return {tid: from_nchw(rng.uniform(
        -1.0, 1.0, size=g.tensor_shapes[tid].dims).astype(np.float32))
        for tid in g.inputs}


def _read_input(path: str, g: Graph) -> dict[str, Tensor]:
    if len(g.inputs) != 1:
        raise EngineError(f"--input holds one tensor, the model has "
                          f"{len(g.inputs)} inputs")
    shape = tuple(g.tensor_shapes[g.inputs[0]].dims)
    count = int(np.prod(shape))
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != count:
        raise EngineError(
            f"input file holds {raw.size} floats, model expects {count}"
        )
    return {g.inputs[0]: from_nchw(raw.reshape(shape))}


def plan_on(g: Graph, backend: str, cost_path: str | None, spacing: float):
    """The backends that ``backend`` names, with the cost overrides read
    from ``cost_path``, and pre_infer's plan of g on them: cpu alone, or
    cpu and sim, with sim forced or, for auto, chosen by cost.  An override
    for a name other than cpu or sim is an error; one for sim is allowed
    when only cpu is planned."""
    overrides = load_cost_models(cost_path) if cost_path else {}
    for name in overrides:
        if name not in ("cpu", "sim"):
            raise GraphValidationError(
                f"cost model {cost_path}: entry {name!r} names no backend "
                "(known: cpu, sim)")
    backends = [resolve_backend(name, **({"cost": overrides[name]}
                                         if name in overrides else {}))
                for name in (("cpu",) if backend == "cpu" else ("cpu", "sim"))]
    plan = pre_infer(g, [b.spec() for b in backends], spacing=spacing,
                     force_backend="sim" if backend == "sim" else None)
    return plan, backends


def cmd_gen(args) -> int:
    _check_seed(args.seed)
    g = build_preset(args.preset, seed=args.seed)
    data = save_model(g)
    with open(args.out, "wb") as fh:
        fh.write(data)
    log.info("wrote %s (%d bytes, %d nodes)", args.out, len(data), len(g.nodes))
    print(f"{args.out}: {len(data)} bytes, {len(g.nodes)} nodes")
    return 0


def cmd_run(args) -> int:
    if args.runs < 1:
        raise EngineError(f"--runs must be at least 1, got {args.runs}")
    if args.warmup < 0:
        raise EngineError(f"--warmup must be at least 0, got {args.warmup}")
    _check_seed(args.seed)
    g = fuse(_load_graph(args.model))
    plan, backends = plan_on(g, args.backend, args.cost_model, args.f)
    session = Session(plan, backends)
    inputs = (_read_input(args.input, g) if args.input
              else _default_input(g, args.seed))
    for _ in range(args.warmup):
        session.run(inputs)
    # each sim step's dispatch charge is added to the run's wall time
    charges = sum(session.backends[s.backend].dispatch_surcharge_ms
                  for s in plan.steps if isinstance(s, OpStep))
    latencies = []
    outputs = None
    for _ in range(args.runs):
        start = time.perf_counter()
        outputs, _ = session.run_timed(inputs)
        latencies.append((time.perf_counter() - start) * 1e3 + charges)
    breakdown: dict[str, int] = {}
    for scheme in plan.schemes.values():
        breakdown[scheme.label()] = breakdown.get(scheme.label(), 0) + 1
    chosen = "sim" if "sim" in set(plan.assignment.values()) else "cpu"
    report = bench_report(latencies, chosen, breakdown, args.warmup)
    digest = hashlib.sha256()
    for tid in sorted(outputs):
        digest.update(outputs[tid].data.tobytes())
    payload = {"report": report,
               "output_sha256": digest.hexdigest(),
               "blas_threads": blas_threads()}
    if args.dump_plan:
        payload["plan"] = plan.dump()
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"backend={report['backend']} runs={report['runs']} "
              f"warmup={report['warmup']}")
        print(f"blas threads: {payload['blas_threads']}")
        print(f"mean={report['mean_ms']:.3f}ms min={report['min_ms']:.3f}ms "
              f"max={report['max_ms']:.3f}ms p50={report['p50_ms']:.3f}ms "
              f"p90={report['p90_ms']:.3f}ms")
        print(f"schemes={report['scheme_breakdown']}")
        print(f"output sha256={payload['output_sha256'][:16]}...")
    session.close()
    return 0


def replay_cpu(g: Graph, plan, inputs: dict[str, Tensor] | Tensor) -> dict:
    """Functional CPU replay of a plan on its inputs (one Tensor for a
    graph of one input), each step into a fresh buffer; returns tensor id
    -> NHWC4 value, as a session's pool holds it.  A fused step replays
    as its conv, then each folded node (a max pool, or an Add and its
    ReLU), so the values hold every conv's own output too, and a session's
    fused step is checked against them."""
    cpu = CpuBackend()
    if isinstance(inputs, Tensor):
        inputs = {g.inputs[0]: inputs}
    values = {tid: relayout(inputs[tid], Layout.NHWC4) for tid in g.inputs}
    for step in plan.steps:
        if not isinstance(step, OpStep):
            continue
        for part in _unfolded(step):
            node = part.node
            out = zeros(g.tensor_shapes[node.outputs[0]].dims, Layout.NHWC4)
            cpu.create_execution(part, plan)(
                [values[t].data for t in node.inputs], [out.data])
            values[node.outputs[0]] = out
    return values


def _unfolded(step: OpStep) -> list[OpStep]:
    """A fused step as its conv's step, then one step per folded node."""
    return [replace(step, folded=()),
            *(OpStep(node, None, step.backend) for node in step.folded)]


def with_scheme(plan, node, scheme):
    """The plan with one conv's step switched to another scheme and run
    alone: a fused step is unfolded (its folded nodes run as steps of their
    own after it) and the memory planned again."""
    steps = []
    for s in plan.steps:
        if isinstance(s, OpStep) and s.node is node:
            steps += [replace(part, scheme=scheme) if part.node is node
                      else part for part in _unfolded(s)]
        else:
            steps.append(s)
    if len(steps) == len(plan.steps):
        return replace(plan, steps=steps)
    return replace(plan, steps=steps,
                   memory=plan_memory(plan.graph, steps=steps))


def time_schemes(plan, node, x, rounds):
    """Median ms of the conv's step under each of its schemes, each timed
    in a running session of the whole graph on inputs x, as the benchmark
    times it."""
    sessions = {}
    for scheme in conv_schemes(node.params()):
        session = Session(with_scheme(plan, node, scheme), [CpuBackend()])
        # the warm-up caches an unplanned weight transform
        session.run(x)
        sessions[scheme] = session
    order = list(sessions)
    times = {scheme: [] for scheme in order}
    for r in range(rounds):
        for scheme in order[r % len(order):] + order[:r % len(order)]:
            _, steps = sessions[scheme].run_timed(x)
            times[scheme].append(dict(steps)[node.id])
    for session in sessions.values():
        session.close()
    return {scheme: statistics.median(t) for scheme, t in times.items()}


def cmd_compare(args) -> int:
    _check_seed(args.seed)
    g = fuse(_load_graph(args.model))
    plan, (cpu,) = plan_on(g, "cpu", None, args.f)
    inputs = (_read_input(args.input, g) if args.input
              else _default_input(g, args.seed))
    values = replay_cpu(g, plan, inputs)

    rows = []
    worst = 0.0
    for node in g.nodes:
        if node.kind is not OpKind.CONV2D:
            continue
        # each scheme's isolated output on the replayed input, to compare
        x = values[node.inputs[0]].data
        out_dims = g.tensor_shapes[node.outputs[0]].dims
        outs = {}
        for scheme in conv_schemes(node.params()):
            step = OpStep(node, scheme, cpu.name)
            out = zeros(out_dims, Layout.NHWC4).data
            cpu.create_execution(step, plan)([x], [out])
            outs[scheme.label()] = out
        timings = {scheme.label(): ms for scheme, ms in
                   time_schemes(plan, node, inputs, COMPARE_ROUNDS).items()}
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
    payload = {"layers": rows, "max_rel_deviation": worst,
               "blas_threads": blas_threads()}
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
        print(f"blas threads: {payload['blas_threads']}")
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
    plan, _ = plan_on(g, args.backend, args.cost_model, args.f)
    print(json.dumps(plan.dump(), sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoinfer",
        description="Desk-scale inference engine with pre-inference planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model file path")
        p.add_argument("--f", type=float, default=DEFAULT_SPACING,
                       help="winograd interpolation point spacing")

    def planning(p):
        p.add_argument("--backend", choices=("cpu", "sim", "auto"),
                       default="cpu")
        p.add_argument("--cost-model", dest="cost_model",
                       help="JSON cost-constant overrides")

    def measuring(p):
        p.add_argument("--input", help="raw little-endian f32 NCHW input")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("table", "json"), default="table")

    p_gen = sub.add_parser("gen", help="emit a synthetic model")
    p_gen.add_argument("preset", choices=sorted(PRESETS))
    p_gen.add_argument("out")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="benchmark a model")
    common(p_run)
    planning(p_run)
    measuring(p_run)
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--warmup", type=int, default=1)
    p_run.add_argument("--dump-plan", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="cross-check conv schemes per layer")
    common(p_cmp)
    measuring(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_wd = sub.add_parser("winograd-dump", help="print A, B, G as JSON")
    p_wd.add_argument("--n", type=int, required=True)
    p_wd.add_argument("--k", type=int, required=True)
    p_wd.add_argument("--f", type=float, default=DEFAULT_SPACING)
    p_wd.set_defaults(func=cmd_winograd_dump)

    p_dp = sub.add_parser("dump-plan", help="print the execution plan as JSON")
    common(p_dp)
    planning(p_dp)
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
