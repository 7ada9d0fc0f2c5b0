"""Per-layer numbers for the traced run, measured from outside the engine.

Step times come from Session.run_timed; plan facts (schemes, costs, pool
layout) from the public ExecutionPlan; the scheme-regret probe times each
candidate convolution through the public kernel functions on the layer's
real input.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from nanoinfer import (
    ConvParams, MatDims, OpKind, SchemeKind, conv_sliding, conv_winograd,
    from_nchw, generate_transforms, matmul_direct, matmul_strassen,
    pack_nc4hw4, unpack_nc4hw4,
)
from nanoinfer.kernels import strassen_recursion_depth
from nanoinfer.preinference import OpStep
from nanoinfer.winograd import MAX_ALPHA, TILE_CANDIDATES, weight_transform, winograd_supported

import reference

STEP_LAYERS = ("winograd.conv_ms", "kernels.sliding_ms", "kernels.depthwise_ms",
               "kernels.matmul_ms", "backend.pool2d_ms", "backend.elementwise_ms")
FASTEST_SLACK = 1.10  # a chosen scheme within 10% of the best counts as fastest
REGRET_ROUNDS = 15


def op_steps(plan) -> list[OpStep]:
    return [s for s in plan.steps if isinstance(s, OpStep)]


def conv_params(node) -> ConvParams:
    (kh, kw), (sh, sw), (ph, pw) = node.conv_geometry()
    return ConvParams(kh, kw, sh, sw, ph, pw, int(node.attrs["in_c"]),
                      int(node.attrs["out_c"]), int(node.attrs.get("group", 1)),
                      node.attrs.get("activation", "none") == "relu")


def step_layer(step: OpStep) -> str:
    """The layer metric a step's time is charged to.

    ReLU, Add, Softmax and Reshape count as element-wise; the last two also
    carry the NC4HW4 unpack/pack cost, as do MatMul and 1x1 matmul steps.
    """
    kind = step.node.kind
    if kind is OpKind.CONV2D:
        if step.scheme.kind is SchemeKind.WINOGRAD:
            return "winograd.conv_ms"
        if step.scheme.kind is SchemeKind.MATMUL_STRASSEN:
            return "kernels.matmul_ms"
        p = conv_params(step.node)
        if p.group > 1 and p.group == p.in_c == p.out_c:
            return "kernels.depthwise_ms"
        return "kernels.sliding_ms"
    if kind is OpKind.MATMUL:
        return "kernels.matmul_ms"
    if kind is OpKind.POOL2D:
        return "backend.pool2d_ms"
    return "backend.elementwise_ms"


def step_breakdown(plan, runs: list[tuple[float, list]]) -> tuple[dict, dict]:
    """Median per-layer times over traced runs, and median ms per op.

    Each run is (wall ms of run_timed, its [(name, ms)] step list).
    """
    layer_of = {s.node.id: step_layer(s) for s in op_steps(plan)}
    per_run = {name: [] for name in STEP_LAYERS}
    per_run.update({"backend.run_ms": [], "backend.steps_ms": [],
                    "backend.overhead_ms": []})
    per_op: dict[str, list[float]] = {}
    for wall_ms, steps in runs:
        sums = dict.fromkeys(STEP_LAYERS, 0.0)
        for name, ms in steps:
            per_op.setdefault(name, []).append(ms)
            if name in layer_of:
                sums[layer_of[name]] += ms
        for name, total in sums.items():
            per_run[name].append(total)
        step_sum = sum(ms for _, ms in steps)
        per_run["backend.run_ms"].append(wall_ms)
        per_run["backend.steps_ms"].append(step_sum)
        per_run["backend.overhead_ms"].append(wall_ms - step_sum)
    return ({name: statistics.median(v) for name, v in per_run.items()},
            {name: statistics.median(v) for name, v in per_op.items()})


def scratch_share(plan) -> float:
    """Per-op scratch bytes live at the pool's busiest step, over pool bytes."""
    scratch = 0
    for mem in plan.memory.values():
        last = max(end for _, end in mem.lifetimes.values())
        best = (-1, 0)
        for step in range(last + 1):
            live = [tid for tid, (a, b) in mem.lifetimes.items() if a <= step <= b]
            best = max(best, (sum(mem.sizes[t] for t in live),
                              sum(mem.sizes[t] for t in live
                                  if t.endswith("#scratch"))))
        scratch += best[1]
    return scratch / sum(plan.pool_sizes.values())


def pad_waste(plan) -> float:
    """Share of Winograd tile outputs computed and then cropped away."""
    computed = useful = 0
    shapes = plan.graph.tensor_shapes
    for step in op_steps(plan):
        if step.scheme is not None and step.scheme.kind is SchemeKind.WINOGRAD:
            n, c, oh, ow = shapes[step.node.outputs[0]].dims
            t = step.scheme.tile
            computed += n * c * math.ceil(oh / t) * t * math.ceil(ow / t) * t
            useful += n * c * oh * ow
    return 1.0 - useful / computed if computed else 0.0


def strassen_depth(plan) -> int:
    """Deepest Strassen recursion among the plan's matrix products."""
    shapes = plan.graph.tensor_shapes
    depth = 0
    for step in op_steps(plan):
        node = step.node
        if node.kind is OpKind.MATMUL:
            dims = MatDims(shapes[node.inputs[0]].dims[0],
                           int(node.attrs["in_features"]),
                           int(node.attrs["out_features"]))
        elif step.scheme is not None \
                and step.scheme.kind is SchemeKind.MATMUL_STRASSEN:
            _, c, h, w = shapes[node.inputs[0]].dims
            dims = MatDims(int(node.attrs["out_c"]), c, h * w)
        else:
            continue
        depth = max(depth, strassen_recursion_depth(dims))
    return depth


def _matmul_path(x, w2d, bias, relu, product):
    """What the engine's 1x1 matmul scheme does: unpack, multiply, repack."""
    xs = unpack_nc4hw4(x).data
    n, c, h, w = xs.shape
    out = np.empty((n, w2d.shape[0], h, w), dtype=np.float32)
    for img in range(n):
        out[img] = product(w2d, xs[img].reshape(c, h * w)).reshape(-1, h, w)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    if relu:
        np.maximum(out, 0.0, out=out)
    return pack_nc4hw4(from_nchw(out))


def conv_candidates(node, x_nchw: np.ndarray, threads: int, spacing: float) -> dict:
    """Every scheme the engine could run this Conv2D with, as thunks."""
    p = conv_params(node)
    x = pack_nc4hw4(from_nchw(x_nchw.astype(np.float32)))
    w = node.weights
    bias = None if node.bias is None else node.bias.astype(np.float32)
    cands = {"sliding": lambda: conv_sliding(x, w, p, threads=threads, bias=bias)}
    if winograd_supported(p):
        # tile 1 is the tile chooser's code for sliding window, not a scheme
        for tile in TILE_CANDIDATES:
            if tile > 1 and tile + p.kh - 1 <= MAX_ALPHA:
                t = generate_transforms(tile, p.kh, spacing)
                u = weight_transform(w, t)
                cands[f"winograd{tile}"] = (
                    lambda t=t, u=u: conv_winograd(x, w, p, t, threads=threads,
                                                   bias=bias, transformed=u))
    if (p.kh, p.kw, p.stride_h, p.stride_w, p.pad_h, p.pad_w, p.group) \
            == (1, 1, 1, 1, 0, 0, 1):
        w2d = np.ascontiguousarray(w.reshape(p.out_c, p.in_c), dtype=np.float32)
        cands["matmul"] = lambda: _matmul_path(x, w2d, bias, p.relu,
                                               matmul_strassen)
        cands["matmul_direct"] = lambda: _matmul_path(x, w2d, bias, p.relu,
                                                      matmul_direct)
    return cands


def scheme_regret(plan, values: dict, threads: int) -> tuple[list[dict], float, float]:
    """Time every candidate of every Conv2D on its real input.

    `values` are the float64 reference tensors for one input. A candidate
    whose output misses the reference by more than the engine's Winograd
    tolerance is reported but not counted as a possible best. Returns the
    table rows, the summed regret (chosen minus best, ms) and the share of
    convolutions whose chosen scheme is within 10% of the best.
    """
    rows = []
    for step in op_steps(plan):
        node = step.node
        if node.kind is not OpKind.CONV2D:
            continue
        cands = conv_candidates(node, values[node.inputs[0]], threads,
                                plan.spacing)
        want = values[node.outputs[0]]
        errors = {label: reference.rel_error(unpack_nc4hw4(fn()).data, want)
                  for label, fn in cands.items()}
        times = {label: [] for label in cands}
        labels = list(cands)
        for r in range(REGRET_ROUNDS):
            for label in labels[r % len(labels):] + labels[:r % len(labels)]:
                t0 = time.perf_counter()
                cands[label]()
                times[label].append((time.perf_counter() - t0) * 1e3)
        medians = {label: statistics.median(v) for label, v in times.items()}
        accurate = [label for label in labels if errors[label] <= 1e-3]
        best = min(accurate, key=medians.get)
        chosen = step.scheme.label()
        rows.append({
            "op": node.id, "chosen": chosen, "best": best,
            "regret_ms": max(0.0, medians[chosen] - medians[best]),
            "fastest": medians[chosen] <= FASTEST_SLACK * medians[best],
            "ms": medians, "rel_error": errors,
        })
    regret = sum(row["regret_ms"] for row in rows)
    share = sum(row["fastest"] for row in rows) / len(rows)
    return rows, regret, share


def estimate_table(plan, op_ms: dict) -> tuple[list[dict], float]:
    """Each op's measured median next to the plan's estimate.

    The summary is the median over ops of the factor by which the estimate
    misses: max(est/measured, measured/est), so 1.0 means exact.
    """
    rows = []
    for step in op_steps(plan):
        nid = step.node.id
        est, got = plan.op_costs[nid], op_ms[nid]
        rows.append({"op": nid, "kind": step.node.kind.value,
                     "scheme": step.scheme.label() if step.scheme else None,
                     "measured_ms": got, "estimate_ms": est,
                     "miss_factor": max(est / got, got / est)})
    return rows, statistics.median(row["miss_factor"] for row in rows)
