"""Calibrate the planner's cost weights and check its conv schemes.

Each conv scheme is timed as the backend execution of its step in a running
session of the whole graph, as the benchmark times it: the same conv can rank
differently alone than inside its network.  nanoinfer.cli.time_schemes, which
`nanoinfer compare` also uses, builds one session per scheme, runs it once to
warm up, then runs rounds that visit the schemes in rotated order, and takes
the median per scheme.  Three reports:

  add-cost  kernels.ADD_COST, one counted Strassen addition in BLAS
            multiplies: a one-level matmul_strassen less its seven
            half-size products, per counted addition, over matmul_direct's
            time per multiply.  Each time is the median of its runs with
            their quartiles in brackets, and the cost is taken from the
            medians.  Each line also gives the engine depth, the levels
            matmul_strassen takes for the shape at ADD_COST.
            The default shapes include 3072^3, 4096^3 and 2048x4096x4096,
            where it takes one; they need about 1 GB and about a minute.
  weights   kernels.SMALL_PRODUCT_COST, MOVE_COST, SHUFFLE_COST and
            CALL_COST: a least-squares fit of every scheme's time on a set
            of convs (the presets' and synthetic ones) to the five kinds of
            work preinference.scheme_work counts, relative to one GEMM
            multiply.
  rank      for every conv of the presets, the planned scheme next to the
            fastest measured one, with each candidate's estimate.

    PYTHONPATH=src python3 tools/calibrate.py [add-cost|weights|rank]
        [--preset NAME]... [--rounds R] [--shapes NxKxM ...]

With no report named it prints all three.  The BLAS runs one thread unless
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS / MKL_NUM_THREADS say otherwise.
"""

import argparse
import os
import statistics
import sys
import time
from dataclasses import astuple

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

import nanoinfer.kernels as kernels  # noqa: E402
from nanoinfer.backend import CpuBackend  # noqa: E402
from nanoinfer.cli import time_schemes  # noqa: E402
from nanoinfer.graph import GraphBuilder, OpKind, fuse  # noqa: E402
from nanoinfer.kernels import (  # noqa: E402
    MatDims, matmul_direct, matmul_strassen, strassen_recursion_depth,
    strassen_scratch_elems,
)
from nanoinfer.preinference import pre_infer, scheme_work  # noqa: E402
from nanoinfer.presets import PRESETS, build_preset  # noqa: E402
from nanoinfer.tensor import from_nchw  # noqa: E402

ENGINE_ADD_COST = kernels.ADD_COST
ADD_COST_SHAPES = [(1024, 1024, 1024), (2048, 2048, 2048), (24, 24, 1089),
                   (128, 64, 256), (256, 128, 64), (64, 32, 1024),
                   (3072, 3072, 3072), (4096, 4096, 4096), (2048, 4096, 4096)]
# synthetic convs for the weight fit: (in_c, out_c, size, kernel, stride,
# group), 3x3 ones padded to keep their size
SYNTHETIC = ([(c, max(c, 16), s, 3, 1, 1) for c in (3, 8, 16, 32, 64)
              for s in (8, 16, 32, 64)]
             + [(c, 128, s, 3, 1, 1) for c in (64, 128) for s in (16, 32)]
             + [(c, o, s, 1, 1, 1) for c, o, s in
                ((8, 32, 16), (32, 8, 16), (16, 32, 32), (32, 64, 16),
                 (64, 64, 8), (64, 64, 32))]
             + [(c, c, s, 3, 1, c) for c, s in ((16, 32), (32, 16), (64, 8))]
             + [(16, 32, 32, 3, 2, 1), (32, 64, 16, 3, 2, 1)])
FAST_SLACK = (1.10, 0.02)  # within 10% or 0.02 ms of the fastest is near it


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# --- add-cost ---------------------------------------------------------------

def level_counts(n, k, m):
    """(saved multiplies, counted additions) of one split of n x k x m."""
    n2, k2, m2 = (n + 1) // 2, (k + 1) // 2, (m + 1) // 2
    saved = (2 * n2) * (2 * k2) * (2 * m2) - 7 * n2 * k2 * m2
    return saved, kernels._split_additions(n2, k2, m2)


def measure_add_cost(n, k, m, rng):
    """Returns the times in s of direct, one level and its products, each
    (first quartile, median, third quartile), and the addition cost from
    the medians."""
    saved, added = level_counts(n, k, m)
    # any weight just under this shape's saved/added ratio takes its first
    # level and, since the ratio about halves per level, no second one
    kernels.ADD_COST = saved / added * (1 - 1e-9)
    try:
        d = MatDims(n, k, m)
        if strassen_recursion_depth(d, kernels.ADD_COST) != 1:
            raise SystemExit(f"{n}x{k}x{m}: no weight gives exactly one level")
        a = rng.standard_normal((n, k), dtype=np.float32)
        b = rng.standard_normal((k, m), dtype=np.float32)
        n2, k2, m2 = (n + 1) // 2, (k + 1) // 2, (m + 1) // 2
        sa = rng.standard_normal((7, n2, k2), dtype=np.float32)
        sb = rng.standard_normal((7, k2, m2), dtype=np.float32)
        sc = np.empty((7, n2, m2), dtype=np.float32)
        scratch = np.empty(strassen_scratch_elems(d), dtype=np.float32)
        paths = [lambda: matmul_direct(a, b),
                 lambda: matmul_strassen(a, b, scratch),
                 lambda: np.matmul(sa, sb, out=sc)]
        for fn in paths:
            fn()
        reps = max(5, min(200, int(2e9 / (n * k * m))))
        times = [[], [], []]
        for _ in range(reps):
            for i, fn in enumerate(paths):
                times[i].append(timed(fn))
    finally:
        kernels.ADD_COST = ENGINE_ADD_COST
    direct, one, leaves = (statistics.quantiles(t, n=4, method="inclusive")
                           for t in times)
    cost = ((one[1] - leaves[1]) / added) / (direct[1] / (n * k * m))
    return direct, one, leaves, cost


def ms(q):
    """A time's median in ms, its quartiles beside it."""
    return f"{q[1] * 1e3:.2f} ms [{q[0] * 1e3:.2f}-{q[2] * 1e3:.2f}]"


def report_add_cost(shapes):
    rng = np.random.default_rng(0)
    costs = []
    for n, k, m in shapes:
        direct, one, leaves, cost = measure_add_cost(n, k, m, rng)
        saved, added = level_counts(n, k, m)
        depth = strassen_recursion_depth(MatDims(n, k, m), ENGINE_ADD_COST)
        costs.append(cost)
        print(f"{n}x{k}x{m}: direct {ms(direct)}, one level {ms(one)} "
              f"({one[1] / direct[1]:.2f}x), its products {ms(leaves)}; "
              f"addition cost {cost:.0f} multiplies; "
              f"a level saves {saved / added:.1f} per addition; engine "
              f"depth {depth}")
    print(f"median addition cost {statistics.median(costs):.0f} "
          f"(ADD_COST is {ENGINE_ADD_COST})")


# --- conv timing -----------------------------------------------------------

def measured_convs(graphs, rounds):
    """(name, plan, node, {scheme: ms}) for every conv of every graph."""
    rows = []
    for name, g in graphs:
        plan = pre_infer(g, [CpuBackend().spec()])
        shape = tuple(g.tensor_shapes[g.inputs[0]].dims)
        x = from_nchw(np.random.default_rng(0).uniform(
            -1, 1, size=shape).astype(np.float32))
        for node in g.nodes:
            if node.kind is OpKind.CONV2D:
                rows.append((name, plan, node,
                             time_schemes(plan, node, x, rounds)))
    return rows


def synthetic_graphs():
    graphs = []
    for c, o, s, k, stride, group in SYNTHETIC:
        b = GraphBuilder((1, c, s, s), seed=0)
        b.conv(kernel=k, stride=stride, pad=k // 2, out_c=o, group=group,
               activation="relu")
        graphs.append((f"{c}->{o} {s}px k{k} s{stride} g{group}", b.build()))
    return graphs


def preset_graphs(names):
    return [(name, fuse(build_preset(name))) for name in names]


# --- weights ---------------------------------------------------------------

# the weight of each KernelWork field after gemm, in field order
WEIGHTS = ("SMALL_PRODUCT_COST", "MOVE_COST", "SHUFFLE_COST", "CALL_COST")


def features(plan, node, scheme):
    dims = plan.graph.tensor_shapes[node.inputs[0]].dims
    return astuple(scheme_work(node.params(), scheme, dims))


def engine_weights():
    return (1,) + tuple(getattr(kernels, name) for name in WEIGHTS)


def fit(rows):
    """Non-negative seconds per unit of each kind of work, minimising the
    squared relative error of the predicted times."""
    feats, times = [], []
    for _, plan, node, ms in rows:
        for scheme, t in ms.items():
            feats.append(features(plan, node, scheme))
            times.append(t * 1e-3)
    a = np.asarray(feats, dtype=np.float64) / np.asarray(times)[:, None]
    free = list(range(a.shape[1]))
    while True:
        theta = np.zeros(a.shape[1])
        theta[free] = np.linalg.lstsq(a[:, free], np.ones(len(times)),
                                      rcond=None)[0]
        negative = [j for j in free if theta[j] < 0]
        if not negative:
            return theta
        free.remove(min(negative, key=lambda j: theta[j]))


def near_fastest(ms, scheme):
    best = min(ms.values())
    return ms[scheme] <= max(best * FAST_SLACK[0], best + FAST_SLACK[1])


def picks(rows, weights):
    """Convs whose cheapest scheme under the weights is near the fastest,
    out of those with more than one scheme, and the other convs' picks."""
    hits = total = 0
    misses = []
    for name, plan, node, ms in rows:
        if len(ms) < 2:
            continue
        total += 1
        cost = {scheme: float(np.dot(features(plan, node, scheme), weights))
                for scheme in ms}
        pick = min(cost, key=cost.get)
        if near_fastest(ms, pick):
            hits += 1
        else:
            misses.append(f"{name} {node.id} {pick.label()}")
    return hits, total, misses


def report_weights(rows):
    theta = fit(rows)
    if theta[0] <= 0:
        print("the fit gives GEMM multiplies no time; measure more convs")
        return
    fitted = theta / theta[0]
    engine = engine_weights()
    print(f"one GEMM multiply: {theta[0] * 1e12:.2f} ps")
    for name, got, have in zip(WEIGHTS, fitted[1:], engine[1:]):
        print(f"{name}: fitted {got:.3g} (engine {have})")
    for label, weights in (("fitted", fitted), ("engine", engine)):
        hits, total, misses = picks(rows, weights)
        print(f"{label} weights: cheapest scheme near the fastest on "
              f"{hits} of {total} convs; missed: {', '.join(misses) or 'none'}")
    errors = []
    for _, plan, node, ms in rows:
        for scheme, t in ms.items():
            est = float(np.dot(features(plan, node, scheme), theta)) * 1e3
            errors.append(max(est / t, t / est) if est > 0 else float("inf"))
    print(f"fitted time / measured time: median miss x{np.median(errors):.2f}, "
          f"worst x{max(errors):.2f} over {len(errors)} scheme timings")


# --- rank ------------------------------------------------------------------

def report_rank(rows):
    missed = 0
    for name, plan, node, ms in rows:
        planned = plan.schemes[node.id]
        est = plan.candidates[node.id]
        fastest = min(ms, key=ms.get)
        ok = near_fastest(ms, planned)
        missed += not ok
        cands = " ".join(f"{s.label()}={ms[s]:.3f}ms(est {est[s.label()]:.3f})"
                         for s in ms)
        print(f"{name} {node.id}: planned {planned.label()}, fastest "
              f"{fastest.label()}{'' if ok else ' MISS'}; {cands}")
    print(f"{len(rows) - missed} of {len(rows)} convs planned within 10% or "
          f"0.02 ms of the fastest scheme")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", nargs="?",
                        choices=("add-cost", "weights", "rank"))
    parser.add_argument("--preset", action="append", choices=sorted(PRESETS),
                        help="presets to time (default: all)")
    parser.add_argument("--rounds", type=int, default=15,
                        help="timed runs per scheme and conv")
    parser.add_argument("--shapes", nargs="*", default=[],
                        help="NxKxM products for add-cost")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    presets = preset_graphs(args.preset or sorted(PRESETS))
    if args.report in (None, "add-cost"):
        shapes = [tuple(int(x) for x in s.split("x")) for s in args.shapes]
        report_add_cost(shapes or ADD_COST_SHAPES)
    if args.report in (None, "weights"):
        report_weights(measured_convs(presets + synthetic_graphs(),
                                      args.rounds))
    if args.report in (None, "rank"):
        report_rank(measured_convs(presets, args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
