"""Whole-graph fuzz tests of the planner's lifetimes and of the engine.

Random residual DAGs (GraphBuilder, fixed seeds): 1-2 images, 1-8
channels, 3-13 px, with padded, strided, 1x1 stride-2, grouped,
depthwise and rectangular convs (1-5 a side, strides 1-3, pads 0-3),
skips that are the block's input, its last conv's input or a projection
made before or after that conv, and extra readers of skips and of conv
outputs.  Each graph is planned on cpu, sim and auto, and on a
sim that lacks one op kind (so transfers cut through blocks), then checked:

- a session's outputs, from NaN-poisoned pools, are replay_cpu's bits;
- every scheme of every conv, forced through with_scheme, stays within
  compare's 1e-3 of sliding window, and its session keeps replay's bits;
- no two co-live pool intervals overlap (a fused step's output is written
  over its skip's interval, MemoryPlan.aliases, which is no interval of
  its own), every tensor read was written before and not written over
  since, and each pool is at least its live-bytes bound.

Random chains (fixed seeds) of max and average pools (kernel 1-4, stride
1-2, padding up to half the kernel), convs and ReLUs, then maybe a Reshape
that changes the shape, a MatMul head, a Softmax and extra graph outputs,
are planned on cpu, sim and auto.  Each session keeps replay_cpu's bits
from NaN pools, the plan invariants above hold, and every output is within
REFERENCE_TOLERANCE of perfbench/reference.py, a float64 evaluator that
calls no engine code (imported from there: a test dependency).
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

import nanoinfer.kernels as kernels
from conftest import assert_replayed
from nanoinfer.backend import CpuBackend, resolve_backend
from nanoinfer.cli import plan_on, replay_cpu, with_scheme
from nanoinfer.graph import GraphBuilder, OpKind, fuse
from nanoinfer.preinference import (
    BackendSpec, OpStep, TransferStep, conv_schemes, pre_infer,
)
from nanoinfer.simbackend import SimBackend
from nanoinfer.tensor import from_nchw
from nanoinfer.winograd import DEFAULT_SPACING

GRAPHS = 150
CHAINS = 400
BUDGET_S = 10.0
CHAINS_BUDGET_S = 3.0  # with the residual graphs' ~4 s, the file's 10 s
TOLERANCE = 1e-3  # compare's bound on a scheme's relative deviation
REFERENCE_TOLERANCE = 1e-5  # float32 outputs against float64 ones

_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).resolve().parents[1] / "perfbench"
    / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def conv_geometry(rng, c, h, w):
    """Random keywords of a conv on c channels of h x w that fits it."""
    kind = rng.choice(["dense", "padded", "strided", "1x1s2", "grouped",
                       "depthwise", "pointwise", "rect"])
    if kind == "rect":
        # a rectangular kernel (1-5 a side) at strides 1-3 and pads 0-3
        kernel = tuple(int(k) for k in rng.choice(np.arange(1, 6), 2,
                                                  replace=False))
        geo = dict(kernel=kernel,
                   stride=tuple(int(s) for s in rng.integers(1, 4, size=2)),
                   pad=tuple(int(q) for q in rng.integers(0, 4, size=2)))
    else:
        geo = {"dense": dict(kernel=3), "padded": dict(kernel=3, pad=1),
               "strided": dict(kernel=3, stride=2, pad=1),
               "1x1s2": dict(kernel=1, stride=2),
               "grouped": dict(kernel=3, pad=1),
               "depthwise": dict(kernel=3, pad=1),
               "pointwise": dict(kernel=1)}[kind]
    kh, kw = np.broadcast_to(geo["kernel"], 2)
    ph, pw = np.broadcast_to(geo.get("pad", 0), 2)
    if h + 2 * ph < kh or w + 2 * pw < kw:
        geo = dict(kernel=1)
    out_c = int(rng.integers(1, 9))
    if kind == "grouped" and c % 2 == 0:
        geo["group"], out_c = 2, 2 * int(rng.integers(1, 5))
    if kind == "depthwise" and c > 1:
        geo["group"], out_c = c, c
    return geo, out_c


def residual_graph(rng):
    n, c = int(rng.integers(1, 3)), int(rng.integers(1, 9))
    h, w = (int(v) for v in rng.integers(3, 14, size=2))
    b = GraphBuilder((n, c, h, w), seed=int(rng.integers(0, 2 ** 31)))
    frontier = [b.input_id]
    extra = []
    for _ in range(int(rng.integers(1, 4))):
        src = frontier[int(rng.integers(0, len(frontier)))]
        _, c, h, w = b.shape_of(src)
        geo, mid_c = conv_geometry(rng, c, h, w)
        y = b.conv(src, **geo, out_c=mid_c)
        if rng.random() < 0.5:
            y = b.relu(y)
        _, _, yh, yw = b.shape_of(y)
        last, out_c = conv_geometry(rng, mid_c, yh, yw)
        # keep the block's map size: stride 1, odd kernels, half their pad
        last.pop("stride", None)
        kh, kw = (int(k) | 1 for k in np.broadcast_to(last["kernel"], 2))
        last.update(kernel=(kh, kw), pad=((kh - 1) // 2, (kw - 1) // 2))
        if last.get("group") == mid_c:  # depthwise: channels stay
            out_c = mid_c
        activation = "relu" if rng.random() < 0.2 else "none"

        def project():
            # a dense conv of the block's first window, to the block's
            # output channels, so its map is the block's
            return b.conv(src, **{k: v for k, v in geo.items()
                                  if k != "group"}, out_c=out_c)

        if b.shape_of(src) == (n, out_c, yh, yw) and rng.random() < 0.6:
            skip = src
        elif rng.random() < 0.5:
            skip = project()
        else:
            skip = None
        if skip is not None and rng.random() < 0.2:
            extra.append(b.relu(skip))  # another reader, before the conv
        z = b.conv(y, **last, out_c=out_c, activation=activation)
        if b.shape_of(y) == b.shape_of(z) and rng.random() < 0.2:
            skip = y  # conv(y) + y
        elif skip is None:
            skip = project()  # made after the block's last conv
        if rng.random() < 0.2:
            extra.append(b.relu(skip))  # another reader, after the conv
        if rng.random() < 0.15:
            extra.append(b.relu(z))  # the conv's output has two readers
        total = b.add(*((z, skip) if rng.random() < 0.5 else (skip, z)))
        if rng.random() < 0.7:
            total = b.relu(total)
        frontier.append(total)
    if rng.random() < 0.3:
        b.pool(frontier[-1], kernel=2 if min(b.shape_of(frontier[-1])[2:])
               >= 2 else 1)
        frontier.append(b.last)
    return fuse(b.build(outputs=[frontier[-1], *extra]))


def random_input(g, rng):
    return {tid: from_nchw(rng.uniform(-1, 1, size=g.tensor_shapes[tid].dims)
                           .astype(np.float32)) for tid in g.inputs}


def assert_lifetimes(g, plan, cpu="cpu"):
    """Co-live intervals are disjoint; each read finds its tensor, written
    before and not written over since; pools reach their bound."""
    for mem in plan.memory.values():
        assert mem.pool_size >= mem.lower_bound
        tids = [t for t in mem.offsets if mem.sizes[t]]
        for i, a in enumerate(tids):
            fa, la = mem.lifetimes[a]
            for b in tids[i + 1:]:
                fb, lb = mem.lifetimes[b]
                if max(fa, fb) <= min(la, lb):
                    a0, b0 = mem.offsets[a], mem.offsets[b]
                    assert (a0 + mem.sizes[a] <= b0
                            or b0 + mem.sizes[b] <= a0), (a, b)
        for tid, root in mem.aliases.items():
            assert root in mem.offsets and root not in mem.aliases, tid

    holder: dict[tuple[str, str], str] = {}  # stored interval -> its tensor
    written: dict[tuple[str, str], int] = {(t, cpu): -1 for t in g.inputs}

    def interval(tid, backend):
        mem = plan.memory[backend]
        return mem.aliases.get(tid, tid)

    def read(tid, backend, at):
        assert (tid, backend) in written, (tid, backend, at)
        if tid in g.inputs and backend == cpu:
            return  # a staging buffer, outside the pools
        root = interval(tid, backend)
        first, last = plan.memory[backend].lifetimes[root]
        assert first <= written[(tid, backend)] and at <= last, (tid, at)
        assert holder[(root, backend)] == tid, (tid, at)

    def write(tid, backend, at):
        written[(tid, backend)] = at
        holder[(interval(tid, backend), backend)] = tid

    for at, step in enumerate(plan.steps):
        if isinstance(step, TransferStep):
            read(step.tensor, step.src, at)
            write(step.tensor, step.dst, at)
            continue
        for tid in step.inputs:
            read(tid, step.backend, at)
        for tid in step.outputs:
            write(tid, step.backend, at)
    for tid in g.outputs:
        read(tid, cpu, len(plan.steps))


def plans(g, rng):
    """g planned on cpu, on sim, by cost (auto), and on a sim that lacks
    one op kind, with the backends each runs on."""
    for backend in ("cpu", "sim", "auto"):
        yield plan_on(g, backend, None, DEFAULT_SPACING)
    lacks = rng.choice([OpKind.ADD, OpKind.RELU, OpKind.POOL2D])
    sim = SimBackend(supported=frozenset(set(OpKind) - {lacks}))
    cpu = resolve_backend("cpu")
    specs = [cpu.spec(), BackendSpec("sim", sim.cost, sim.supported)]
    yield pre_infer(g, specs, force_backend="sim"), [cpu, sim]


def deviation(got, base):
    base = base.astype(np.float64)
    scale = float(np.max(np.abs(base))) + 1e-12
    return float(np.max(np.abs(got.astype(np.float64) - base))) / scale


def test_random_residual_graphs(monkeypatch):
    start = time.perf_counter()
    rng = np.random.default_rng(1802)
    folds = aliases = 0
    for trial in range(GRAPHS):
        # several small bands and slabs every third graph
        monkeypatch.setattr(kernels, "BAND_FLOATS",
                            256 if trial % 3 == 2 else 32768)
        g = residual_graph(rng)
        x = random_input(g, rng)
        for plan, backends in plans(g, rng):
            assert_lifetimes(g, plan)
            assert_replayed(g, plan, backends, x)
            folds += sum(isinstance(s, OpStep) and s.skip is not None
                         for s in plan.steps)
            aliases += sum(len(m.aliases) for m in plan.memory.values())
        plan, _ = plan_on(g, "cpu", None, DEFAULT_SPACING)
        values = replay_cpu(g, plan, x)
        for node in g.nodes:
            if node.kind is not OpKind.CONV2D:
                continue
            base = None
            for scheme in conv_schemes(node.params()):
                alone = with_scheme(plan, node, scheme)
                assert_lifetimes(g, alone)
                assert_replayed(g, alone, [CpuBackend()], x)
                got = replay_cpu(g, alone, x)[node.outputs[0]].data
                base = got if base is None else base
                assert deviation(got, base) <= TOLERANCE, (trial, node.id)
            assert values[node.outputs[0]].data.tobytes() == replay_cpu(
                g, with_scheme(plan, node, plan.schemes[node.id]),
                x)[node.outputs[0]].data.tobytes()
    elapsed = time.perf_counter() - start
    # the rewrite is exercised, its aliases with it
    assert folds >= GRAPHS and aliases == folds
    assert elapsed < BUDGET_S, f"{elapsed:.1f} s"


@pytest.mark.parametrize("seed", [0])
def test_generator_makes_every_geometry(seed):
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(GRAPHS):
        for node in residual_graph(rng).nodes:
            if node.kind is OpKind.CONV2D:
                p = node.params()
                seen.add("depthwise" if p.depthwise else "grouped"
                         if p.group > 1 else "rect" if p.kh != p.kw
                         else "pointwise" if p.pointwise
                         else "1x1s2" if p.kh == 1 and p.stride_h == 2
                         else "strided" if p.stride_h > 1
                         else "padded" if p.pad_h or p.pad_w else "dense")
    assert seen == {"depthwise", "grouped", "rect", "pointwise", "1x1s2",
                    "strided", "padded", "dense"}


def pool_geometry(rng, h, w):
    """Random keywords of a max or average pool that fits h x w: kernel 1-4,
    stride 1-2 and padding up to half the kernel per axis, or a max pool
    whose 2 x 2 windows tile the map, the kind that folds into a pointwise
    conv."""
    if rng.random() < 0.25 and min(h, w) >= 4:
        return dict(kernel=2, mode="max")
    kernel = [int(k) for k in rng.integers(1, 5, size=2)]
    pad = [int(rng.integers(0, k // 2 + 1)) for k in kernel]
    if h + 2 * pad[0] < kernel[0] or w + 2 * pad[1] < kernel[1]:
        kernel, pad = [1, 1], [0, 0]
    return dict(kernel=kernel, stride=[int(v) for v in rng.integers(1, 3,
                                                                    size=2)],
                pad=pad, mode=str(rng.choice(["max", "avg"])))


def pool_chain_graph(rng):
    """A chain of pools, convs and ReLUs, then maybe a Reshape that changes
    the shape, a MatMul head and a Softmax; any tensor but the input may be
    an extra graph output.  Returns the graph as built and fused."""
    n, c = int(rng.integers(1, 3)), int(rng.integers(1, 9))
    h, w = (int(v) for v in rng.integers(3, 14, size=2))
    b = GraphBuilder((n, c, h, w), seed=int(rng.integers(0, 2 ** 31)))
    extra = []
    for _ in range(int(rng.integers(1, 6))):
        _, c, h, w = b.shape_of(b.last)
        kind = rng.choice(["pool", "conv", "relu"], p=[0.45, 0.4, 0.15])
        if kind == "pool":
            b.pool(**pool_geometry(rng, h, w))
        elif kind == "conv":
            geo, out_c = conv_geometry(rng, c, h, w)
            if rng.random() < 0.2:
                geo = dict(kernel=1)  # pointwise, then maybe a tiling pool
            b.conv(**geo, out_c=out_c)
            if (geo == dict(kernel=1) and min(h, w) >= 4
                    and rng.random() < 0.5):
                b.pool(kernel=2, mode="max")
        else:
            b.relu()
        if rng.random() < 0.15:
            extra.append(b.last)
    _, c, h, w = b.shape_of(b.last)
    if rng.random() < 0.3:
        # the same elements as another (channels, height, width)
        size = c * h * w
        divisors = [a for a in range(1, size + 1) if size % a == 0]
        dims = [(size // (a * z), a, z) for a in divisors for z in divisors
                if size % (a * z) == 0]
        dims.remove((c, h, w))
        if dims:
            b.reshape((n, *dims[int(rng.integers(0, len(dims)))]))
    if rng.random() < 0.5:
        b.matmul(int(rng.integers(1, 11)))
    if rng.random() < 0.4:
        b.softmax()
    built = b.build(outputs=[b.last, *(t for t in extra if t != b.last)])
    return built, fuse(built)


def test_random_pool_chains():
    start = time.perf_counter()
    rng = np.random.default_rng(2207)
    seen = {"padded": 0, "overlapping": 0, "folded": 0, "matmul": 0,
            "reshape": 0, "softmax": 0, "outputs": 0}
    for trial in range(CHAINS):
        built, g = pool_chain_graph(rng)
        nchw = {tid: rng.uniform(-1, 1, size=g.tensor_shapes[tid].dims)
                .astype(np.float32) for tid in g.inputs}
        want = reference.evaluate(built, nchw)
        x = {tid: from_nchw(a) for tid, a in nchw.items()}
        for backend in ("cpu", "sim", "auto"):
            plan, backends = plan_on(g, backend, None, DEFAULT_SPACING)
            assert_lifetimes(g, plan)
            got = assert_replayed(g, plan, backends, x)
            for tid in g.outputs:
                err = reference.rel_error(got[tid], want[tid])
                assert err <= REFERENCE_TOLERANCE, (trial, backend, tid, err)
                seen["outputs"] += 1
            seen["folded"] += sum(isinstance(s, OpStep) and s.pool is not None
                                  for s in plan.steps)
        for node in g.nodes:
            if node.kind is OpKind.POOL2D:
                q = node.params()
                seen["padded"] += bool(q.pad_h or q.pad_w)
                seen["overlapping"] += (q.kh, q.kw) != (q.stride_h,
                                                        q.stride_w)
            elif node.kind.name.lower() in seen:
                seen[node.kind.name.lower()] += 1
    elapsed = time.perf_counter() - start
    # every path of pool_nhwc4, the pool fold and the head are exercised
    assert min(seen.values()) >= 10, seen
    assert elapsed < CHAINS_BUDGET_S, f"{elapsed:.1f} s"
