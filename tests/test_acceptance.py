"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time
import tracemalloc

import numpy as np
import pytest

import nanoinfer.kernels as kernels
from conftest import rel_err
from nanoinfer.backend import CpuBackend, Session, run_session
from nanoinfer.cli import replay_cpu
from nanoinfer.graph import GraphBuilder, OpKind, fuse
from nanoinfer.kernels import (
    ADD_COST, ConvParams, MatDims, conv_sliding, matmul_direct,
    matmul_strassen, strassen_recursion_depth, strassen_scratch_elems,
    strassen_should_recurse,
)
from nanoinfer.preinference import (
    BackendSpec, CostModel, conv_schemes, gpu_cost_model,
    op_cost, plan_for_candidate, pre_infer, scheme_cost, select_backend,
    select_schemes,
)
from nanoinfer.presets import build_preset
from nanoinfer.simbackend import SimBackend
from nanoinfer.tensor import (
    Layout, from_nchw, pack_nc4hw4, relayout, unpack_nc4hw4,
)
from nanoinfer.winograd import conv_winograd, generate_transforms


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def batch_corr2d(x, w):
    """Direct valid correlation over a batch, float64; no transforms."""
    b, alpha, _ = x.shape
    k = w.shape[1]
    n = alpha - k + 1
    y = np.zeros((b, n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            for u in range(k):
                for v in range(k):
                    y[:, i, j] += x[:, i + u, j + v] * w[:, u, v]
    return y


def test_criterion_1_generator_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    combos = 0
    for k in (2, 3, 5, 7):
        for n in (2, 4):
            if n + k - 1 > 10:
                continue
            for f in (0.5, 1.0):
                t = generate_transforms(n, k, f)
                w = rng.standard_normal((1000, k, k))
                x = rng.standard_normal((1000, t.alpha, t.alpha))
                want = batch_corr2d(x, w)
                gw = t.G @ w @ t.G.T
                bx = np.swapaxes(t.B, 0, 1) @ x @ t.B
                got = t.A.T @ (gw * bx) @ t.A
                scale = np.max(np.abs(want), axis=(1, 2)) + 1e-12
                err = float(np.max(
                    np.max(np.abs(got - want), axis=(1, 2)) / scale))
                worst = max(worst, err)
                combos += 1
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-6 and elapsed < 30.0,
           f"winograd identity over {combos} (k,n,f) combos x1000 pairs: "
           f"max rel err {worst:.2e} (<=1e-6), {elapsed:.1f}s (<30s)")


def test_criterion_2_kernel_equivalence(monkeypatch):
    start = time.perf_counter()
    rng = np.random.default_rng(22)

    worst_wino = 0.0
    for k in (2, 3, 4, 5, 7, 9):
        for n_tile in (2, 4, 6):
            if n_tile + k - 1 > 10:
                continue
            x = rng.standard_normal((1, 6, 24, 24)).astype(np.float32)
            w = (rng.standard_normal((5, 6, k, k)) * 0.3).astype(np.float32)
            p = ConvParams.square(k, pad=k // 2, in_c=6, out_c=5)
            packed = pack_nc4hw4(from_nchw(x))
            base = unpack_nc4hw4(conv_sliding(packed, w, p)).data
            t = generate_transforms(n_tile, k, 0.5)
            got = unpack_nc4hw4(conv_winograd(packed, w, p, t)).data
            worst_wino = max(worst_wino, rel_err(got, base))

    # the engine's weighted rule takes no level at these sizes, so weigh
    # additions like multiplies to keep the recursion itself under test
    monkeypatch.setattr(kernels, "ADD_COST", 1)
    worst_str = 0.0
    fixed = [(128, 128, 128), (256, 256, 256), (512, 512, 512),
             (128, 256, 512), (512, 256, 128)]
    dims = [tuple(int(d) for d in rng.integers(1, 65, size=3))
            for _ in range(15)]
    fixed_depth = []
    for n, k, m in dims + fixed:
        a = rng.standard_normal((n, k)).astype(np.float32)
        b = rng.standard_normal((k, m)).astype(np.float32)
        if (n, k, m) in fixed:
            fixed_depth.append(strassen_recursion_depth(MatDims(n, k, m)))
        worst_str = max(worst_str,
                        rel_err(matmul_strassen(a, b), matmul_direct(a, b)))
    elapsed = time.perf_counter() - start
    report(2, worst_wino <= 1e-3 and worst_str <= 1e-4
           and min(fixed_depth) >= 1 and elapsed < 120.0,
           f"winograd vs sliding {worst_wino:.2e} (<=1e-3), strassen vs "
           f"direct {worst_str:.2e} (<=1e-4) at count-rule depths "
           f"{min(fixed_depth)}-{max(fixed_depth)} on the fixed sizes (>=1), "
           f"{elapsed:.1f}s (<2min)")


def test_criterion_3_strassen_direction():
    """The engine's Strassen path moves time the right way at 1024^3.

    If the engine takes a level it must beat matmul_direct.  If it takes
    none, it must be matmul_direct bit for bit, and the one level it
    declined must not have been more than 10% faster than direct.
    """
    import os
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs >= 2 cores")
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    a = rng.standard_normal((1024, 1024), dtype=np.float32)
    b = rng.standard_normal((1024, 1024), dtype=np.float32)
    d = MatDims(1024, 1024, 1024)
    depth = strassen_recursion_depth(d, ADD_COST)
    # a weight of 34 pays at 1024^3 but not at 512^3: exactly one level
    one_weight = 34
    assert strassen_recursion_depth(d, one_weight) == 1

    def one_level(fn):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "ADD_COST", one_weight)
            return fn()

    engine_scratch = np.empty(strassen_scratch_elems(d), dtype=np.float32)
    one_scratch = np.empty(one_level(lambda: strassen_scratch_elems(d)),
                           dtype=np.float32)
    paths = {
        "direct": lambda: matmul_direct(a, b),
        "engine": lambda: matmul_strassen(a, b, engine_scratch),
        "one": lambda: one_level(lambda: matmul_strassen(a, b, one_scratch)),
    }
    for fn in paths.values():
        fn()
    times = {name: [] for name in paths}
    names = list(paths)
    for rnd in range(9):
        # rotate the order so no path always follows the same one
        for name in names[rnd % 3:] + names[:rnd % 3]:
            times[name].append(_timed(paths[name]))
    t_dir, t_eng, t_one = (float(np.median(times[name]))
                           for name in ("direct", "engine", "one"))
    gain = (t_dir - t_eng) / t_dir * 100.0
    gain_one = (t_dir - t_one) / t_dir * 100.0
    if depth >= 1:
        direction_ok = t_eng < t_dir
    else:
        direction_ok = (np.array_equal(matmul_strassen(a, b, engine_scratch),
                                       matmul_direct(a, b))
                        and gain_one <= 10.0)
    elapsed = time.perf_counter() - start
    report(3, direction_ok and elapsed < 60.0,
           f"1024^3 engine strassen {t_eng * 1e3:.1f} ms vs direct "
           f"{t_dir * 1e3:.1f} ms, improvement {gain:.1f}%; forced one level "
           f"{t_one * 1e3:.1f} ms, improvement {gain_one:.1f}% (<=10% when "
           f"declined); recursion depth: weighted rule (ADD_COST={ADD_COST}) "
           f"{depth}, count rule {strassen_recursion_depth(d)}")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_4_cutoff_rule():
    ok_256 = strassen_should_recurse(MatDims(256, 256, 256)) is True
    ok_16 = strassen_should_recurse(MatDims(16, 16, 16)) is False
    # iterate the inequality by hand: halve while it holds
    depth, dim = 0, 1024
    while dim * dim * dim - 7 * (dim // 2) ** 3 > 15 * (dim // 2) ** 2:
        dim //= 2
        depth += 1
    ok_depth = strassen_recursion_depth(MatDims(1024, 1024, 1024)) == depth == 6
    report(4, ok_256 and ok_16 and ok_depth,
           f"recurse(256^3)={ok_256}, stop(16^3)={ok_16}, "
           f"depth(1024^3)={depth}")


def test_criterion_5_cost_model():
    def sig4(x):
        from math import floor, log10
        return round(x, -int(floor(log10(abs(x)))) + 3)

    cpu = sig4(op_cost(200_000_000, CostModel(flops=2e9)))
    mali = sig4(op_cost(200_000_000, gpu_cost_model("Mali-G71", "opencl")))
    adreno = sig4(op_cost(1_000_000_000,
                          gpu_cost_model("Adreno (TM) 540", "vulkan")))
    dispatch = op_cost(0, CostModel(flops=4e9, t_schedule_ms=0.05))
    ok = (cpu == 100.0 and mali == 6.377 and adreno == 23.41
          and dispatch == 0.05)
    report(5, ok, f"op_cost: cpu={cpu} (100.0), mali-g71={mali} (6.377), "
                  f"adreno540={adreno} (23.41), mul=0 gpu={dispatch} (0.05)")


def random_dag(rng, max_nodes=30):
    b = GraphBuilder((1, int(rng.integers(1, 7)), 8, 8),
                     seed=int(rng.integers(0, 2 ** 31)))
    frontier = [b.input_id]
    for _ in range(int(rng.integers(2, max_nodes))):
        kind = rng.choice(["conv", "conv", "relu", "add", "pool", "softmax",
                           "reshape", "matmul"])
        src = frontier[int(rng.integers(0, len(frontier)))]
        n, c, h, w = b.shape_of(src)
        if kind == "conv" and min(h, w) >= 3 and c >= 1:
            k = int(rng.choice([1, 2, 3]))
            out = b.conv(src, kernel=k, pad=int(rng.integers(0, k)),
                         stride=int(rng.choice([1, 1, 2])),
                         out_c=int(rng.integers(1, 9)))
        elif kind == "relu":
            out = b.relu(src)
        elif kind == "add":
            peers = [t for t in frontier if b.shape_of(t) == b.shape_of(src)]
            if len(peers) < 2:
                continue
            out = b.add(peers[0], peers[1])
        elif kind == "pool" and min(h, w) >= 2:
            out = b.pool(src, kernel=2, mode=str(rng.choice(["max", "avg"])))
        elif kind == "reshape" and c * h * w % 2 == 0:
            out = b.reshape((n, c * h * w // 2, 2, 1), src)
        elif kind == "matmul":
            out = b.matmul(int(rng.integers(1, 11)), src)
        else:
            out = b.softmax(src)
        frontier.append(out)
    if not b.nodes:
        b.relu()
    return b.build([b.last])


def test_criterion_6_planner_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    cpu_spec = BackendSpec("cpu", CostModel(flops=2e9))
    checked = 0
    for trial in range(200):
        g = random_dag(rng)
        plan = pre_infer(g, [cpu_spec])
        mem = plan.memory["cpu"]
        # live-range overlap sweep
        tids = list(mem.offsets)
        for i, ta in enumerate(tids):
            fa, la = mem.lifetimes[ta]
            for tb in tids[i + 1:]:
                fb, lb = mem.lifetimes[tb]
                if max(fa, fb) <= min(la, lb) and mem.sizes[ta] and mem.sizes[tb]:
                    a0, a1 = mem.offsets[ta], mem.offsets[ta] + mem.sizes[ta]
                    b0, b1 = mem.offsets[tb], mem.offsets[tb] + mem.sizes[tb]
                    assert a1 <= b0 or b1 <= a0, (trial, ta, tb)
        assert mem.pool_size <= sum(mem.sizes.values()), trial

        shape = tuple(g.tensor_shapes[g.inputs[0]].dims)
        x = from_nchw(rng.uniform(-1, 1, size=shape).astype(np.float32))
        pooled = run_session(plan, x)
        fresh = replay_cpu(g, plan, x)
        for tid in g.outputs:
            want = relayout(fresh[tid], Layout.NCHW)
            assert np.array_equal(pooled[tid].data, want.data), trial
        checked += 1
    elapsed = time.perf_counter() - start
    report(6, checked == 200 and elapsed < 120.0,
           f"{checked} random DAGs: pooled == fresh bitwise, no live-range "
           f"overlap, pool <= sum(sizes); {elapsed:.1f}s (<2min)")


# heap bound of one mobilenet-mini run, as test_backend's steady-state
# bound: its peak is the first conv's slab and window matrix, 148,864 B
RUN_HEAP_BOUND = 156_000
# bytes a run may leave on the heap after warm-up (each run's are freed)
RETAINED_BOUND = 1024


def test_criterion_7_decoupling():
    g = fuse(build_preset("mobilenet-mini"))
    cpu = CpuBackend()
    plan = pre_infer(g, [cpu.spec()])
    session = Session(plan, [cpu])
    rng = np.random.default_rng(77)
    x = from_nchw(rng.uniform(-1, 1, size=(1, 3, 32, 32)).astype(np.float32))
    # NumPy's einsum keeps about 120 B a call until its caches are full,
    # over the first several runs
    for _ in range(10):
        session.run(x)
    baseline = cpu.alloc_count
    deltas = []
    # the counter counts pool and staging set-up only; tracemalloc sees
    # every allocation a run makes, the kernels' temporaries too
    peaks = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            tracemalloc.reset_peak()
            session.run(x)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            deltas.append(cpu.alloc_count - baseline)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        session.close()
    report(7, all(d == 0 for d in deltas) and max(peaks) <= RUN_HEAP_BOUND
           and retained <= RETAINED_BOUND,
           f"allocator count deltas across 4 repeat inferences: {deltas} "
           f"(all zero); heap peak per run {max(peaks)} B (<= "
           f"{RUN_HEAP_BOUND}), {retained} B retained after 4 runs (<= "
           f"{RETAINED_BOUND})")


def test_criterion_8_hybrid_scheduling():
    cpu_spec = BackendSpec("cpu", CostModel(flops=2e9))

    # scenario grid from the backend-selection contract
    b = GraphBuilder((1, 4, 50, 50), seed=0)
    for _ in range(20):
        b.relu()
    tiny = b.build()
    b2 = GraphBuilder((7, 61, 64, 64), seed=0)
    b2.conv(kernel=3, pad=1, out_c=64)
    big = b2.build()

    scenarios = [
        (tiny, BackendSpec("gpu", CostModel(4e9, 0.05)), "cpu"),
        (big, BackendSpec("gpu", gpu_cost_model("Adreno (TM) 540", "vulkan")),
         "gpu"),
        (tiny, BackendSpec("gpu", CostModel(1e12), frozenset()), "cpu"),
    ]
    ok = True
    for g, gpu, want in scenarios:
        got = select_backend(g, [cpu_spec, gpu])
        # brute-force argmin over candidate plans
        plans = [plan_for_candidate(g, cand, cpu_spec)
                 for cand in (cpu_spec, gpu)]
        best = min(p.total_cost_ms for p in plans)
        ok &= got.candidate == want
        ok &= got.total_cost_ms == pytest.approx(best)

    # hybrid CPU/sim output bitwise equal to pure CPU
    g = fuse(build_preset("inception-mini"))
    rng = np.random.default_rng(88)
    x = from_nchw(rng.uniform(-1, 1, size=(1, 3, 33, 33)).astype(np.float32))
    pure = run_session(pre_infer(g, [cpu_spec]), x)
    cpu, sim = CpuBackend(), SimBackend(
        supported=frozenset({OpKind.RELU, OpKind.ADD, OpKind.POOL2D,
                             OpKind.SOFTMAX}))
    plan = pre_infer(g, [cpu.spec(), sim.spec()], force_backend="sim")
    hybrid = run_session(plan, x, [cpu, sim])
    bitwise = all(np.array_equal(pure[t].data, hybrid[t].data) for t in pure)
    used = sorted(set(plan.assignment.values()))
    report(8, ok and bitwise and used == ["cpu", "sim"],
           f"3 selection scenarios match brute-force argmin; hybrid "
           f"{used} run bitwise-equal to pure CPU: {bitwise}")


def test_criterion_9_no_bottleneck_coverage():
    g = fuse(build_preset("inception-mini"))
    plan = pre_infer(g, [BackendSpec("cpu", CostModel(flops=2e9))])
    rng = np.random.default_rng(99)
    x = from_nchw(rng.uniform(-1, 1, size=(1, 3, 33, 33)).astype(np.float32))
    values = replay_cpu(g, plan, x)

    kernels_seen = set()
    worst = 0.0
    for node in g.nodes:
        if node.kind is not OpKind.CONV2D:
            continue
        kernels_seen.add(tuple(node.attrs["kernel"]))
        p = node.params()
        x_in = values[node.inputs[0]]
        want = relayout(conv_sliding(x_in, node.weights, p, bias=node.bias),
                        Layout.NCHW)
        got = relayout(values[node.outputs[0]], Layout.NCHW)
        worst = max(worst, rel_err(got.data, want.data))
    # every op kind executed through a real kernel; end-to-end run works
    out = run_session(plan, x)
    finite = all(np.all(np.isfinite(t.data)) for t in out.values())
    ok = ((1, 7) in kernels_seen and (7, 1) in kernels_seen
          and worst <= 1e-3 and finite)
    report(9, ok, f"inception-mini end-to-end with kernels {sorted(kernels_seen)}; "
                  f"every conv within {worst:.2e} of sliding oracle (<=1e-3)")


def test_criterion_10_argmin_consistency():
    rng = np.random.default_rng(110)
    checked = 0
    ok = True
    for _ in range(500):
        k = int(rng.integers(2, 8))
        ic = int(rng.integers(0, 65))
        oc = int(rng.integers(1, 65))
        ow = int(rng.integers(1, 65))
        oh = int(rng.integers(1, 65))
        b = GraphBuilder((1, max(ic, 0), oh + k - 1, ow + k - 1), seed=1)
        if ic >= 1:
            b.conv(kernel=k, out_c=oc, bias=False)
            g = b.build()
            node = g.nodes[0]
            p = node.params()
            dims = g.tensor_shapes[node.inputs[0]].dims
            # brute force: the first scheme of least cost over the list
            best, best_cost = None, None
            for scheme in conv_schemes(p):
                cost = scheme_cost(p, scheme, dims)
                if best_cost is None or cost < best_cost:
                    best, best_cost = scheme, cost
            ok &= select_schemes(g)[node.id] == best
        checked += 1
    report(10, ok and checked == 500,
           f"select_schemes equals the brute-force argmin of scheme_cost "
           f"over conv_schemes on {checked} grid points")
