import pytest

import nanoinfer.kernels as kernels
from conftest import batched_matmul_graph
from nanoinfer.errors import GraphValidationError
from nanoinfer.graph import GraphBuilder, OpKind, fuse
from nanoinfer.preinference import (
    BackendSpec, CostModel, GPU_FLOPS, OpStep, SchemeKind,
    T_SCHEDULE_OPENCL_MS, T_SCHEDULE_VULKAN_MS, conv_schemes, gpu_cost_model,
    SchemeChoice, mul_count, op_cost, op_work, packed_bytes,
    plan_for_candidate, plan_intervals, plan_memory, pre_infer, scheme_cost,
    scheme_costs, select_backend, select_scheme_for, select_schemes,
)
from nanoinfer.presets import PRESETS, build_preset

CPU = BackendSpec("cpu", CostModel(flops=2e9))


def sig4(x):
    from math import floor, log10
    return round(x, -int(floor(log10(abs(x)))) + 3)


class TestOpCost:
    def test_cpu_default(self):
        assert op_cost(200_000_000, CostModel(flops=2e9)) == 100.0

    def test_mali_g71_opencl(self):
        model = gpu_cost_model("Mali-G71", api="opencl")
        assert model.flops == 31.61e9
        assert model.t_schedule_ms == 0.05
        assert sig4(op_cost(200_000_000, model)) == 6.377

    def test_adreno_540_vulkan(self):
        model = gpu_cost_model("Adreno (TM) 540", api="vulkan")
        assert model.flops == 42.74e9
        assert model.t_schedule_ms == 0.01
        assert sig4(op_cost(1_000_000_000, model)) == 23.41

    def test_zero_mul_is_pure_dispatch(self):
        model = CostModel(flops=4e9, t_schedule_ms=0.05)
        assert op_cost(0, model) == 0.05

    def test_unknown_gpu_default(self):
        assert gpu_cost_model("FutureChip 9000").flops == 4e9

    def test_table_complete(self):
        assert len(GPU_FLOPS) == 17
        assert (T_SCHEDULE_OPENCL_MS, T_SCHEDULE_VULKAN_MS) == (0.05, 0.01)


class TestMulCount:
    def test_conv(self):
        b = GraphBuilder((1, 8, 16, 16), seed=0)
        b.conv(kernel=3, pad=1, out_c=4)
        g = b.build()
        # o_w * o_h * o_c * i_c * k^2
        assert mul_count(g.nodes[0], g.tensor_shapes) == 16 * 16 * 4 * 8 * 9

    def test_conv_scales_with_batch(self):
        # like every other op, a conv's count covers all n images
        counts = {}
        for n in (1, 2):
            b = GraphBuilder((n, 2, 4, 4), seed=0)
            b.conv(kernel=3, pad=1, out_c=4)
            b.reshape((n, 64, 1, 1))
            b.matmul(5)
            b.pool(kernel=1, src=b.input_id)
            g = b.build(outputs=[b.last])
            counts[n] = [mul_count(node, g.tensor_shapes) for node in g.nodes]
        assert counts[1] == [4 * 4 * 4 * 2 * 9, 64, 64 * 5, 32]
        assert counts[2] == [2 * c for c in counts[1]]

    def test_matmul(self):
        b = GraphBuilder((2, 8, 2, 2), seed=0)
        b.matmul(10)
        g = b.build()
        assert mul_count(g.nodes[0], g.tensor_shapes) == 2 * 32 * 10

    def test_elementwise(self):
        b = GraphBuilder((1, 4, 50, 50), seed=0)
        b.relu()
        g = b.build()
        assert mul_count(g.nodes[0], g.tensor_shapes) == 10_000


def tiny_chain(n_ops=20, shape=(1, 4, 50, 50)):
    b = GraphBuilder(shape, seed=0)
    for _ in range(n_ops):
        b.relu()
    return b.build()


def one_big_conv():
    # mul = 64 * 64 * 64 * 61 * 9 ~ 1.44e8 per image; batch it up to ~1e9
    b = GraphBuilder((7, 61, 64, 64), seed=0)
    b.conv(kernel=3, pad=1, out_c=64)
    return b.build()


class TestSelectBackend:
    def test_tiny_ops_stay_on_cpu(self):
        g = tiny_chain()
        gpu = BackendSpec("gpu", CostModel(flops=4e9, t_schedule_ms=0.05))
        plan = select_backend(g, [CPU, gpu])
        assert plan.candidate == "cpu"
        assert set(plan.assignment.values()) == {"cpu"}

    def test_big_conv_goes_to_gpu(self):
        g = one_big_conv()
        gpu = BackendSpec("gpu", gpu_cost_model("Adreno (TM) 540", "vulkan"))
        plan = select_backend(g, [CPU, gpu])
        assert plan.candidate == "gpu"
        node = g.nodes[0]
        work = op_work(node, g.tensor_shapes,
                       select_scheme_for(node, g.tensor_shapes))
        assert plan.total_cost_ms == pytest.approx(op_cost(work, gpu.cost))
        assert op_cost(work, gpu.cost) < op_cost(work, CPU.cost)

    def test_unsupporting_gpu_equals_cpu_plan(self):
        g = tiny_chain(5)
        gpu = BackendSpec("gpu", CostModel(flops=1e12), supported=frozenset())
        plan = select_backend(g, [CPU, gpu])
        cpu_plan = plan_for_candidate(g, CPU, CPU)
        assert plan.assignment == cpu_plan.assignment
        assert plan.candidate == "cpu"  # tie resolves to CPU

    def test_brute_force_argmin(self, rng):
        g = build_random_graph(rng, 8)
        kinds = list(OpKind)
        for trial in range(25):
            backends = [CPU]
            for i in range(int(rng.integers(1, 3))):
                support = frozenset(
                    k for k in kinds if rng.random() < 0.6
                )
                backends.append(BackendSpec(
                    f"dev{i}",
                    CostModel(flops=float(rng.uniform(1e9, 1e11)),
                              t_schedule_ms=float(rng.uniform(0, 0.2))),
                    supported=support,
                ))
            got = select_backend(g, backends)
            # independent enumeration of every candidate plan; a conv is
            # billed at its cheapest scheme's cost, any other op at its
            # multiply count
            totals = {}
            for cand in backends:
                total = 0.0
                for node in g.nodes:
                    spec = cand if cand.supports(node.kind) else CPU
                    work = (min(scheme_costs(node, g.tensor_shapes).values())
                            if node.kind is OpKind.CONV2D
                            else mul_count(node, g.tensor_shapes))
                    total += op_cost(work, spec.cost)
                totals[cand.name] = total
            best = min(totals.values())
            assert got.total_cost_ms == pytest.approx(best)
            if totals["cpu"] == pytest.approx(best):
                assert got.candidate == "cpu"


def build_random_graph(rng, max_nodes=12, seed=None):
    b = GraphBuilder((1, int(rng.integers(1, 7)), 8, 8),
                     seed=int(rng.integers(0, 2 ** 31)))
    frontier = [b.input_id]
    for _ in range(int(rng.integers(1, max_nodes))):
        kind = rng.choice(["conv", "relu", "add", "pool", "softmax"])
        src = frontier[int(rng.integers(0, len(frontier)))]
        n, c, h, w = b.shape_of(src)
        if kind == "conv":
            k = int(rng.choice([1, 2, 3]))
            if min(h, w) < k:
                continue
            out = b.conv(src, kernel=k, pad=int(rng.integers(0, k)),
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
        else:
            out = b.softmax(src)
        frontier.append(out)
    return b.build([frontier[-1]])


class TestSelectSchemes:
    def test_k1_routes_to_sliding(self):
        # sliding window runs a 1x1 conv as one GEMM per image; it is the
        # only scheme listed, on a large map and on a tiny one
        for size in (32, 4):
            b = GraphBuilder((1, 16, size, size), seed=0)
            b.conv(kernel=1, out_c=16)
            g = b.build()
            node = g.nodes[0]
            costs = scheme_costs(node, g.tensor_shapes)
            assert list(costs) == [SchemeChoice(SchemeKind.SLIDING_WINDOW)]
            assert select_schemes(g)[node.id].kind \
                is SchemeKind.SLIDING_WINDOW, size

    def test_k3_wide_uses_winograd_tile(self):
        # every Winograd tile is a candidate; the planned scheme is the
        # cost argmin, which need not be one of them
        b = GraphBuilder((1, 64, 32, 32), seed=0)
        b.conv(kernel=3, pad=1, out_c=64)
        g = b.build()
        node = g.nodes[0]
        costs = scheme_costs(node, g.tensor_shapes)
        assert {s.tile for s in costs if s.kind is SchemeKind.WINOGRAD} \
            == {2, 4, 6}
        choice = select_schemes(g)[node.id]
        assert choice == min(costs, key=costs.get)
        assert costs[choice] == scheme_cost(
            node.params(), choice, g.tensor_shapes[node.inputs[0]].dims)

    def test_zero_channels_k2_falls_back_to_sliding(self):
        b = GraphBuilder((1, 0, 8, 8), seed=0)
        b.conv(kernel=2, out_c=1, bias=False)
        g = b.build()
        schemes = select_schemes(g)
        assert schemes[g.nodes[0].id].kind is SchemeKind.SLIDING_WINDOW

    @pytest.mark.parametrize("params, labels", [
        (kernels.ConvParams(1, 1), {"sliding"}),
        (kernels.ConvParams(1, 1, 2, 2), {"sliding"}),
        (kernels.ConvParams(3, 3, 2, 2, 1, 1), {"sliding"}),
        (kernels.ConvParams(1, 7, pad_w=3), {"sliding"}),
        (kernels.ConvParams(3, 3, pad_h=1, pad_w=1),
         {"sliding", "winograd2", "winograd4", "winograd6"}),
        (kernels.ConvParams(7, 7, pad_h=3, pad_w=3),
         {"sliding", "winograd2", "winograd4"}),
    ])
    def test_conv_schemes_per_geometry(self, params, labels):
        assert {s.label() for s in conv_schemes(params)} == labels

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_planned_scheme_is_runnable(self, preset):
        g = fuse(build_preset(preset))
        for node in g.nodes:
            if node.kind is OpKind.CONV2D:
                assert select_scheme_for(node, g.tensor_shapes) \
                    in conv_schemes(node.params()), node.id

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_cpu_flops_leave_schemes_unchanged(self, preset):
        # the flops constant scales every scheme's cost alike
        g = fuse(build_preset(preset))
        slow = pre_infer(g, [CPU])
        fast = pre_infer(g, [BackendSpec("cpu", CostModel(flops=2e10))])
        assert fast.schemes == slow.schemes
        for nid, est in slow.candidates.items():
            assert fast.candidates[nid] == pytest.approx(
                {label: ms / 10 for label, ms in est.items()})

    def test_stride_and_nonsquare_fall_back(self):
        b = GraphBuilder((1, 8, 16, 16), seed=0)
        b.conv(kernel=3, stride=2, pad=1, out_c=8)
        b.conv(kernel=(1, 7), pad=(0, 3), out_c=8)
        g = b.build()
        schemes = select_schemes(g)
        for node in g.nodes:
            assert schemes[node.id].kind is SchemeKind.SLIDING_WINDOW


class TestPlanIntervals:
    def test_chain_reuses_first_slot(self):
        items = [("A", 100, 0, 1), ("B", 200, 1, 2), ("C", 100, 2, 3)]
        plan = plan_intervals(items, alignment=1)
        assert plan.pool_size == 300
        assert plan.offsets["C"] == plan.offsets["A"] == 0
        assert plan.offsets["B"] == 100

    def test_single_tensor(self):
        plan = plan_intervals([("out", 64, 0, 1)], alignment=1)
        assert plan.pool_size == 64

    def test_alignment_rounds_sizes(self):
        plan = plan_intervals([("a", 4, 0, 2), ("b", 100, 1, 2)], alignment=64)
        assert plan.offsets["b"] == 64
        assert plan.pool_size == 64 + 128

    def test_live_ranges_never_overlap(self, rng):
        for _ in range(50):
            count = int(rng.integers(2, 20))
            items = []
            for i in range(count):
                first = int(rng.integers(0, 10))
                last = first + int(rng.integers(0, 6))
                items.append((f"t{i}", int(rng.integers(1, 500)), first, last))
            plan = plan_intervals(items, alignment=16)
            for i, (ta, _, fa, la) in enumerate(items):
                for tb, _, fb, lb in items[i + 1:]:
                    if max(fa, fb) <= min(la, lb):  # lifetimes overlap
                        a0, a1 = plan.offsets[ta], plan.offsets[ta] + plan.sizes[ta]
                        b0, b1 = plan.offsets[tb], plan.offsets[tb] + plan.sizes[tb]
                        assert a1 <= b0 or b1 <= a0, (ta, tb)
            assert plan.pool_size <= sum(plan.sizes.values())


class TestPlanMemory:
    def test_diamond_lifetime(self):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        trunk = b.conv(kernel=3, pad=1, out_c=4, name="trunk", bias=False)
        left = b.relu(trunk, name="left")
        right = b.softmax(trunk, name="right")
        b.add(left, right, name="join")
        g = b.build()
        plans = plan_memory(g)
        plan = plans["cpu"]
        trunk_tid = g.nodes[0].outputs[0]
        left_tid = g.nodes[1].outputs[0]
        right_tid = g.nodes[2].outputs[0]
        # trunk stays live until the later branch reads it
        assert plan.lifetimes[trunk_tid][1] >= plan.lifetimes[left_tid][0]
        for branch in (left_tid, right_tid):
            a0 = plan.offsets[trunk_tid]
            a1 = a0 + plan.sizes[trunk_tid]
            b0 = plan.offsets[branch]
            b1 = b0 + plan.sizes[branch]
            assert a1 <= b0 or b1 <= a0

    @pytest.mark.parametrize("weight", [1, kernels.ADD_COST])
    @pytest.mark.parametrize("name", sorted(PRESETS) + ["batched-matmul"])
    def test_pool_holds_graph_tensors_only(self, name, weight, monkeypatch):
        # a plan's pools hold graph tensors and nothing else, even where
        # the count rule (weight 1) splits the batched MatMul's product,
        # but for the scratch of each fused step, which every preset plans:
        # mobilenet-mini's folded max pool, the others' folded Adds
        monkeypatch.setattr(kernels, "ADD_COST", weight)
        g = (batched_matmul_graph() if name == "batched-matmul"
             else fuse(build_preset(name)))
        plan = pre_infer(g, [CPU])
        scratch = {s.scratch_id for s in plan.steps
                   if isinstance(s, OpStep) and s.folded}
        assert bool(scratch) == (name in PRESETS)
        for mem in plan.memory.values():
            assert set(mem.offsets) <= set(g.tensor_shapes) | scratch
            assert set(mem.sizes) == set(mem.offsets)

    def test_lower_bound_is_the_busiest_step(self):
        # b and c are live together at steps 2-3; c does not fit the hole
        # a leaves below b, so first-fit places it above
        plan = plan_intervals([("a", 64, 0, 1), ("b", 64, 0, 3),
                               ("c", 100, 2, 3)], alignment=64)
        assert plan.lower_bound == 64 + 128 < 256 == plan.pool_size

    @pytest.mark.parametrize("name,gap", [
        ("inception-mini", 0), ("mobilenet-mini", 0), ("resnet-mini", 0),
        # first-fit leaves a 32 KiB hole here: ROADMAP item 11's second half
        ("squeezenet-mini", 32_768)])
    def test_cpu_pool_at_its_live_bytes_bound(self, name, gap):
        plan = pre_infer(fuse(build_preset(name)), [CPU])
        mem = plan.memory["cpu"]
        assert mem.pool_size - mem.lower_bound == gap

    def test_chain_pool_bounded_by_two_tensors(self):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        for _ in range(6):
            b.relu()
        g = b.build()
        plans = plan_memory(g)
        size = packed_bytes(g.tensor_shapes[g.outputs[0]])
        assert plans["cpu"].pool_size <= 2 * size

    def test_pool_never_exceeds_total(self, rng):
        for _ in range(20):
            g = build_random_graph(rng)
            plans = plan_memory(g)
            for plan in plans.values():
                assert plan.pool_size <= sum(plan.sizes.values())


class TestPreInfer:
    def test_total_cost_is_sum_of_op_costs(self):
        g = build_preset_graph()
        plan = pre_infer(g, [CPU])
        assert plan.total_cost_ms == pytest.approx(sum(plan.op_costs.values()))
        recomputed = sum(op_cost(op_work(n, g.tensor_shapes,
                                         plan.schemes.get(n.id)), CPU.cost)
                         for n in g.nodes)
        assert plan.total_cost_ms == pytest.approx(recomputed)

    def test_winograd_conv_billed_at_its_scheme_cost(self, winograd_planned):
        b = GraphBuilder((1, 16, 16, 16), seed=0)
        b.conv(kernel=3, pad=1, out_c=16)
        g = b.build()
        plan = pre_infer(g, [CPU])
        node = g.nodes[0]
        assert plan.schemes[node.id] == winograd_planned
        work = scheme_cost(node.params(), winograd_planned,
                           g.tensor_shapes[node.inputs[0]].dims)
        assert plan.op_costs[node.id] == pytest.approx(op_cost(work, CPU.cost))
        assert plan.op_costs[node.id] != pytest.approx(
            op_cost(plan.muls[node.id], CPU.cost))
        assert plan.muls[node.id] == mul_count(node, g.tensor_shapes)
        assert plan.candidates[node.id]["winograd6"] == plan.op_costs[node.id]

    def test_single_op_pool_is_its_output(self, monkeypatch):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.relu()
        g = b.build()
        plan = pre_infer(g, [CPU])
        out_bytes = packed_bytes(g.tensor_shapes[g.outputs[0]])
        assert plan.memory["cpu"].pool_size == out_bytes  # relu has no scratch

        # no kernel takes scratch from the pool: not a 3x3 conv, not a 1x1
        # conv whose 64x64x256 product the count rule would split, and not
        # a MatMul whose batched 64x64x64 product it splits twice
        monkeypatch.setattr(kernels, "ADD_COST", 1)
        graphs = []
        for kernel, pad, c, size in ((3, 1, 4, 8), (1, 0, 64, 16)):
            b = GraphBuilder((1, c, size, size), seed=0)
            b.conv(kernel=kernel, pad=pad, out_c=c)
            graphs.append(b.build())
        graphs.append(batched_matmul_graph())
        for g in graphs:
            plan = pre_infer(g, [CPU])
            assert set(plan.memory["cpu"].offsets) == {g.outputs[0]}
            assert plan.memory["cpu"].pool_size == packed_bytes(
                g.tensor_shapes[g.outputs[0]])

    def test_winograd_weights_pretransformed(self, winograd_planned):
        b = GraphBuilder((1, 16, 16, 16), seed=0)
        b.conv(kernel=3, pad=1, out_c=16)
        g = b.build()
        plan = pre_infer(g, [CPU])
        node = g.nodes[0]
        assert plan.schemes[node.id].kind is SchemeKind.WINOGRAD
        tile = plan.schemes[node.id].tile
        cached = plan.weight_cache.get((node.id, f"winograd{tile}"))
        alpha = tile + 3 - 1
        assert cached.mats.shape == (alpha * alpha, 16, 16)

    def test_k1_convs_never_get_transformed_weights(self):
        g = build_preset("squeezenet-mini")
        plan = pre_infer(g, [CPU])
        winograd = {(nid, s.label()) for nid, s in plan.schemes.items()
                    if s.kind is SchemeKind.WINOGRAD}
        assert {key for key in plan.weight_cache._store
                if key[1].startswith("winograd")} == winograd
        winograd_nodes = {nid for nid, _ in winograd}
        k1_nodes = {n.id for n in g.nodes if n.kind is OpKind.CONV2D
                    and tuple(n.attrs["kernel"]) == (1, 1)}
        assert k1_nodes and not (k1_nodes & winograd_nodes)

    def test_hybrid_transfer_steps(self):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.conv(kernel=3, pad=1, out_c=4)
        b.relu()
        g = b.build()
        sim = BackendSpec("sim", CostModel(flops=1e12, t_schedule_ms=0.0),
                          supported=frozenset({OpKind.RELU}))
        plan = pre_infer(g, [CPU, sim], force_backend="sim")
        assert plan.assignment[g.nodes[0].id] == "cpu"
        assert plan.assignment[g.nodes[1].id] == "sim"
        moves = [(t.src, t.dst) for t in plan.transfers()]
        assert moves == [("cpu", "sim"), ("sim", "cpu")]

    def test_unknown_forced_backend_named(self):
        g = build_preset_graph()
        sim = BackendSpec("sim", CostModel(flops=1e12))
        with pytest.raises(GraphValidationError,
                           match=r"'gpu' is not a planned backend \(cpu, sim\)"):
            pre_infer(g, [CPU, sim], force_backend="gpu")


def build_preset_graph():
    return build_preset("resnet-mini")


def folds(plan):
    """Conv id -> the id of the max pool folded into its step."""
    return {s.node.id: s.pool.id for s in plan.steps
            if isinstance(s, OpStep) and s.pool is not None}


def conv_pool_graph(conv=None, pool=None, relu_reader=False,
                    conv_output=False):
    """A 1x1 conv on 12 x 12 (or `conv`'s keywords), then a max pool with
    kernel and stride 2 (or `pool`'s keywords): the pair folds as it is."""
    b = GraphBuilder((1, 4, 12, 12), seed=0)
    y = b.conv(**(conv or {"kernel": 1, "out_c": 8}), name="c")
    out = b.pool(y, **(pool or {"kernel": 2}), name="p")
    outputs = [out]
    if relu_reader:
        outputs.append(b.relu(y))
    if conv_output:
        outputs.append(y)
    return b.build(outputs=outputs)


SIM_POOL = BackendSpec("sim", CostModel(flops=1e12),
                       supported=frozenset({OpKind.POOL2D}))


class TestFoldPools:
    @pytest.mark.parametrize("name,want", [
        ("mobilenet-mini", {"pw2": "pool_24"}),
        ("inception-mini", {}),
        ("resnet-mini", {}), ("squeezenet-mini", {})])
    def test_presets(self, name, want):
        g = fuse(build_preset(name))
        plan = pre_infer(g, [CPU])
        assert folds(plan) == want
        # the graph keeps both nodes, and the assignment lists both
        assert set(plan.assignment) == {n.id for n in g.nodes}
        kinds = [s.node.kind for s in plan.steps if isinstance(s, OpStep)]
        assert kinds.count(OpKind.POOL2D) == sum(
            n.kind is OpKind.POOL2D for n in g.nodes) - len(want)

    def test_pair_folds(self):
        g = conv_pool_graph()
        plan = pre_infer(g, [CPU])
        assert folds(plan) == {"c": "p"}
        (step,) = plan.steps
        assert step.outputs == g.outputs
        assert set(plan.memory["cpu"].offsets) == {*g.outputs, "c#scratch"}
        # the scratch is one pooled image: 6 x 6 pixels of 8 lanes
        assert plan.memory["cpu"].sizes["c#scratch"] == 4 * 6 * 6 * 8

    @pytest.mark.parametrize("case", [
        {"relu_reader": True},  # the conv's output has two readers
        {"conv_output": True},  # the conv's output is a graph output
        {"pool": {"kernel": 3, "stride": 3, "pad": 1}},  # padded pool
        {"pool": {"kernel": 2, "mode": "avg"}},  # average pool
        {"pool": {"kernel": 3, "stride": 2}},  # stride unlike kernel
        # Winograd may run it: a 3x3 conv at stride 1
        {"conv": {"kernel": 3, "pad": 1, "out_c": 8}},
        # a depthwise conv
        {"conv": {"kernel": 3, "stride": 2, "out_c": 4, "group": 4}},
        # a padded dense conv
        {"conv": {"kernel": 1, "pad": 1, "out_c": 8}},
        # a 3x3 dense conv at stride 2
        {"conv": {"kernel": 3, "stride": 2, "out_c": 8}},
        # a 3x3 grouped conv
        {"conv": {"kernel": 3, "out_c": 8, "group": 2}},
        # a 1x1 conv at stride 2
        {"conv": {"kernel": 1, "stride": 2, "out_c": 8}},
        # a 1x1 depthwise conv
        {"conv": {"kernel": 1, "out_c": 4, "group": 4}},
        # a pooled width of 1: its GEMMs would take GEMV
        {"pool": {"kernel": (2, 12)}},
    ])
    def test_pair_does_not_fold(self, case):
        plan = pre_infer(conv_pool_graph(**case), [CPU])
        assert folds(plan) == {}
        assert not any(tid.endswith("#scratch")
                       for tid in plan.memory["cpu"].offsets)

    def test_pool_on_another_backend_does_not_fold(self):
        g = conv_pool_graph()
        plan = pre_infer(g, [CPU, SIM_POOL], force_backend="sim")
        assert plan.assignment == {"c": "cpu", "p": "sim"}
        assert folds(plan) == {}
        # the same pair folds where sim runs both
        sim = BackendSpec("sim", CostModel(flops=1e12))
        plan = pre_infer(g, [CPU, sim], force_backend="sim")
        assert folds(plan) == {"c": "p"}
        assert [t.tensor for t in plan.transfers()] == [g.inputs[0],
                                                         g.outputs[0]]

    @pytest.mark.parametrize("backend", ["cpu", "sim"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_no_co_live_residencies_overlap(self, name, backend):
        # every pool slice live at one step, scratch included, has bytes of
        # its own
        g = fuse(build_preset(name))
        sim = BackendSpec("sim", CostModel(flops=1e12))
        plan = pre_infer(g, [CPU, sim], force_backend=backend)
        checked = 0
        for mem in plan.memory.values():
            tids = [t for t in mem.offsets if mem.sizes[t]]
            for i, a in enumerate(tids):
                fa, la = mem.lifetimes[a]
                for b in tids[i + 1:]:
                    fb, lb = mem.lifetimes[b]
                    if max(fa, fb) <= min(la, lb):
                        checked += "#scratch" in a + b
                        a0, b0 = mem.offsets[a], mem.offsets[b]
                        assert (a0 + mem.sizes[a] <= b0
                                or b0 + mem.sizes[b] <= a0), (a, b)
        assert bool(checked) == any(isinstance(s, OpStep) and s.folded
                                    for s in plan.steps)
