import numpy as np
import pytest

import nanoinfer.backend as backend_module
import nanoinfer.kernels as kernels
from conftest import batched_matmul_graph, pool2d_reference, rel_err
from nanoinfer.backend import CpuBackend, Session, resolve_backend, run_session
from nanoinfer.errors import (
    GraphValidationError, PoolExhaustedError, ShapeMismatchError,
    UnsupportedOpError,
)
from nanoinfer.graph import GraphBuilder, OpKind, fuse
from nanoinfer.preinference import (
    CostModel, OpStep, SchemeChoice, SchemeKind, packed_bytes, pre_infer,
)
from nanoinfer.presets import PRESETS, build_preset
from nanoinfer.simbackend import SimBackend
from nanoinfer.tensor import from_nchw


def make_input(g, seed=0):
    shape = tuple(g.tensor_shapes[g.inputs[0]].dims)
    rng = np.random.default_rng(seed)
    return from_nchw(rng.uniform(-1, 1, size=shape).astype(np.float32))


class TestBuffers:
    def test_acquire_zero_is_valid(self):
        cpu = CpuBackend()
        cpu.set_pool(0)
        handle = cpu.acquire_buffer(0, offset=0, owner="empty")
        assert handle.size == 0
        cpu.release_buffer(handle)
        assert cpu.live_buffers == 0

    def test_balanced_over_session_lifetime(self):
        g = fuse(build_preset("mobilenet-mini"))
        cpu = CpuBackend()
        plan = pre_infer(g, [cpu.spec()])
        session = Session(plan, [cpu])
        session.run(make_input(g))
        session.run(make_input(g, seed=1))
        assert cpu.live_buffers > 0
        session.close()
        assert cpu.live_buffers == 0
        assert cpu.acquire_count == cpu.release_count

    def test_pool_overrun_names_owner(self):
        cpu = CpuBackend()
        cpu.set_pool(64)
        with pytest.raises(PoolExhaustedError, match="conv9"):
            cpu.acquire_buffer(128, offset=0, owner="conv9")

    def test_debug_poisoning(self):
        cpu = CpuBackend(debug=True)
        buf = cpu.acquire_buffer(16)
        buf[:] = 1.0
        cpu.release_buffer(buf)
        assert np.all(np.isnan(buf))

    def test_second_run_allocates_nothing(self):
        g = fuse(build_preset("squeezenet-mini"))
        cpu = CpuBackend()
        plan = pre_infer(g, [cpu.spec()])
        session = Session(plan, [cpu])
        x = make_input(g)
        session.run(x)
        allocs_after_first = cpu.alloc_count
        for _ in range(3):
            session.run(x)
        assert cpu.alloc_count == allocs_after_first
        session.close()


class TestExecutions:
    def test_winograd_instance_holds_cached_weights(self, winograd_planned):
        b = GraphBuilder((1, 16, 16, 16), seed=0)
        b.conv(kernel=3, pad=1, out_c=16)
        g = b.build()
        cpu = CpuBackend()
        plan = pre_infer(g, [cpu.spec()])
        plan.weight_cache.reset_counters()
        session = Session(plan, [cpu])
        x = make_input(g)
        session.run(x)
        session.run(x)
        # one cache hit per winograd op per run, zero recomputes
        assert plan.weight_cache.hits == 2
        assert plan.weight_cache.recomputes == 0
        session.close()

    def test_sim_without_support_raises(self):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.conv(kernel=3, pad=1, out_c=4)
        g = b.build()
        sim = SimBackend(supported=frozenset({OpKind.RELU}))
        plan = pre_infer(g, [CpuBackend().spec(), sim.spec()])
        step = next(s for s in plan.steps if isinstance(s, OpStep))
        with pytest.raises(UnsupportedOpError):
            sim.create_execution(step, plan, g.tensor_shapes)
        # and the planner routed it to CPU instead
        assert plan.assignment[g.nodes[0].id] == "cpu"

    def test_same_instance_twice_identical(self):
        b = GraphBuilder((1, 6, 10, 10), seed=0)
        b.conv(kernel=3, pad=1, out_c=6)
        g = b.build()
        cpu = CpuBackend()
        plan = pre_infer(g, [cpu.spec()])
        step = next(s for s in plan.steps if isinstance(s, OpStep))
        execution = cpu.create_execution(step, plan, g.tensor_shapes)
        x = make_input(g)
        from nanoinfer.tensor import pack_nc4hw4
        xin = pack_nc4hw4(x).data.reshape(-1)
        out_shape = g.tensor_shapes[g.nodes[0].outputs[0]]
        buf1 = np.zeros(packed_bytes(out_shape) // 4, np.float32)
        buf2 = np.zeros_like(buf1)
        execution.run([xin], [buf1])
        execution.run([xin], [buf2])
        assert np.array_equal(buf1, buf2)

    def test_unplanned_winograd_tiles_match_sliding(self, winograd_planned):
        # executions for tiles the planner did not choose read their own
        # weight transform, not the planned tile's
        b = GraphBuilder((1, 16, 16, 16), seed=0)
        b.conv(kernel=3, pad=1, out_c=16)
        g = b.build()
        cpu = CpuBackend()
        plan = pre_infer(g, [cpu.spec()])
        node = g.nodes[0]
        assert plan.schemes[node.id] == SchemeChoice(SchemeKind.WINOGRAD, 6)
        from nanoinfer.tensor import pack_nc4hw4
        xin = pack_nc4hw4(make_input(g)).data.reshape(-1)
        size = packed_bytes(g.tensor_shapes[node.outputs[0]]) // 4

        def run(scheme):
            execution = cpu.create_execution(
                OpStep(node, scheme, "cpu", None), plan, g.tensor_shapes)
            out = np.zeros(size, np.float32)
            execution.run([xin], [out])
            return out

        want = run(SchemeChoice(SchemeKind.SLIDING_WINDOW))
        scale = np.max(np.abs(want))
        for tile in (2, 4):
            got = run(SchemeChoice(SchemeKind.WINOGRAD, tile))
            assert np.max(np.abs(got - want)) <= 1e-3 * scale, tile


# (input shape, kernel, stride, pad)
POOL_CASES = [
    ((1, 8, 8, 8), (2, 2), (2, 2), (0, 0)),
    ((1, 8, 9, 9), (3, 3), (2, 2), (1, 1)),
    ((2, 4, 7, 6), (3, 3), (1, 1), (1, 1)),
    ((1, 8, 7, 5), (7, 5), (7, 5), (0, 0)),  # global pool, non-square map
    ((1, 6, 9, 7), (3, 3), (2, 2), (1, 1)),  # 6 channels: two pad lanes
    ((1, 5, 4, 4), (2, 2), (2, 2), (2, 2)),  # corner windows see only padding
]


class TestPool2D:
    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("shape,kernel,stride,pad", POOL_CASES)
    def test_matches_reference(self, shape, kernel, stride, pad, mode):
        b = GraphBuilder(shape, seed=0)
        b.pool(kernel=kernel, stride=stride, pad=pad, mode=mode)
        g = b.build()
        cpu = CpuBackend()
        plan = pre_infer(g, [cpu.spec()])
        session = Session(plan, [cpu])
        mem = plan.memory["cpu"]
        # poison the whole pool: every output lane, pad lanes included,
        # must be written by the kernel
        cpu.acquire_buffer(mem.pool_size, 0, owner="poison")[:] = np.nan
        x = make_input(g, seed=3)
        tid = g.outputs[0]
        got = session.run(x)[tid].data
        want = pool2d_reference(x.data, kernel, stride, pad, mode)
        assert got.shape == want.shape
        if mode == "max":
            assert np.array_equal(got, want.astype(np.float32))
        else:
            assert rel_err(got, want) <= 1e-6
        n, c, oh, ow = want.shape
        packed = cpu.acquire_buffer(mem.sizes[tid], mem.offsets[tid],
                                    owner=tid)
        packed = packed[:packed_bytes(g.tensor_shapes[tid]) // 4].reshape(
            n, -1, oh, ow, 4)
        assert not np.any(np.isnan(packed))
        real = c - 4 * (packed.shape[1] - 1)  # lanes of the last block in use
        assert np.all(packed[:, -1, :, :, real:] == 0)
        if pad[0] >= kernel[0]:
            assert np.all(got[:, :, 0, :] == 0)  # windows of padding only
        session.close()

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_int_window_attrs(self, mode):
        # a model file may give kernel, stride and pad as plain ints
        b = GraphBuilder((1, 5, 7, 7), seed=0)
        b.pool(kernel=3, stride=2, pad=1, mode=mode)
        g = b.build()
        g.nodes[0].attrs = {"kernel": 3, "stride": 2, "pad": 1, "mode": mode}
        x = make_input(g, seed=3)
        got = run_session(pre_infer(g, [CpuBackend().spec()]), x)
        want = pool2d_reference(x.data, (3, 3), (2, 2), (1, 1), mode)
        assert rel_err(got[g.outputs[0]].data, want) <= 1e-6


class TestTransfers:
    def test_roundtrip_bitwise(self):
        b = GraphBuilder((1, 5, 6, 6), seed=0)
        b.relu()
        g = b.build()
        cpu = CpuBackend()
        sim = SimBackend()
        plan = pre_infer(g, [cpu.spec(), sim.spec()], force_backend="sim")
        session = Session(plan, [cpu, sim])
        x = make_input(g)
        out = session.run(x)
        want = np.maximum(x.data, 0.0)
        assert np.array_equal(out[g.outputs[0]].data, want)
        assert session.transfer_counters["copies"] == 2
        session.close()

    def test_hybrid_conv_relu_two_transfers(self):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.conv(kernel=3, pad=1, out_c=4)
        b.relu()
        g = b.build()
        sim = SimBackend(supported=frozenset({OpKind.RELU}))
        plan = pre_infer(g, [CpuBackend().spec(), sim.spec()],
                         force_backend="sim")
        assert len(plan.transfers()) == 2

    def test_all_cpu_plan_has_no_transfers(self):
        g = fuse(build_preset("resnet-mini"))
        plan = pre_infer(g, [CpuBackend().spec()])
        assert plan.transfers() == []


class TestSession:
    def test_identity_graph(self):
        b = GraphBuilder((1, 3, 4, 4), seed=0)
        b.reshape((1, 3, 4, 4))
        g = b.build()
        plan = pre_infer(g, [CpuBackend().spec()])
        x = make_input(g)
        out = run_session(plan, x)
        assert np.array_equal(out[g.outputs[0]].data, x.data)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_kernels_run_on_calling_thread(self, preset, monkeypatch):
        # the threads keyword is accepted for old callers and ignored:
        # no kernel may hand work to another thread
        import concurrent.futures
        import threading

        def refuse(*args, **kwargs):
            raise AssertionError("a kernel started a thread")

        g = fuse(build_preset(preset))
        plan = pre_infer(g, [CpuBackend().spec()])
        x = make_input(g)
        want = run_session(plan, x)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit",
                            refuse)
        session = Session(plan, [CpuBackend()], threads=4)
        try:
            got = session.run(x)
        finally:
            session.close()
        for tid in want:
            assert np.array_equal(got[tid].data, want[tid].data)

    def test_missing_input_named(self):
        g = fuse(build_preset("resnet-mini"))
        plan = pre_infer(g, [CpuBackend().spec()])
        session = Session(plan, [CpuBackend()])
        with pytest.raises(GraphValidationError, match="missing graph input 'input'"):
            session.run({})
        session.close()

    def test_hybrid_equals_pure_cpu(self):
        g = fuse(build_preset("inception-mini"))
        x = make_input(g)
        plan_cpu = pre_infer(g, [CpuBackend().spec()])
        pure = run_session(plan_cpu, x)
        cpu, sim = CpuBackend(), SimBackend()
        plan_h = pre_infer(g, [cpu.spec(), sim.spec()], force_backend="sim")
        assert set(plan_h.assignment.values()) == {"sim"}
        hybrid = run_session(plan_h, x, [cpu, sim])
        for tid in pure:
            assert np.array_equal(pure[tid].data, hybrid[tid].data)

    def test_partial_sim_support_is_bitwise_too(self):
        g = fuse(build_preset("squeezenet-mini"))
        x = make_input(g)
        pure = run_session(pre_infer(g, [CpuBackend().spec()]), x)
        cpu = CpuBackend()
        sim = SimBackend(supported=frozenset({OpKind.RELU, OpKind.ADD,
                                              OpKind.POOL2D}))
        plan = pre_infer(g, [cpu.spec(), sim.spec()], force_backend="sim")
        assert set(plan.assignment.values()) == {"cpu", "sim"}
        hybrid = run_session(plan, x, [cpu, sim])
        for tid in pure:
            assert np.array_equal(pure[tid].data, hybrid[tid].data)

    def test_input_shape_checked(self):
        g = fuse(build_preset("resnet-mini"))
        plan = pre_infer(g, [CpuBackend().spec()])
        bad = from_nchw(np.zeros((1, 3, 16, 16), np.float32))
        session = Session(plan, [CpuBackend()])
        with pytest.raises(ShapeMismatchError):
            session.run(bad)
        session.close()

    def test_closed_session_rejected(self):
        g = fuse(build_preset("resnet-mini"))
        plan = pre_infer(g, [CpuBackend().spec()])
        session = Session(plan, [CpuBackend()])
        session.close()
        with pytest.raises(GraphValidationError):
            session.run(make_input(g))

    def test_sim_surcharge_in_timings_only(self):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.relu()
        g = b.build()
        cpu = CpuBackend()
        sim = SimBackend(cost=CostModel(flops=4e9, t_schedule_ms=5.0))
        plan = pre_infer(g, [cpu.spec(), sim.spec()], force_backend="sim")
        session = Session(plan, [cpu, sim])
        x = make_input(g)
        _, times = session.run_timed(x)
        op_times = dict(times)
        assert op_times[g.nodes[0].id] >= 5.0
        session.close()


class TestModularity:
    def test_sim_loads_lazily_by_name(self):
        backend = resolve_backend("sim")
        assert backend.name == "sim"

    def test_engine_runs_without_sim_registered(self):
        import nanoinfer.backend as backend_mod
        saved = dict(backend_mod._BACKEND_FACTORIES)
        try:
            backend_mod._BACKEND_FACTORIES.pop("sim", None)
            g = fuse(build_preset("resnet-mini"))
            plan = pre_infer(g, [CpuBackend().spec()])
            out = run_session(plan, make_input(g))
            assert g.outputs[0] in out
        finally:
            backend_mod._BACKEND_FACTORIES.clear()
            backend_mod._BACKEND_FACTORIES.update(saved)

    def test_unknown_backend_rejected(self):
        with pytest.raises(GraphValidationError):
            resolve_backend("tpu")


class TestPooledVersusFresh:
    def test_pooled_execution_matches_fresh_buffers(self):
        from nanoinfer.cli import replay_cpu

        for preset in ("mobilenet-mini", "resnet-mini", "inception-mini"):
            g = fuse(build_preset(preset))
            plan = pre_infer(g, [CpuBackend().spec()])
            x = make_input(g, seed=11)
            pooled = run_session(plan, x)
            fresh = replay_cpu(g, plan, x)
            for tid in g.outputs:
                from nanoinfer.tensor import unpack_nc4hw4
                want = unpack_nc4hw4(fresh[tid],
                                     g.tensor_shapes[tid].dims[1])
                assert np.array_equal(pooled[tid].data, want.data), preset


def is_strassen_step(step):
    return step.node.kind is OpKind.MATMUL


# every preset, and one graph whose MatMul splits under the count rule
STRASSEN_GRAPHS = sorted(PRESETS) + ["batched-matmul"]


def strassen_calls(name, weight, monkeypatch):
    """The plan, and (need, given) scratch elements of every Strassen call
    in one run over it."""
    monkeypatch.setattr(kernels, "ADD_COST", weight)
    calls = []

    def spy(a, b, scratch=None):
        need = kernels.strassen_scratch_elems(
            kernels.MatDims(a.shape[0], a.shape[1], b.shape[1]))
        calls.append((need, None if scratch is None else scratch.size))
        return kernels.matmul_strassen(a, b, scratch)

    monkeypatch.setattr(backend_module, "matmul_strassen", spy)
    g = (batched_matmul_graph() if name == "batched-matmul"
         else fuse(build_preset(name)))
    plan = pre_infer(g, [CpuBackend().spec()])
    run_session(plan, make_input(g))
    steps = [s for s in plan.steps
             if isinstance(s, OpStep) and is_strassen_step(s)]
    assert len(calls) == len(steps)
    return plan, calls


class TestStrassenScratch:
    @pytest.mark.parametrize("weight", [1, kernels.ADD_COST])
    @pytest.mark.parametrize("preset", STRASSEN_GRAPHS)
    def test_planned_scratch_covers_kernel_depth(self, preset, weight,
                                                 monkeypatch):
        # the backend hands each Strassen call its planned pool slice as
        # is, so the slice must be exactly what the depth needs, rounded up
        # to the 64-byte alignment, and no scratch when there is no level
        plan, calls = strassen_calls(preset, weight, monkeypatch)
        for need, given in calls:
            want = -(-need * 4 // 64) * 64 // 4 if need else None
            assert given == want, (need, given)
        # nothing but a Strassen step owns pool scratch
        strassen_ids = {s.node.id for s in plan.steps
                        if isinstance(s, OpStep) and is_strassen_step(s)}
        owners = {tid.removesuffix("#scratch")
                  for mem in plan.memory.values() for tid in mem.offsets
                  if tid.endswith("#scratch")}
        assert owners <= strassen_ids, owners - strassen_ids

    def test_count_rule_recurses_on_batched_matmul(self, monkeypatch):
        # keeps the test above meaningful: under weight 1 the batched
        # MatMul takes two levels, so its pooled scratch is exercised
        _, calls = strassen_calls("batched-matmul", 1, monkeypatch)
        d = kernels.MatDims(64, 64, 64)
        assert kernels.strassen_recursion_depth(d, 1) == 2
        assert [need for need, _ in calls] == [kernels.strassen_scratch_elems(d)]
