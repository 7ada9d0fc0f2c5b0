import sys
import tracemalloc

import numpy as np
import pytest

import nanoinfer.backend as backend_module
import nanoinfer.kernels as kernels
import nanoinfer.preinference as preinference
import nanoinfer.winograd as winograd_module
from conftest import batched_matmul_graph, pool2d_reference, rel_err
from nanoinfer.backend import CpuBackend, Session, resolve_backend, run_session
from nanoinfer.errors import (
    GraphValidationError, LayoutError, PoolExhaustedError, ShapeMismatchError,
    UnsupportedOpError,
)
from nanoinfer.graph import GraphBuilder, OpKind, fuse
from nanoinfer.preinference import (
    CostModel, OpStep, SchemeChoice, SchemeKind, packed_bytes,
    pre_infer,
)
from nanoinfer.presets import PRESETS, build_preset, resnet_mini
from nanoinfer.simbackend import SimBackend
from nanoinfer.tensor import (
    LANES, Layout, Tensor, channel_blocks, data_shape, from_nchw, pack_nc4hw4,
    relayout, unpack_nc4hw4, zeros,
)


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

    @pytest.mark.parametrize("preset", sorted(PRESETS) + ["grouped"])
    def test_sliding_steps_heap_peak_bounded(self, preset, monkeypatch):
        # each sliding-window conv writes its output in place and reads
        # packed weights: its heap peak is its padded input plus its
        # working buffers, within a fixed slack
        g = fuse(build_preset(preset) if preset in PRESETS
                 else grouped_conv_graph())
        plan, peaks = step_heap_peaks(g, monkeypatch)
        convs = [n for n in g.nodes if n.kind is OpKind.CONV2D
                 and plan.schemes[n.id].kind is SchemeKind.SLIDING_WINDOW]
        assert convs
        over = {n.id: (peaks[n.id], sliding_heap_bound(n, g.tensor_shapes))
                for n in convs
                if peaks[n.id] > sliding_heap_bound(n, g.tensor_shapes)}
        assert not over

    def test_dense_step_heap_is_one_slab_and_one_window_matrix(
            self, monkeypatch):
        # resnet-64's res0a: a 3x3, pad-1, 16->16 conv on a 64x64 map takes
        # one slab of its zero-bordered input rows and one band's window
        # matrix, not maps the size of its input or output
        b = GraphBuilder((1, 16, 64, 64), seed=0)
        b.conv(kernel=3, pad=1, out_c=16, activation="relu")
        g = b.build()
        node = g.nodes[0]
        plan, peaks = step_heap_peaks(g, monkeypatch)
        assert plan.schemes[node.id].kind is SchemeKind.SLIDING_WINDOW
        p = node.params()
        rows = kernels.slab_rows(p, 1, 64, 64)
        assert rows < 64
        slab = 4 * (rows + 2) * 66 * 16
        window = 4 * window_matrix_floats(p, 64, 64)
        assert slab <= 4 * kernels.BAND_FLOATS
        assert window <= 4 * kernels.BAND_FLOATS
        assert peaks[node.id] <= slab + window + 40 * 1024

    def test_steady_state_run_heap_bounded(self):
        # a whole run of the resnet-mini topology at 64x64 (the benchmark's
        # resnet-64) after a warm-up run, outputs included
        assert 0 < run_heap_peak(fuse(resnet_mini(size=64))) <= 260_000

    def test_steady_state_mobilenet_run_heap_bounded(self):
        # the same for mobilenet-mini (the benchmark's mobilenet-32), whose
        # peak is the two-slab depthwise step dw2
        assert 0 < run_heap_peak(fuse(build_preset("mobilenet-mini"))) <= (
            265_000)

    @pytest.mark.parametrize("backends", [["cpu"], ["cpu", "sim"]])
    def test_bound_arrays_start_on_a_cache_line(self, backends):
        # the pools and the staging buffers are 64 B aligned and every pool
        # offset is a multiple of 64, so every array a session binds (pool
        # views, staging, outputs, scratch) starts on a cache line
        g = fuse(build_preset("squeezenet-mini"))
        bs = [resolve_backend(name) for name in backends]
        plan = pre_infer(g, [b.spec() for b in bs], force_backend=backends[-1])
        session = Session(plan, bs)
        arrays = list(session._staging.values())
        arrays += [view.data for _, view in session._outputs]
        for _, call, _ in session._bound:
            for arg in call.args:
                arrays += arg if isinstance(arg, list) else [arg]
        arrays = [a for a in arrays if a is not None]
        assert len(arrays) > 2 * len(g.nodes)
        assert [a.ctypes.data % 64 for a in arrays] == [0] * len(arrays)
        session.run(make_input(g))
        session.close()

    def test_relu_convs_share_one_read_only_zero_map(self):
        g = fuse(build_preset("mobilenet-mini"))
        plan = pre_infer(g, [CpuBackend().spec()])
        zeros = [plan.weight_cache.get(preinference.weight_key(
                     n, plan.schemes[n.id])).zero
                 for n in g.nodes
                 if n.kind is OpKind.CONV2D and n.params().relu]
        assert len(zeros) >= 2
        largest = max(z.size for z in zeros)
        assert plan.zeros.size >= largest and not plan.zeros.any()
        for z in zeros:
            assert np.shares_memory(z, plan.zeros)
            assert not z.flags.writeable
            with pytest.raises(ValueError):
                z[0, 0, 0] = 1.0

    @pytest.mark.parametrize("preset", sorted(PRESETS) + ["pointwise"])
    def test_pointwise_conv_steps_take_no_heap(self, preset, monkeypatch):
        # a stride-1, pad-0, 1x1 conv is one GEMM from its input view
        # straight into its output view per image: no padded input and no
        # accumulator, so a steady-state run takes at most 8 KiB of heap
        g = fuse(build_preset(preset) if preset in PRESETS
                 else pointwise_conv_graph())
        plan, peaks = step_heap_peaks(g, monkeypatch)
        pointwise = [n.id for n in g.nodes if n.kind is OpKind.CONV2D
                     and is_pointwise(n.params())]
        if preset in ("mobilenet-mini", "squeezenet-mini", "pointwise"):
            assert pointwise
        assert {nid: peaks[nid] for nid in pointwise
                if peaks[nid] > 8 * 1024} == {}

    @pytest.mark.parametrize("preset", sorted(PRESETS) + ["softmax-map"])
    def test_head_steps_heap_peak_bounded(self, preset, monkeypatch):
        # the global pool, MatMul and Softmax read and write the pool views
        # in place: a steady-state run of each takes at most 8 KiB of heap.
        # Softmax on a map larger than 1x1 works on the views as they lie.
        if preset in PRESETS:
            g = fuse(build_preset(preset))
        else:
            b = GraphBuilder((1, 10, 2, 3), seed=0)
            b.softmax()
            g = b.build()
        _, peaks = step_heap_peaks(g, monkeypatch)
        head = [n.id for n in g.nodes
                if n.kind in (OpKind.MATMUL, OpKind.SOFTMAX)
                or (n.kind is OpKind.POOL2D
                    and g.tensor_shapes[n.outputs[0]].dims[2:] == (1, 1))]
        assert len(head) >= (1 if preset == "softmax-map" else 2)
        assert {nid: peaks[nid] for nid in head
                if peaks[nid] > 8 * 1024} == {}


def run_heap_peak(g):
    """The heap peak in bytes of a second session run of g, outputs
    included (0 if it returned no outputs)."""
    session = Session(pre_infer(g, [CpuBackend().spec()]), [CpuBackend()])
    x = make_input(g)
    session.run(x)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        outputs = session.run(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        session.close()
    return peak if outputs else 0


def step_heap_peaks(g, monkeypatch):
    """The plan of g, and the heap peak in bytes of each step of a second
    session run, after one warm-up run."""
    plan = pre_infer(g, [CpuBackend().spec()])
    session = Session(plan, [CpuBackend()])
    x = make_input(g)
    session.run(x)
    peaks = {}

    def traced(name, call):
        def run():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
            peaks[name] = peak - base
        return run

    monkeypatch.setattr(session, "_bound", [
        (name, traced(name, call), surcharge)
        for name, call, surcharge in session._bound])
    tracemalloc.start()
    try:
        session.run(x)
    finally:
        tracemalloc.stop()
        session.close()
    return plan, peaks


def is_pointwise(p):
    return ((p.kh, p.kw, p.stride_h, p.stride_w, p.pad_h, p.pad_w)
            == (1, 1, 1, 1, 0, 0))


def pointwise_conv_graph():
    """1x1 convs no preset has: two images, channel counts off the lane
    width, with and without bias and ReLU."""
    b = GraphBuilder((2, 6, 12, 12), seed=0)
    b.conv(kernel=1, out_c=10, activation="relu")
    b.conv(kernel=1, out_c=3, bias=False)
    return b.build()


def grouped_conv_graph():
    """Grouped convs no preset has: 12 -> 24 channels in 3 groups on a
    16-pixel map, at stride 1 and at stride 2."""
    b = GraphBuilder((1, 12, 16, 16), seed=0)
    wide = b.conv(b.input_id, kernel=3, pad=1, out_c=24, group=3,
                  activation="relu")
    strided = b.conv(b.input_id, kernel=3, stride=2, pad=1, out_c=24, group=3)
    return b.build(outputs=[wide, strided])


def sliding_heap_bound(node, shapes):
    """Heap bytes a sliding-window conv step may take: its slab of bordered
    input rows (the whole bordered map if one slab holds it; nothing for a
    conv that reads its input as it lies), then one window matrix (dense
    or grouped), the two flat-pitch row buffers (depthwise at stride 1) or
    one product buffer of an output image (depthwise at other strides),
    plus 96 KiB of slack."""
    p = node.params()
    n, _, h, w = shapes[node.inputs[0]].dims
    cpad = channel_blocks(p.in_c) * LANES
    oh, ow = p.out_size(h, w)
    hp, wp = h + 2 * p.pad_h, w + 2 * p.pad_w
    rows = kernels.slab_rows(p, n, h, w)
    flat = p.depthwise and (p.stride_h, p.stride_w) == (1, 1)
    slab = 0
    if flat:
        slab = n * (rows + p.kh - 1) * wp * cpad + (p.kw - 1) * cpad
    elif p.pad_h or p.pad_w:
        slab = n * wp * cpad * (
            hp if rows == oh else (rows - 1) * p.stride_h + p.kh)
    if flat:
        work = 2 * rows * wp * cpad
    elif p.depthwise:
        work = oh * ow * cpad
    else:
        work = window_matrix_floats(p, h, w)
    return 4 * (slab + work) + 96 * 1024


def window_matrix_floats(p, h, w):
    """Floats in the window matrix of one band of a dense conv."""
    oh, ow = p.out_size(h, w)
    row = ow * p.kh * p.kw * channel_blocks(p.in_c) * LANES
    return kernels._band_rows(oh, row) * row


class TestExecutions:
    def test_winograd_instance_holds_cached_weights(self, winograd_planned):
        b = GraphBuilder((1, 16, 16, 16), seed=0)
        b.conv(kernel=3, pad=1, out_c=16)
        g = b.build()
        cpu = CpuBackend()
        plan = pre_infer(g, [cpu.spec()])
        assert plan.schemes[g.nodes[0].id].kind is SchemeKind.WINOGRAD
        plan.weight_cache.reset_counters()
        session = Session(plan, [cpu])
        # one cache hit per winograd op when the session is built
        assert (plan.weight_cache.hits, plan.weight_cache.recomputes) == (1, 0)
        x = make_input(g)
        session.run(x)
        session.run(x)
        # and none per run
        assert (plan.weight_cache.hits, plan.weight_cache.recomputes) == (1, 0)
        session.close()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("winograd", [False, True])
    def test_no_weights_packed_after_session_built(self, preset, winograd,
                                                   request, monkeypatch):
        # pre-inference packs every planned conv's weights once; a run
        # reads only the packed operands
        if winograd:
            request.getfixturevalue("winograd_planned")
        g = fuse(build_preset(preset))
        plan = pre_infer(g, [CpuBackend().spec()])
        x = make_input(g)
        want = run_session(plan, x)
        session = Session(plan, [CpuBackend()])

        def refuse(*args, **kwargs):
            raise AssertionError("raw weights packed after Session()")

        # the bias packer too, wherever it is imported
        packers = [(kernels, "_pack_weight_columns"),
                   (kernels, "_pack_depthwise_rows"),
                   (winograd_module, "weight_transform"),
                   (preinference, "weight_transform")]
        packers += [(module, "_padded_bias")
                    for module in (kernels, winograd_module, preinference,
                                   backend_module)
                    if hasattr(module, "_padded_bias")]
        assert (kernels, "_padded_bias") in packers
        for module, name in packers:
            monkeypatch.setattr(module, name, refuse)
        try:
            for _ in range(2):
                got = session.run(x)
        finally:
            session.close()
        for tid in want:
            assert np.array_equal(got[tid].data, want[tid].data)

    def test_sim_without_support_raises(self):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.conv(kernel=3, pad=1, out_c=4)
        g = b.build()
        sim = SimBackend(supported=frozenset({OpKind.RELU}))
        plan = pre_infer(g, [CpuBackend().spec(), sim.spec()])
        step = next(s for s in plan.steps if isinstance(s, OpStep))
        with pytest.raises(UnsupportedOpError):
            sim.create_execution(step, plan)
        # and the planner routed it to CPU instead
        assert plan.assignment[g.nodes[0].id] == "cpu"

    def test_same_instance_twice_identical(self):
        b = GraphBuilder((1, 6, 10, 10), seed=0)
        b.conv(kernel=3, pad=1, out_c=6)
        g = b.build()
        cpu = CpuBackend()
        plan = pre_infer(g, [cpu.spec()])
        step = next(s for s in plan.steps if isinstance(s, OpStep))
        execution = cpu.create_execution(step, plan)
        x = make_input(g)
        xin = relayout(x, Layout.NHWC4).data
        out_shape = g.tensor_shapes[g.nodes[0].outputs[0]]
        buf1 = zeros(out_shape.dims, Layout.NHWC4).data
        buf2 = np.zeros_like(buf1)
        execution([xin], [buf1])
        execution([xin], [buf2])
        assert np.array_equal(buf1, buf2)

    @pytest.mark.parametrize("conv", [
        dict(kernel=3, pad=1, out_c=6),
        dict(kernel=1, out_c=7),
        dict(kernel=3, stride=2, pad=1, out_c=8),
        dict(kernel=3, pad=1, out_c=5, group=5),
        dict(kernel=3, pad=1, out_c=10, group=5),
    ])
    def test_nc4hw4_round_trip_matches_session(self, conv, monkeypatch):
        # conv_sliding and conv_winograd on the paper's NC4HW4 layout re-lay
        # around the kernel a session runs on NHWC4, so every scheme gives
        # the session's bits
        b = GraphBuilder((2, 5, 9, 7), seed=0)
        b.conv(activation="relu", **conv)
        g = b.build()
        node = g.nodes[0]
        p = node.params()
        x = make_input(g)
        packed = pack_nc4hw4(x)
        for scheme in preinference.conv_schemes(p):
            monkeypatch.setattr(preinference, "select_scheme_for",
                                lambda node, shapes, s=scheme: s)
            plan = pre_infer(g, [CpuBackend().spec()])
            want = run_session(plan, x)[g.outputs[0]].data
            if scheme.kind is SchemeKind.WINOGRAD:
                t = winograd_module.generate_transforms(
                    scheme.tile, p.kh, plan.spacing)
                y = winograd_module.conv_winograd(packed, node.weights, p, t,
                                                  bias=node.bias)
            else:
                y = kernels.conv_sliding(packed, node.weights, p,
                                         bias=node.bias)
            assert y.layout is Layout.NC4HW4
            y.validate()
            got = unpack_nc4hw4(y).data
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), \
                scheme.label()

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
        xin = relayout(make_input(g), Layout.NHWC4).data
        out_dims = g.tensor_shapes[node.outputs[0]].dims

        def run(scheme):
            execution = cpu.create_execution(
                OpStep(node, scheme, "cpu", None), plan)
            out = zeros(out_dims, Layout.NHWC4).data
            execution([xin], [out])
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
    ((1, 5, 6, 4), (6, 1), (6, 1), (0, 0)),  # one window down, four across
    ((1, 5, 6, 4), (5, 3), (5, 3), (0, 0)),  # one window, short of the map
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
            n, oh, ow, -1)
        assert_lanes_written(packed, c)
        if pad[0] >= kernel[0]:
            assert np.all(got[:, :, 0, :] == 0)  # windows of padding only
        session.close()

    def test_unpadded_max_keeps_genuine_neg_inf(self):
        # only windows of spatial padding are scrubbed to 0: without
        # padding a window of -inf inputs pools to -inf, as in float64
        b = GraphBuilder((1, 5, 4, 6), seed=0)
        b.pool(kernel=2, mode="max")
        g = b.build()
        x = make_input(g, seed=3)
        x.data[0, 1, 0:2, 2:4] = -np.inf  # one whole window
        x.data[0, 4, 3, 5] = -np.inf  # one tap of a finite window
        got = run_session(pre_infer(g, [CpuBackend().spec()]), x)
        got = got[g.outputs[0]].data
        want = pool2d_reference(x.data, (2, 2), (2, 2), (0, 0), "max")
        assert got[0, 1, 0, 1] == -np.inf
        assert np.array_equal(got, want.astype(np.float32))

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


def run_poisoned(g, seed=3):
    """One session run of g with its whole pool filled with NaN first; the
    output and its packed pool view."""
    cpu = CpuBackend()
    plan = pre_infer(g, [cpu.spec()])
    session = Session(plan, [cpu])
    mem = plan.memory["cpu"]
    cpu.acquire_buffer(mem.pool_size, 0, owner="poison")[:] = np.nan
    x = make_input(g, seed=seed)
    tid = g.outputs[0]
    n, c, h, w = g.tensor_shapes[tid].dims
    try:
        got = session.run(x)[tid].data
        packed = cpu.acquire_buffer(mem.sizes[tid], mem.offsets[tid],
                                    owner=tid)
        packed = packed[:packed_bytes(g.tensor_shapes[tid]) // 4].reshape(
            n, h, w, channel_blocks(c) * LANES).copy()
    finally:
        session.close()
    return x.data.astype(np.float64), got, packed


def assert_lanes_written(packed, c):
    """Every lane of an NHWC4 output written, its pad lanes zero."""
    assert not np.any(np.isnan(packed))
    assert np.all(packed[..., c:] == 0)


def softmax_reference(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestHeadKernels:
    """MatMul, Softmax and a shape-changing Reshape on shapes no preset has,
    against float64 references, with the pool poisoned first."""

    @pytest.mark.parametrize("shape,features,bias", [
        ((2, 6, 3, 3), 7, True),
        ((3, 4, 1, 1), 3, False),
        ((1, 5, 1, 1), 1, True),
    ])
    def test_matmul(self, shape, features, bias):
        b = GraphBuilder(shape, seed=0)
        b.matmul(features, bias=bias)
        g = b.build()
        node = g.nodes[0]
        x, got, packed = run_poisoned(g)
        want = x.reshape(shape[0], -1) @ node.weights.astype(np.float64)
        if bias:
            want += node.bias
        assert got.shape == (shape[0], features, 1, 1)
        assert rel_err(got.reshape(shape[0], features), want) <= 1e-6
        assert_lanes_written(packed, features)

    @pytest.mark.parametrize("shape", [
        (1, 1, 1, 1), (1, 4, 1, 1), (2, 6, 1, 1), (2, 6, 3, 2)])
    def test_softmax(self, shape):
        b = GraphBuilder(shape, seed=0)
        b.softmax()
        g = b.build()
        x, got, packed = run_poisoned(g)
        assert rel_err(got, softmax_reference(x)) <= 1e-6
        assert_lanes_written(packed, shape[1])

    def test_reshape_then_matmul(self):
        b = GraphBuilder((1, 16, 2, 2), seed=0)
        b.reshape((1, 64, 1, 1))
        b.matmul(5)
        g = fuse(b.build())
        assert [n.kind for n in g.nodes] == [OpKind.RESHAPE, OpKind.MATMUL]
        node = g.nodes[1]
        x, got, packed = run_poisoned(g)
        want = x.reshape(1, 64) @ node.weights.astype(np.float64) + node.bias
        assert rel_err(got.reshape(1, 5), want) <= 1e-6
        assert_lanes_written(packed, 5)


class TestTransfers:
    def test_roundtrip_bitwise(self):
        b = GraphBuilder((1, 5, 6, 6), seed=0)
        b.relu()
        g = b.build()
        cpu = CpuBackend()
        sim = SimBackend()
        plan = pre_infer(g, [cpu.spec(), sim.spec()], force_backend="sim")
        assert all(t.src != t.dst for t in plan.transfers())
        session = Session(plan, [cpu, sim])
        x = make_input(g)
        out = session.run(x)
        want = np.maximum(x.data, 0.0)
        assert np.array_equal(out[g.outputs[0]].data, want)
        # one copy per run for each of the plan's transfers
        _, times = session.run_timed(x)
        names = [name for name, _ in times]
        transfers = [f"transfer:{t.tensor}" for t in plan.transfers()]
        assert len(transfers) == 2
        assert [n for n in names if n.startswith("transfer:")] == transfers
        session.close()

    def test_hybrid_conv_relu_two_transfers(self):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.conv(kernel=3, pad=1, out_c=4)
        b.relu()
        g = b.build()
        sim = SimBackend(supported=frozenset({OpKind.RELU}))
        plan = pre_infer(g, [CpuBackend().spec(), sim.spec()],
                         force_backend="sim")
        assert [(t.src, t.dst) for t in plan.transfers()] == [
            ("cpu", "sim"), ("sim", "cpu")]

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

    def test_input_data_of_another_extent_rejected(self):
        g = fuse(build_preset("resnet-mini"))
        plan = pre_infer(g, [CpuBackend().spec()])
        x = pack_nc4hw4(make_input(g))
        h = x.shape[2]
        half = Tensor(x.shape, Layout.NC4HW4,
                      np.ascontiguousarray(x.data[:, :, :h // 2]))
        nchw = make_input(g)
        short = Tensor(nchw.shape, Layout.NCHW,
                       np.ascontiguousarray(nchw.data[:, :1]))
        session = Session(plan, [CpuBackend()])
        session.run(x)
        for bad in (half, short):
            with pytest.raises(LayoutError):
                session.run(bad)
        session.close()

    def test_input_pad_lanes_must_be_zero(self):
        g = fuse(build_preset("resnet-mini"))  # 3 channels: one pad lane
        plan = pre_infer(g, [CpuBackend().spec()])
        x = pack_nc4hw4(make_input(g))
        x.data[:, -1, :, :, 3] = np.nan
        session = Session(plan, [CpuBackend()])
        with pytest.raises(LayoutError, match="pad lanes"):
            session.run(x)
        session.close()

    def test_input_of_other_dtype_accepted(self):
        g = fuse(build_preset("resnet-mini"))
        plan = pre_infer(g, [CpuBackend().spec()])
        x = make_input(g)
        packed = pack_nc4hw4(x)
        wide = Tensor(packed.shape, Layout.NC4HW4,
                      packed.data.astype(np.float64))
        session = Session(plan, [CpuBackend()])
        want = session.run(x)
        got = session.run(wide)
        session.close()
        for tid in want:
            assert np.array_equal(got[tid].data, want[tid].data)

    def test_closed_session_rejected(self):
        g = fuse(build_preset("resnet-mini"))
        plan = pre_infer(g, [CpuBackend().spec()])
        session = Session(plan, [CpuBackend()])
        session.close()
        with pytest.raises(GraphValidationError):
            session.run(make_input(g))

    @pytest.mark.parametrize("hybrid", [False, True])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_views_bound_once(self, preset, hybrid, monkeypatch):
        # a run only executes the bound steps: every execution gets the
        # very same input, output and scratch arrays on every run, each
        # tensor as its NHWC4 data array
        g = fuse(build_preset(preset))
        backends = [CpuBackend()]
        if hybrid:
            backends.append(SimBackend(supported=frozenset(
                {OpKind.RELU, OpKind.ADD, OpKind.POOL2D, OpKind.SOFTMAX})))
        plan = pre_infer(g, [b.spec() for b in backends],
                         force_backend="sim" if hybrid else None)
        if hybrid:
            # build_steps only moves a tensor that is not yet on its target
            assert plan.transfers()
            assert all(t.src != t.dst for t in plan.transfers())
        seen = {}
        nodes = {}
        create = backend_module.Backend.create_execution

        def spy(backend, step, plan):
            run = create(backend, step, plan)
            node = nodes[step.node.id] = step.node

            def spied(inputs, outputs, scratch=None):
                seen.setdefault(node.id, []).append(
                    (list(inputs), list(outputs), scratch))
                run(inputs, outputs, scratch)

            return spied

        monkeypatch.setattr(backend_module.Backend, "create_execution", spy)
        session = Session(plan, backends)
        x = make_input(g)
        try:
            session.run(x)
            session.run(x)
        finally:
            session.close()
        assert seen
        for nid, runs in seen.items():
            assert len(runs) == 2, nid
            (ins, outs, scratch), (ins2, outs2, scratch2) = runs
            assert len(ins) == len(ins2) and len(outs) == len(outs2)
            for a, b in zip(ins + outs + [scratch], ins2 + outs2 + [scratch2]):
                assert a is b, nid
            node = nodes[nid]
            for tid, array in zip(node.inputs + node.outputs, ins + outs):
                want = data_shape(g.tensor_shapes[tid].dims, Layout.NHWC4)
                assert array.shape == want, (node.id, tid)

    @pytest.mark.parametrize("hybrid", [False, True])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_run_timed_names_each_step_once_in_order(self, preset, hybrid):
        # each step is bound to one call: run_timed reports every step of
        # the plan once, in plan order, an op by its node id and a
        # transfer by its tensor
        g = fuse(build_preset(preset))
        backends = [CpuBackend()]
        if hybrid:
            backends.append(SimBackend(supported=frozenset(
                {OpKind.RELU, OpKind.ADD, OpKind.POOL2D, OpKind.SOFTMAX})))
        plan = pre_infer(g, [b.spec() for b in backends],
                         force_backend="sim" if hybrid else None)
        want = [s.node.id if isinstance(s, OpStep) else f"transfer:{s.tensor}"
                for s in plan.steps]
        assert len(set(want)) == len(want)
        assert bool(plan.transfers()) == hybrid
        session = Session(plan, backends)
        try:
            _, times = session.run_timed(make_input(g))
        finally:
            session.close()
        assert [name for name, _ in times] == want

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

    def test_engine_runs_without_sim_registered(self, monkeypatch):
        # with the sim module gone, a CPU run still works and only the sim
        # backend fails to resolve
        monkeypatch.setitem(sys.modules, "nanoinfer.simbackend", None)
        g = fuse(build_preset("resnet-mini"))
        plan = pre_infer(g, [resolve_backend("cpu").spec()])
        out = run_session(plan, make_input(g))
        assert g.outputs[0] in out
        with pytest.raises(GraphValidationError,
                           match="sim backend not available"):
            resolve_backend("sim")

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
                want = relayout(fresh[tid], Layout.NCHW)
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
