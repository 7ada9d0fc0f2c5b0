import numpy as np
import pytest

import nanoinfer.kernels as kernels
from conftest import conv2d_reference, rel_err
from nanoinfer.errors import ShapeMismatchError
from nanoinfer.kernels import (
    ConvParams, MatDims, conv_sliding, matmul_direct, matmul_strassen,
    strassen_recursion_depth, strassen_scratch_elems, strassen_should_recurse,
)
from nanoinfer.backend import CpuBackend, Session
from nanoinfer.graph import GraphBuilder
from nanoinfer.preinference import SchemeKind, pre_infer
from nanoinfer.tensor import (
    LANES, Layout, channel_blocks, from_nchw, pack_nc4hw4, relayout,
    unpack_nc4hw4,
)
from nanoinfer.winograd import conv_winograd, generate_transforms


def triple_loop_matmul(a, b):
    n, k = a.shape
    _, m = b.shape
    c = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for kk in range(k):
                acc += float(a[i, kk]) * float(b[kk, j])
            c[i, j] = acc
    return c


class TestMatmulDirect:
    def test_identity(self, rng):
        a = rng.standard_normal((5, 7)).astype(np.float32)
        assert np.array_equal(matmul_direct(np.eye(5, dtype=np.float32), a), a)

    def test_one_by_one(self):
        out = matmul_direct(np.array([[2.0]], np.float32),
                            np.array([[3.0]], np.float32))
        assert out.tolist() == [[6.0]]

    def test_matches_triple_loop(self, rng):
        a = rng.standard_normal((9, 5)).astype(np.float32)
        b = rng.standard_normal((5, 11)).astype(np.float32)
        assert rel_err(matmul_direct(a, b), triple_loop_matmul(a, b)) < 1e-6

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matmul_direct(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))


class TestStrassenCutoff:
    def test_256_recurses(self):
        # 256^3 - 7*128^3 = 2,097,152 > 4*128^2 + 4*128^2 + 7*128^2 = 245,760
        assert strassen_should_recurse(MatDims(256, 256, 256)) is True

    def test_16_stops(self):
        # 16^3 - 7*8^3 = 512 is not > 4*64 + 4*64 + 7*64 = 960
        assert strassen_should_recurse(MatDims(16, 16, 16)) is False

    def test_empty_dim(self):
        assert strassen_should_recurse(MatDims(0, 64, 64)) is False

    def test_depth_iterates_inequality(self):
        # 1024 -> 512 -> 256 -> 128 -> 64 -> 32 all recurse, 16 stops
        assert strassen_recursion_depth(MatDims(1024, 1024, 1024)) == 6
        assert strassen_recursion_depth(MatDims(16, 16, 16)) == 0
        assert strassen_recursion_depth(MatDims(64, 64, 4096)) == 2

    def test_predicate_is_exact_integer_arithmetic(self):
        d = MatDims(256, 256, 256)
        saved = 256 ** 3 - 7 * 128 ** 3
        added = 4 * 128 * 128 + 4 * 128 * 128 + 7 * 128 * 128
        assert (saved, added) == (2_097_152, 245_760)
        assert strassen_should_recurse(d) == (saved > added)

    def test_add_cost_weighs_additions(self, monkeypatch):
        # one level at 1024^3 saves 134,217,728 multiplies for 3,932,160
        # counted additions: it pays at a weight of 34 but not at 35
        d = MatDims(1024, 1024, 1024)
        assert strassen_should_recurse(d, add_cost=34) is True
        assert strassen_should_recurse(d, add_cost=35) is False
        assert strassen_recursion_depth(d, add_cost=34) == 1
        # the scratch plan follows the engine's weight, ADD_COST
        monkeypatch.setattr(kernels, "ADD_COST", 34)
        assert strassen_scratch_elems(d) == 7 * 3 * 512 * 512
        monkeypatch.setattr(kernels, "ADD_COST", 35)
        assert strassen_scratch_elems(d) == 0


@pytest.fixture
def count_rule(monkeypatch):
    """Weigh additions like multiplies, so matmul_strassen takes levels at
    sizes where the engine's ADD_COST takes none."""
    monkeypatch.setattr(kernels, "ADD_COST", 1)


def count_rule_depth(a, b):
    return strassen_recursion_depth(MatDims(a.shape[0], a.shape[1],
                                            b.shape[1]))


class TestMatmulStrassen:
    def test_constant_matrices_exact(self, count_rule):
        a = np.ones((256, 256), dtype=np.float32)
        assert count_rule_depth(a, a) >= 1
        out = matmul_strassen(a, a)
        assert np.all(out == 256.0)

    def test_random_512_matches_direct(self, rng, count_rule):
        a = rng.standard_normal((512, 512)).astype(np.float32)
        b = rng.standard_normal((512, 512)).astype(np.float32)
        assert count_rule_depth(a, b) >= 1
        assert rel_err(matmul_strassen(a, b), matmul_direct(a, b)) <= 1e-4

    def test_random_grid(self, rng, count_rule):
        dims = [tuple(int(d) for d in rng.integers(1, 65, size=3))
                for _ in range(12)]
        fixed = [(128, 128, 128), (256, 128, 256), (37, 53, 129)]
        for n, k, m in dims + fixed:
            a = rng.standard_normal((n, k)).astype(np.float32)
            b = rng.standard_normal((k, m)).astype(np.float32)
            if (n, k, m) in fixed:
                assert count_rule_depth(a, b) >= 1, (n, k, m)
            got = matmul_strassen(a, b)
            assert got.shape == (n, m)
            assert rel_err(got, matmul_direct(a, b)) <= 1e-4, (n, k, m)

    def test_small_falls_through_to_direct(self, rng):
        # 16^3 takes no level under any weight, 128^3 none under ADD_COST
        for size in (16, 128):
            a = rng.standard_normal((size, size)).astype(np.float32)
            b = rng.standard_normal((size, size)).astype(np.float32)
            assert np.array_equal(matmul_strassen(a, b), matmul_direct(a, b))

    def test_scratch_arena_path_is_identical(self, rng, count_rule):
        a = rng.standard_normal((96, 80)).astype(np.float32)
        b = rng.standard_normal((80, 112)).astype(np.float32)
        assert count_rule_depth(a, b) >= 1
        need = strassen_scratch_elems(MatDims(96, 80, 112))
        scratch = np.empty(need, dtype=np.float32)
        assert np.array_equal(matmul_strassen(a, b, scratch),
                              matmul_strassen(a, b))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matmul_strassen(np.zeros((4, 4), np.float32), np.zeros((5, 4), np.float32))


def run_sliding(x, w, p, bias=None):
    y = conv_sliding(pack_nc4hw4(from_nchw(x)), w, p, bias=bias)
    return unpack_nc4hw4(y).data


class TestConvSliding:
    def test_identity_1x1(self, rng):
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        w = np.eye(4, dtype=np.float32).reshape(4, 4, 1, 1)
        p = ConvParams.square(1, in_c=4, out_c=4)
        assert np.array_equal(run_sliding(x, w, p), x)

    def test_all_ones_sums_window(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        p = ConvParams.square(3, in_c=1, out_c=1)
        out = run_sliding(x, w, p)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_matches_triple_loop_oracle(self, rng):
        x = rng.standard_normal((1, 8, 16, 16)).astype(np.float32)
        w = (rng.standard_normal((6, 8, 3, 3)) * 0.2).astype(np.float32)
        bias = rng.standard_normal(6).astype(np.float32)
        p = ConvParams.square(3, stride=1, pad=1, in_c=8, out_c=6, relu=True)
        want = conv2d_reference(x, w, (1, 1), (1, 1), bias=bias, relu=True)
        assert rel_err(run_sliding(x, w, p, bias=bias), want) <= 1e-5

    def test_strided_and_padded(self, rng):
        x = rng.standard_normal((2, 5, 11, 9)).astype(np.float32)
        w = (rng.standard_normal((7, 5, 3, 3)) * 0.3).astype(np.float32)
        p = ConvParams.square(3, stride=2, pad=1, in_c=5, out_c=7)
        want = conv2d_reference(x, w, (2, 2), (1, 1))
        assert rel_err(run_sliding(x, w, p), want) <= 1e-5

    def test_non_square_kernels(self, rng):
        x = rng.standard_normal((1, 3, 9, 9)).astype(np.float32)
        for kh, kw, ph, pw in ((1, 7, 0, 3), (7, 1, 3, 0)):
            w = (rng.standard_normal((4, 3, kh, kw)) * 0.3).astype(np.float32)
            p = ConvParams(kh, kw, 1, 1, ph, pw, 3, 4)
            want = conv2d_reference(x, w, (1, 1), (ph, pw))
            got = run_sliding(x, w, p)
            assert got.shape == want.shape
            assert rel_err(got, want) <= 1e-5

    def test_depthwise_group(self, rng):
        x = rng.standard_normal((1, 6, 8, 8)).astype(np.float32)
        w = (rng.standard_normal((6, 1, 3, 3)) * 0.4).astype(np.float32)
        p = ConvParams.square(3, pad=1, in_c=6, out_c=6, group=6)
        want = conv2d_reference(x, w, (1, 1), (1, 1), group=6)
        assert rel_err(run_sliding(x, w, p), want) <= 1e-5

    def test_depthwise_strided_bias_relu(self, rng):
        # 7 channels leave a pad lane; two images run one after the other
        x = rng.standard_normal((2, 7, 11, 9)).astype(np.float32)
        w = (rng.standard_normal((7, 1, 3, 3)) * 0.4).astype(np.float32)
        bias = rng.standard_normal(7).astype(np.float32)
        p = ConvParams.square(3, stride=2, pad=1, in_c=7, out_c=7, group=7,
                              relu=True)
        want = conv2d_reference(x, w, (2, 2), (1, 1), group=7, bias=bias,
                                relu=True)
        y = conv_sliding(pack_nc4hw4(from_nchw(x)), w, p, bias=bias)
        assert rel_err(unpack_nc4hw4(y).data, want) <= 1e-5
        assert np.all(y.data[:, -1, :, :, 3] == 0)  # pad lane stays zero

    def test_grouped_general(self, rng):
        x = rng.standard_normal((1, 8, 6, 6)).astype(np.float32)
        w = (rng.standard_normal((4, 4, 3, 3)) * 0.4).astype(np.float32)
        p = ConvParams.square(3, pad=1, in_c=8, out_c=4, group=2)
        want = conv2d_reference(x, w, (1, 1), (1, 1), group=2)
        assert rel_err(run_sliding(x, w, p), want) <= 1e-5

    def test_shape_mismatch(self, rng):
        x = pack_nc4hw4(from_nchw(np.zeros((1, 4, 5, 5), np.float32)))
        w = np.zeros((2, 3, 3, 3), np.float32)
        with pytest.raises(ShapeMismatchError):
            conv_sliding(x, w, ConvParams.square(3, in_c=4, out_c=2))

    @pytest.mark.parametrize("scheme", ["sliding", "winograd"])
    def test_window_beyond_padded_input_rejected(self, scheme):
        # a 4x4 window on a 3x3 map has no output pixel; it is an error,
        # as in graph shape inference, not an empty output
        x = pack_nc4hw4(from_nchw(np.ones((1, 4, 3, 3), np.float32)))
        w = np.ones((4, 4, 4, 4), np.float32)
        p = ConvParams.square(4, in_c=4, out_c=4)
        with pytest.raises(ShapeMismatchError, match="4x4 window exceeds"):
            if scheme == "sliding":
                conv_sliding(x, w, p)
            else:
                conv_winograd(x, w, p, generate_transforms(2, 4))

    def test_zero_input_channels_yield_bias(self):
        x = pack_nc4hw4(from_nchw(np.zeros((1, 0, 5, 5), np.float32)))
        w = np.zeros((2, 0, 3, 3), np.float32)
        bias = np.array([0.5, -1.0], np.float32)
        p = ConvParams.square(3, pad=1, in_c=0, out_c=2, relu=True)
        out = unpack_nc4hw4(conv_sliding(x, w, p, bias=bias)).data
        assert np.all(out[:, 0] == 0.5)
        assert np.all(out[:, 1] == 0.0)  # relu clamps the negative bias

    @pytest.mark.parametrize("kernel,stride,pad", [
        (1, 1, 0), (1, 2, 0), (3, 2, 1), ((1, 7), 1, (0, 3))])
    def test_zero_input_channels_banded(self, kernel, stride, pad):
        # no input lanes: the window matrix has no columns, and the output
        # is the bias, through the session step as through conv_sliding
        b = GraphBuilder((2, 0, 9, 9), seed=0)
        b.conv(kernel=kernel, stride=stride, pad=pad, out_c=3,
               activation="relu")
        g = b.build()
        node = g.nodes[0]
        node.bias[:] = [0.5, -1.0, 2.0]
        step, got = dense_results(g, np.zeros((2, 0, 9, 9), np.float32))
        for y in (step, *got):
            assert np.all(y[:, 0] == 0.5) and np.all(y[:, 1] == 0.0)
            assert np.all(y[:, 2] == 2.0)


class TestWindows:
    def test_view_is_the_window_at_each_stride(self, rng):
        for _ in range(30):
            kh, kw = (int(k) for k in rng.integers(1, 6, size=2))
            sh, sw = (int(s) for s in rng.integers(1, 4, size=2))
            oh, ow = (int(o) for o in rng.integers(1, 5, size=2))
            n, lanes = int(rng.integers(1, 3)), LANES * int(rng.integers(1, 3))
            # rows and columns past the last window, as Winograd's map has
            hp, wp = ((oh - 1) * sh + kh + int(rng.integers(0, 3)),
                      (ow - 1) * sw + kw + int(rng.integers(0, 3)))
            xp = rng.standard_normal((n, hp, wp, lanes)).astype(np.float32)
            views = kernels.windows(xp, kh, kw, sh, sw, oh, ow)
            assert views.shape == (n, oh, ow, kh, kw, lanes)
            for i, r, c, u, v in np.ndindex(n, oh, ow, kh, kw):
                assert np.array_equal(views[i, r, c, u, v],
                                      xp[i, r * sh + u, c * sw + v])

    def test_empty_pool_view_of_no_lanes(self):
        # a session's pool view of a 0-lane tensor: no bytes, yet strides
        # as if it had lanes
        x = np.zeros(0, np.uint8).view(np.float32).reshape(2, 9, 9, 0)
        views = kernels.windows(x, 3, 2, 2, 3, 4, 3)
        assert views.shape == (2, 4, 3, 3, 2, 0)


# (kernel, stride, pad, in_c, out_c, group, input h, w): on two images,
# under the default BAND_FLOATS, the 3x3 convs' strips split into several
# slabs, the last one partial; 7x1's strips are one slab, and the convs
# with a kernel of one row read their bordered rows in one slab
BAND_CASES = {
    "dense": ((3, 3), (1, 1), (1, 1), 16, 8, 1, 13, 40),
    "grouped": ((3, 3), (1, 1), (1, 1), 16, 12, 4, 13, 40),
    "strided": ((3, 3), (2, 2), (1, 1), 16, 8, 1, 27, 80),
    "1x7": ((1, 7), (1, 1), (0, 3), 24, 8, 1, 10, 40),
    "7x1": ((7, 1), (1, 1), (3, 0), 24, 8, 1, 10, 40),
    "1x1_strided": ((1, 1), (2, 2), (0, 0), 32, 8, 1, 60, 80),
}


def dense_results(g, x):
    """The output of g's one conv on NCHW x as a session step runs it, then
    as conv_sliding does on NHWC4 and on NC4HW4 input, all NCHW."""
    node = g.nodes[0]
    p = node.params()
    cpu = CpuBackend()
    plan = pre_infer(g, [cpu.spec()])
    assert plan.schemes[node.id].kind is SchemeKind.SLIDING_WINDOW
    session = Session(plan, [cpu])
    step = session.run(from_nchw(x))[node.outputs[0]].data
    session.close()
    nhwc = conv_sliding(relayout(from_nchw(x), Layout.NHWC4), node.weights,
                        p, bias=node.bias)
    nc4 = conv_sliding(pack_nc4hw4(from_nchw(x)), node.weights, p,
                       bias=node.bias)
    return step, (relayout(nhwc, Layout.NCHW).data,
                  unpack_nc4hw4(nc4).data)


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_dense_bands_match_direct_conv(case, rng):
    kernel, stride, pad, in_c, out_c, group, h, w = BAND_CASES[case]
    b = GraphBuilder((2, in_c, h, w), seed=7)
    b.conv(kernel=kernel, stride=stride, pad=pad, out_c=out_c, group=group,
           activation="relu")
    g = b.build()
    node = g.nodes[0]
    p = node.params()
    oh, _ = p.out_size(h, w)
    rows = kernels.slab_rows(p, 2, h, w)
    assert (rows < oh and oh % rows) if p.kh == 3 else rows == oh
    x = rng.standard_normal((2, in_c, h, w)).astype(np.float32)
    step, got = dense_results(g, x)
    # one kernel on one geometry: the same bits by every route
    assert all(y.tobytes() == step.tobytes() for y in got)
    pre = conv2d_reference(x.astype(np.float64), node.weights.astype(np.float64),
                           stride, pad, group, node.bias.astype(np.float64))
    assert rel_err(step, np.maximum(pre, 0.0)) <= 1e-3


def random_dense_geometry(rng):
    """A random dense or grouped conv and its input (n, h, w): kernels 1x1
    to 5x5, rectangular ones included, strides 1-3, pads 0-3, 1-2 images,
    at least two output rows and columns (a GEMM of one row is BLAS's GEMV,
    whose last bits differ from a GEMM's) and windows of at most 384 floats
    (beyond, OpenBLAS splits K, and a GEMM row's bits depend on the row
    count: the kernel's GEMMs have a row of output pixels, im2col's all)."""
    while True:
        kh, kw, sh, sw = (int(v) for v in rng.integers(1, [6, 6, 4, 4]))
        ph, pw = (int(v) for v in rng.integers(0, 4, size=2))
        group = int(rng.choice([1, 1, 2, 3]))
        in_c = group * int(rng.integers(1, 7))
        out_c = group * int(rng.integers(1, 7))
        n, h, w = (int(v) for v in rng.integers(1, [3, 15, 15]))
        if ((h + 2 * ph - kh) // sh >= 1 and (w + 2 * pw - kw) // sw >= 1
                and kh * kw * channel_blocks(in_c) * LANES <= 384
                and (group == 1 or in_c != group or out_c != group)):
            return ConvParams(kh, kw, sh, sw, ph, pw, in_c, out_c, group,
                              relu=bool(rng.integers(0, 2))), n, h, w


@pytest.mark.parametrize("band", [100, 2000, kernels.BAND_FLOATS])
def test_dense_lowering_is_one_im2col_gemm(band, rng, monkeypatch):
    # every dense or grouped conv, by strips or by its bordered rows, in
    # one slab or many, has the bits of one np.matmul over its explicit
    # window matrix (im2col), then bias and ReLU
    monkeypatch.setattr(kernels, "BAND_FLOATS", band)
    for _ in range(130):
        p, n, h, w = random_dense_geometry(rng)
        x = relayout(from_nchw(rng.standard_normal(
            (n, p.in_c, h, w)).astype(np.float32)), Layout.NHWC4)
        wt = rng.standard_normal((p.out_c, p.in_c // p.group, p.kh, p.kw)
                                 ).astype(np.float32)
        bias = rng.standard_normal(p.out_c).astype(np.float32)
        got = conv_sliding(x, wt, p, bias=bias).data
        packed = kernels.pack_sliding(wt, p, bias, n, h, w)
        oh, ow = p.out_size(h, w)
        xp = np.pad(x.data, ((0, 0), (p.pad_h,) * 2, (p.pad_w,) * 2, (0, 0)))
        im2col = kernels.windows(xp, p.kh, p.kw, p.stride_h, p.stride_w, oh,
                                 ow).reshape(n * oh * ow, -1)
        want = np.matmul(im2col, packed.mats.reshape(im2col.shape[1], -1)
                         ).reshape(got.shape) + packed.bias
        if p.relu:
            want = np.maximum(want, np.float32(0))
        assert got.tobytes() == want.tobytes(), (p, n, h, w)


# (in_c, out_c, group, stride, Winograd tile or None for sliding window);
# every out_c leaves pad lanes, and the 11x9 map ragged edge tiles
OUT_CASES = {
    "dense": (5, 7, 1, 2, None),
    "depthwise": (6, 6, 6, 1, None),
    "grouped": (6, 9, 3, 1, None),
    "winograd2": (5, 7, 1, 1, 2),
    "winograd4": (5, 7, 1, 1, 4),
    "winograd6": (5, 7, 1, 1, 6),
}


@pytest.mark.parametrize("case", list(OUT_CASES))
def test_conv_out_contract(case, rng):
    # out= is filled in full, pad lanes included, and is the result's data
    in_c, out_c, group, stride, tile = OUT_CASES[case]
    x = pack_nc4hw4(from_nchw(
        rng.standard_normal((2, in_c, 11, 9)).astype(np.float32)))
    w = (rng.standard_normal((out_c, in_c // group, 3, 3)) * 0.3
         ).astype(np.float32)
    bias = rng.standard_normal(out_c).astype(np.float32)
    p = ConvParams.square(3, stride=stride, pad=1, in_c=in_c, out_c=out_c,
                          group=group, relu=True)
    if tile is None:
        def conv(out=None):
            return conv_sliding(x, w, p, bias=bias, out=out)
    else:
        t = generate_transforms(tile, 3)

        def conv(out=None):
            return conv_winograd(x, w, p, t, bias=bias, out=out)

    want = conv().data
    out = np.full_like(want, np.nan)
    y = conv(out=out)
    assert y.data is out
    assert not np.isnan(out).any()
    assert np.all(out[:, -1, :, :, out_c % LANES:] == 0)
    assert out.tobytes() == want.tobytes()
    taller = np.empty(want.shape[:2] + (want.shape[2] + 1,) + want.shape[3:],
                      np.float32)
    for bad in (taller, want.astype(np.float64)):
        with pytest.raises(ShapeMismatchError):
            conv(out=bad)


# (kernel, stride, pad, in_c, out_c, group, images, input h, w, BAND_FLOATS):
# under that BAND_FLOATS each conv splits into several slabs (a dense
# conv's strips, 1x7's too), the last one partial; at the default every
# one is a single slab
SLAB_CASES = {
    "stride2_pad2": ((3, 3), (2, 2), (2, 2), 8, 8, 1, 1, 23, 17, 1536),
    "1x7": ((1, 7), (1, 1), (0, 3), 8, 8, 1, 1, 13, 20, 2240),
    "7x1": ((7, 1), (1, 1), (3, 0), 8, 8, 1, 1, 13, 20, 1536),
    "taller_than_slab": ((7, 3), (1, 1), (3, 1), 8, 8, 1, 1, 13, 20, 4320),
    "two_images": ((3, 3), (1, 1), (1, 1), 8, 8, 1, 2, 15, 11, 3168),
    "one_column": ((3, 3), (1, 1), (1, 1), 8, 8, 1, 2, 15, 1, 300),
    "grouped": ((3, 3), (1, 1), (1, 1), 8, 12, 4, 1, 15, 11, 1584),
    "depthwise": ((3, 3), (1, 1), (1, 1), 8, 8, 8, 2, 15, 11, 1024),
    "depthwise_stride2": ((3, 3), (2, 2), (1, 1), 8, 8, 8, 2, 19, 11, 1536),
    "depthwise_one_column": ((3, 3), (1, 1), (1, 1), 8, 8, 8, 2, 15, 1, 300),
}


@pytest.mark.parametrize("case", list(SLAB_CASES))
def test_slabs_match_one_slab_and_reference(case, rng, monkeypatch):
    kernel, stride, pad, in_c, out_c, group, n, h, w, band = SLAB_CASES[case]
    p = ConvParams(*kernel, *stride, *pad, in_c, out_c, group, relu=True)
    oh, _ = p.out_size(h, w)
    assert kernels.slab_rows(p, n, h, w) == oh
    x = rng.standard_normal((n, in_c, h, w)).astype(np.float32)
    wt = (rng.standard_normal((out_c, in_c // group, *kernel)) * 0.3
          ).astype(np.float32)
    bias = rng.standard_normal(out_c).astype(np.float32)

    def conv(layout):
        y = conv_sliding(relayout(from_nchw(x), layout), wt, p, bias=bias)
        return (relayout(y, Layout.NCHW).data if layout is Layout.NHWC4
                else unpack_nc4hw4(y).data)

    whole = conv(Layout.NHWC4)
    monkeypatch.setattr(kernels, "BAND_FLOATS", band)
    rows = kernels.slab_rows(p, n, h, w)
    assert rows < oh and oh % rows, (rows, oh)
    got = conv(Layout.NHWC4)
    assert got.tobytes() == conv(Layout.NC4HW4).tobytes()
    # neither a depthwise conv's sums nor a dense conv's GEMM rows depend
    # on the slab's rows
    assert got.tobytes() == whole.tobytes()
    want = conv2d_reference(x.astype(np.float64), wt.astype(np.float64),
                            stride, pad, group, bias.astype(np.float64),
                            relu=True)
    assert rel_err(got, want) <= 1e-5


def depthwise_taps_float32(x, w, stride, pad, bias):
    """A depthwise conv, bias and ReLU, summed tap by tap in float32 in
    (u, v) order over the zero-padded NCHW input."""
    n, c, h, wd = x.shape
    kh, kw = w.shape[2:]
    (sh, sw), (ph, pw) = stride, pad
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh, ow = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    acc = np.zeros((n, c, oh, ow), np.float32)
    for u in range(kh):
        for v in range(kw):
            acc += w[None, :, 0, u, v, None, None] * xp[
                :, :, u:u + (oh - 1) * sh + 1:sh, v:v + (ow - 1) * sw + 1:sw]
    return np.maximum(acc + bias[None, :, None, None], np.float32(0))


# (kernel, stride, pad, channels, images, input h, w, BAND_FLOATS or None
# for the default, under which each is one slab; else several, the last
# partial).  A conv at pad 0 reads its input as it lies, in one slab.
DEPTHWISE_CASES = {
    "1x1": ((1, 1), (1, 1), (1, 1), 4, 1, 11, 7, 100),
    "3x3_pad0": ((3, 3), (1, 1), (0, 0), 7, 2, 10, 10, None),
    "3x3": ((3, 3), (1, 1), (1, 1), 16, 2, 15, 11, 2048),
    "5x5": ((5, 5), (1, 1), (2, 2), 24, 1, 13, 13, 4096),
    "5x5_pad1": ((5, 5), (1, 1), (1, 1), 12, 2, 12, 9, None),
    "1x7": ((1, 7), (1, 1), (0, 2), 8, 2, 13, 20, 1024),
    "7x1": ((7, 1), (1, 1), (2, 0), 64, 1, 16, 10, 8192),
    "3x3_stride2": ((3, 3), (2, 2), (1, 1), 32, 2, 21, 15, 8192),
    "3x3_stride2_pad0": ((3, 3), (2, 2), (0, 0), 12, 2, 16, 13, None),
    "5x5_stride2": ((5, 5), (2, 2), (2, 2), 8, 1, 17, 17, None),
    "3x3_stride2x1": ((3, 3), (2, 1), (1, 1), 16, 1, 22, 9, 1536),
    "1x7_stride1x2": ((1, 7), (1, 2), (0, 3), 8, 2, 11, 22, 1024),
    "7x1_stride2x1": ((7, 1), (2, 1), (3, 0), 4, 1, 18, 6, None),
}


@pytest.mark.parametrize("case", list(DEPTHWISE_CASES))
def test_depthwise_is_per_tap_float32_sum(case, rng, monkeypatch):
    kernel, stride, pad, c, n, h, w, band = DEPTHWISE_CASES[case]
    p = ConvParams(*kernel, *stride, *pad, c, c, c, relu=True)
    oh, _ = p.out_size(h, w)
    if band is not None:
        monkeypatch.setattr(kernels, "BAND_FLOATS", band)
        rows = kernels.slab_rows(p, n, h, w)
        assert rows < oh and oh % rows, (rows, oh)
    else:
        assert kernels.slab_rows(p, n, h, w) == oh
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    wt = rng.standard_normal((c, 1, *kernel)).astype(np.float32)
    bias = rng.standard_normal(c).astype(np.float32)
    y = conv_sliding(relayout(from_nchw(x), Layout.NHWC4), wt, p, bias=bias)
    got = relayout(y, Layout.NCHW).data
    want = depthwise_taps_float32(x, wt, stride, pad, bias)
    assert rel_err(got, want) <= 1e-6
    assert np.all(y.data[..., c:] == 0)  # pad lanes stay zero


@pytest.mark.parametrize("kernel,pad", [((3, 3), (1, 1)), ((1, 7), (0, 3))])
def test_zero_input_channels_in_slabs(kernel, pad, monkeypatch):
    # no input lanes: every slab is empty, and the output is the bias
    monkeypatch.setattr(kernels, "BAND_FLOATS", 64)
    p = ConvParams(*kernel, 1, 1, *pad, 0, 3, relu=True)
    x = relayout(from_nchw(np.zeros((2, 0, 9, 9), np.float32)), Layout.NHWC4)
    y = conv_sliding(x, np.zeros((3, 0, *kernel), np.float32), p,
                     bias=np.array([0.5, -1.0, 2.0], np.float32))
    out = relayout(y, Layout.NCHW).data
    assert np.all(out[:, 0] == 0.5) and np.all(out[:, 1] == 0.0)
    assert np.all(out[:, 2] == 2.0)


def test_border_fills_one_row_range_into_a_buffer(rng):
    # rows a..b of the bordered map, written to the start of a flat buffer,
    # are those rows of the whole bordered map
    x = rng.standard_normal((2, 5, 4, 8)).astype(np.float32)
    whole = kernels.border(x, 2, 1, 9, 7, fill=-3.0)
    buf = np.full(2 * 9 * 7 * 8 + 5, np.nan, np.float32)
    for a, b in [(0, 9), (0, 2), (1, 4), (3, 6), (6, 9), (8, 9)]:
        got = kernels.border(x, 2, 1, 9, 7, fill=-3.0, rows=(a, b), out=buf)
        assert got.base is buf or got.base is buf.base
        assert np.array_equal(got, whole[:, a:b])


def test_border_skips_only_empty_fills(rng):
    # at pad 0 on a side, and for row ranges inside the map or inside the
    # border, the fills whose slices are empty are skipped: every element
    # of the rows is still written
    x = rng.standard_normal((2, 5, 4, 8)).astype(np.float32)
    for top, left, hp, wp in [(0, 0, 5, 4), (2, 0, 9, 4), (0, 1, 5, 7)]:
        whole = kernels.border(x, top, left, hp, wp, fill=-3.0)
        buf = np.full(2 * hp * wp * 8, np.nan, np.float32)
        for a, b in [(0, hp), (1, 3), (0, 1), (hp - 1, hp)]:
            got = kernels.border(x, top, left, hp, wp, fill=-3.0,
                                 rows=(a, b), out=buf)
            assert np.array_equal(got, whole[:, a:b]), (top, left, a, b)


# conv (kernel, stride, pad, in_c, out_c, group), pool window (kernel =
# stride), n, h, w; a pointwise conv with at least two pooled columns folds
# its pool, and any other conv is refused one
FUSED_CASES = {
    "pointwise_odd_height": ((1, 1), (1, 1), (0, 0), 8, 12, 1, (2, 2), 2,
                             13, 12),
    "pointwise_odd_width": ((1, 1), (1, 1), (0, 0), 6, 8, 1, (2, 2), 1,
                            12, 13),
    # one pooled column: its GEMMs would take GEMV, whose bits differ
    "pointwise_one_pooled_column": ((1, 1), (1, 1), (0, 0), 8, 8, 1, (2, 2),
                                    2, 9, 3),
    "strided_3x3": ((3, 3), (2, 2), (0, 0), 8, 16, 1, (2, 2), 1, 33, 33),
    "pool_3x3": ((1, 1), (1, 1), (0, 0), 8, 8, 1, (3, 3), 1, 14, 13),
    # 11 pooled rows
    "pointwise_partial_chunk": ((1, 1), (1, 1), (0, 0), 8, 8, 1, (2, 2), 1,
                                22, 8),
    "strided_partial_chunk": ((3, 3), (2, 2), (0, 0), 8, 8, 1, (2, 2), 1,
                              45, 9),
    "pool_2x3": ((1, 1), (1, 1), (0, 0), 4, 8, 1, (2, 3), 2, 15, 14),
    "grouped": ((1, 1), (1, 1), (0, 0), 8, 12, 4, (2, 2), 2, 9, 14),
    # mobilenet-mini's pw2 and pool_24: a 64 KiB scratch
    "mobilenet_pw2": ((1, 1), (1, 1), (0, 0), 32, 64, 1, (2, 2), 1, 32, 32),
}


@pytest.mark.parametrize("case", list(FUSED_CASES))
@pytest.mark.parametrize("narrow", [False, True])
def test_fused_pool_bitwise_equals_conv_then_pool(case, narrow, rng,
                                                  monkeypatch):
    # conv then pool, run apart, write every element of the pooled map; the
    # conv with that max pool folded in writes the same bits (bias, ReLU,
    # then the pool) from a scratch of one pooled image of garbage, or, for
    # a conv the fold does not take, pack_sliding refuses the pool; a
    # narrow BAND_FLOATS, which the fold does not read, changes nothing
    kernel, stride, pad, in_c, out_c, group, window, n, h, w = (
        FUSED_CASES[case])
    if narrow:
        monkeypatch.setattr(kernels, "BAND_FLOATS", 64)
    p = ConvParams(*kernel, *stride, *pad, in_c, out_c, group, relu=True)
    q = ConvParams(*window, *window)
    oh, ow = p.out_size(h, w)
    poh, pw = q.out_size(oh, ow)
    x = relayout(from_nchw(rng.standard_normal((n, in_c, h, w)).astype(
        np.float32)), Layout.NHWC4).data
    wt = (rng.standard_normal((out_c, in_c // group, *kernel)) * 0.3
          ).astype(np.float32)
    bias = rng.standard_normal(out_c).astype(np.float32)
    lanes = channel_blocks(out_c) * LANES
    conv = np.full((n, oh, ow, lanes), np.nan, np.float32)
    kernels.sliding_nhwc4(x, kernels.pack_sliding(wt, p, bias, n, h, w), p,
                          conv)
    want = np.full((n, poh, pw, lanes), np.nan, np.float32)
    kernels.pool_nhwc4(conv, q, "max", want)
    assert not np.isnan(want).any()
    if not (p.pointwise and pw >= 2):
        with pytest.raises(ShapeMismatchError, match="pointwise"):
            kernels.pack_sliding(wt, p, bias, n, h, w, pool=q)
        return
    packed = kernels.pack_sliding(wt, p, bias, n, h, w, pool=q)
    assert packed.bias.shape == (poh, pw, lanes)
    scratch = np.full(poh * pw * lanes, np.nan, np.float32)
    got = np.full_like(want, np.nan)
    kernels.sliding_nhwc4(x, packed, p, got, scratch)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [
    pytest.param(ConvParams(3, 1, 2, 1, in_c=8, out_c=8), id="dense_3x1"),
    pytest.param(ConvParams.square(3, 2, in_c=8, out_c=8, group=4),
                 id="grouped_3x3"),
    pytest.param(ConvParams.square(3, 1, 1, in_c=8, out_c=8),
                 id="padded_3x3"),
    pytest.param(ConvParams.square(3, in_c=8, out_c=8, group=8),
                 id="depthwise_3x3"),
    pytest.param(ConvParams.square(3, 1, 1, in_c=8, out_c=8, group=8),
                 id="depthwise_padded"),
    pytest.param(ConvParams.square(1, in_c=8, out_c=8, group=8),
                 id="depthwise_1x1"),
    pytest.param(ConvParams.square(1, 2, in_c=8, out_c=8),
                 id="pointwise_stride2"),
])
def test_pool_folds_only_into_pointwise_convs(p):
    # any other conv has no fold body: its pool runs apart
    with pytest.raises(ShapeMismatchError, match="pointwise"):
        kernels.pack_sliding(
            np.zeros((8, 8 // p.group, p.kh, p.kw), np.float32), p, None, 1,
            9, 9, pool=ConvParams.square(2, 2))
