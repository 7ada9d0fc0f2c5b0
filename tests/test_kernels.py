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
    return unpack_nc4hw4(y, p.out_c).data


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
        assert rel_err(unpack_nc4hw4(y, 7).data, want) <= 1e-5
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
        out = unpack_nc4hw4(conv_sliding(x, w, p, bias=bias), 2).data
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
# each conv's output rows split into several bands of kernels.BAND_FLOATS
# floats, the last one partial
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
                  unpack_nc4hw4(nc4, p.out_c).data)


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_dense_bands_match_direct_conv(case, rng):
    kernel, stride, pad, in_c, out_c, group, h, w = BAND_CASES[case]
    b = GraphBuilder((2, in_c, h, w), seed=7)
    b.conv(kernel=kernel, stride=stride, pad=pad, out_c=out_c, group=group,
           activation="relu")
    g = b.build()
    node = g.nodes[0]
    p = node.params()
    oh, ow = p.out_size(h, w)
    band = kernels._band_rows(oh, ow * p.kh * p.kw * channel_blocks(in_c)
                              * LANES)
    assert 1 < band < oh and oh % band
    x = rng.standard_normal((2, in_c, h, w)).astype(np.float32)
    step, got = dense_results(g, x)
    # one kernel on one geometry: the same bits by every route
    assert all(y.tobytes() == step.tobytes() for y in got)
    pre = conv2d_reference(x.astype(np.float64), node.weights.astype(np.float64),
                           stride, pad, group, node.bias.astype(np.float64))
    assert rel_err(step, np.maximum(pre, 0.0)) <= 1e-3


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
# under that BAND_FLOATS each conv splits into several slabs, the last
# one partial, but depthwise at stride 2, which reads the whole bordered
# map; at the default every one is a single slab
SLAB_CASES = {
    "stride2_pad2": ((3, 3), (2, 2), (2, 2), 8, 8, 1, 1, 23, 17, 1536),
    "1x7": ((1, 7), (1, 1), (0, 3), 8, 8, 1, 1, 13, 20, 1024),
    "7x1": ((7, 1), (1, 1), (3, 0), 8, 8, 1, 1, 13, 20, 1536),
    "taller_than_slab": ((7, 3), (1, 1), (3, 1), 8, 8, 1, 1, 13, 20, 1536),
    "two_images": ((3, 3), (1, 1), (1, 1), 8, 8, 1, 2, 15, 11, 1024),
    "one_column": ((3, 3), (1, 1), (1, 1), 8, 8, 1, 2, 15, 1, 300),
    "grouped": ((3, 3), (1, 1), (1, 1), 8, 12, 4, 1, 15, 11, 1536),
    "depthwise": ((3, 3), (1, 1), (1, 1), 8, 8, 8, 2, 15, 11, 1024),
    "depthwise_stride2": ((3, 3), (2, 2), (1, 1), 8, 8, 8, 2, 19, 11, 1536),
    "depthwise_one_column": ((3, 3), (1, 1), (1, 1), 8, 8, 8, 2, 15, 1, 350),
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
                else unpack_nc4hw4(y, out_c).data)

    whole = conv(Layout.NHWC4)
    monkeypatch.setattr(kernels, "BAND_FLOATS", band)
    rows = kernels.slab_rows(p, n, h, w)
    if p.depthwise and stride != (1, 1):
        assert rows == oh
    else:
        assert rows < oh and oh % rows, (rows, oh)
    got = conv(Layout.NHWC4)
    assert got.tobytes() == conv(Layout.NC4HW4).tobytes()
    if p.depthwise:  # its sums do not depend on the slab's rows
        assert got.tobytes() == whole.tobytes()
    want = conv2d_reference(x.astype(np.float64), wt.astype(np.float64),
                            stride, pad, group, bias.astype(np.float64),
                            relu=True)
    assert rel_err(got, want) <= 1e-5


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
