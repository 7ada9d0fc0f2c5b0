import numpy as np
import pytest

import nanoinfer.kernels as kernels
from conftest import conv2d_reference, rel_err
from nanoinfer.errors import ShapeMismatchError
from nanoinfer.kernels import (
    ConvParams, MatDims, conv_sliding, matmul_direct, matmul_strassen,
    strassen_recursion_depth, strassen_scratch_elems, strassen_should_recurse,
)
from nanoinfer.tensor import from_nchw, pack_nc4hw4, unpack_nc4hw4


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

    def test_zero_input_channels_yield_bias(self):
        x = pack_nc4hw4(from_nchw(np.zeros((1, 0, 5, 5), np.float32)))
        w = np.zeros((2, 0, 3, 3), np.float32)
        bias = np.array([0.5, -1.0], np.float32)
        p = ConvParams.square(3, pad=1, in_c=0, out_c=2, relu=True)
        out = unpack_nc4hw4(conv_sliding(x, w, p, bias=bias), 2).data
        assert np.all(out[:, 0] == 0.5)
        assert np.all(out[:, 1] == 0.0)  # relu clamps the negative bias
