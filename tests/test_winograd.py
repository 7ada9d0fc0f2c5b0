import warnings

import numpy as np
import pytest

from conftest import conv2d_reference, rel_err, valid_corr2d
from nanoinfer.errors import ShapeMismatchError, UnsupportedSizeError
from nanoinfer.kernels import LANES, ConvParams, conv_sliding
from nanoinfer.tensor import channel_blocks, from_nchw, pack_nc4hw4, unpack_nc4hw4
from nanoinfer.winograd import (
    WeightCache, conv_winograd, generate_transforms, weight_transform,
    winograd_work,
)


def identity_error(t, rng, trials=100, dtype=np.float64):
    worst = 0.0
    a = t.A.astype(dtype)
    b = t.B.astype(dtype)
    g = t.G.astype(dtype)
    for _ in range(trials):
        w = rng.standard_normal((t.k, t.k))
        x = rng.standard_normal((t.alpha, t.alpha))
        want = valid_corr2d(x, w)
        got = a.T @ ((g @ w.astype(dtype) @ g.T) * (b.T @ x.astype(dtype) @ b)) @ a
        worst = max(worst, rel_err(got, want))
    return worst


class TestGenerator:
    def test_rational_inverse_is_exact(self, rng):
        # integer elimination must divide exactly; a leading zero forces
        # the row swap, the power rows are what the generator inverts
        from fractions import Fraction

        from nanoinfer.winograd import _interpolation_points, _invert_rational

        def frac(rows):
            return [[Fraction(v) for v in row] for row in rows]

        cases = [frac([[0, 1], [1, 0]]), frac([[0, 2, 1], [3, 0, 0], [1, 1, 5]])]
        for alpha in range(2, 11):
            for f in ("0.5", "0.3"):
                pts = _interpolation_points(alpha - 1, Fraction(f))
                rows = [[p ** j for j in range(alpha)] for p in pts]
                cases.append(rows + [frac([[0] * (alpha - 1) + [1]])[0]])
        while len(cases) < 60:
            n = int(rng.integers(1, 7))
            m = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                  for _ in range(n)] for _ in range(n)]
            if np.linalg.matrix_rank(np.array(m, dtype=float)) == n:
                cases.append(m)
        for m in cases:
            inv = _invert_rational(m)
            n = len(m)
            for i in range(n):
                for j in range(n):
                    assert sum(m[i][t] * inv[t][j] for t in range(n)) == (i == j)

    def test_degenerate_1x1(self):
        t = generate_transforms(1, 1, 0.5)
        for m in (t.A, t.B, t.G):
            assert m.shape == (1, 1) and m[0, 0] == 1.0

    def test_f23_classical_pattern(self):
        # rows of Bt match the classical F(2,3) table up to per-row scale/sign
        t = generate_transforms(2, 3, 1.0)
        classical_bt = np.array([
            [1, 0, -1, 0],
            [0, 1, 1, 0],
            [0, -1, 1, 0],
            [0, 1, 0, -1],
        ], dtype=np.float64)
        bt = t.B.T
        for row, want in zip(bt, classical_bt):
            nz = np.nonzero(want)[0]
            scale = row[nz[0]] / want[nz[0]]
            assert scale != 0
            assert np.allclose(row, want * scale)

    def test_identity_all_required_sizes(self, rng):
        for k in (2, 3, 5, 7):
            for n in (2, 4):
                if n + k - 1 > 10:
                    continue
                for f in (0.5, 1.0):
                    t = generate_transforms(n, k, f)
                    assert identity_error(t, rng, trials=50) <= 1e-6, (n, k, f)

    def test_identity_32bit_default_spacing(self, rng):
        for k in (2, 3, 5, 7):
            for n in (2, 4):
                if n + k - 1 > 10:
                    continue
                t = generate_transforms(n, k, 0.5)
                assert identity_error(t, rng, trials=50, dtype=np.float32) <= 1e-3

    def test_shapes(self):
        t = generate_transforms(4, 3, 0.5)
        assert t.alpha == 6
        assert t.A.shape == (6, 4)
        assert t.B.shape == (6, 6)
        assert t.G.shape == (6, 3)

    def test_alpha_guard(self):
        with pytest.raises(UnsupportedSizeError):
            generate_transforms(6, 7, 0.5)
        with pytest.raises(UnsupportedSizeError):
            generate_transforms(2, 3, 0.0)

    @pytest.mark.parametrize("f", [np.inf, 1e100, 1e-100, 1e20, 1e-20])
    def test_unrepresentable_spacing_rejected(self, f):
        # at 1e20 and 1e-20 the float64 triple is finite, but Bt or At
        # cast to float32 is not; further out float64 itself overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            with pytest.raises(UnsupportedSizeError, match="point spacing"):
                generate_transforms(4, 3, f)

    def test_memoized(self):
        assert generate_transforms(2, 3, 0.5) is generate_transforms(2, 3, 0.5)


def planned_scheme(c, o, size, k):
    from nanoinfer.graph import GraphBuilder
    from nanoinfer.preinference import scheme_costs, select_schemes

    b = GraphBuilder((1, c, size, size), seed=0)
    b.conv(kernel=k, pad=k // 2, out_c=o, bias=False)
    g = b.build()
    return (select_schemes(g)[g.nodes[0].id],
            scheme_costs(g.nodes[0], g.tensor_shapes))


class TestChooseTile:
    """A tile is chosen like any scheme: as the argmin of scheme_cost."""

    def test_k3_wide_channels(self):
        # 112 = 18 * 6 + 4: tile 6 computes 19 x 19 tiles, with the
        # padding waste counted; tile 4 fits exactly 28 x 28
        p = ConvParams.square(3, pad=1, in_c=64, out_c=64)
        w6, w4 = winograd_work(p, 6, 1, 112, 112), winograd_work(p, 4, 1, 112, 112)
        assert w6.gemm == 8 * 8 * 64 * 64 * 19 * 19
        assert w4.gemm == 6 * 6 * 64 * 64 * 28 * 28
        assert w6.small == 2 * 19 * 19 * (64 + 64)
        assert w6.gemm < w4.gemm and w6.small < w4.small
        choice, costs = planned_scheme(64, 64, 112, 3)
        assert choice == min(costs, key=costs.get)
        assert {s.label() for s in costs} >= {"winograd4", "winograd6"}

    def test_k2_tiny_channels(self):
        # one channel pads to a 4-lane block on both sides
        p = ConvParams.square(2, in_c=1, out_c=1)
        work = winograd_work(p, 2, 1, 8, 8)
        assert work.gemm == 3 * 3 * 4 * 4 * 4 * 4
        assert work.small == 2 * 16 * (4 + 4)
        choice, costs = planned_scheme(1, 1, 8, 2)
        assert choice == min(costs, key=costs.get)

    def test_zero_input_channels_still_defined(self):
        choice, costs = planned_scheme(0, 1, 8, 2)
        assert all(cost >= 0 for cost in costs.values())
        assert winograd_work(ConvParams.square(2, in_c=0), 2, 1, 8, 8).gemm == 0
        assert choice == min(costs, key=costs.get)

    def test_brute_force_argmin(self, rng):
        from nanoinfer.preinference import conv_schemes, scheme_cost

        for _ in range(100):
            k = int(rng.integers(2, 8))
            ic = int(rng.integers(1, 65))
            oc = int(rng.integers(1, 65))
            size = int(rng.integers(k, 40))
            choice, _ = planned_scheme(ic, oc, size, k)
            p = ConvParams.square(k, pad=k // 2, in_c=ic, out_c=oc)
            best = min(conv_schemes(p),
                       key=lambda s: scheme_cost(p, s, (1, ic, size, size)))
            assert choice == best


class TestWeightTransform:
    def test_packed_shape(self, rng):
        t = generate_transforms(2, 3, 0.5)
        w = rng.standard_normal((6, 9, 3, 3)).astype(np.float32)
        u = weight_transform(w, t)
        assert u.shape == (16, channel_blocks(6) * 4, channel_blocks(9) * 4)

    def test_values_match_direct_gwgt(self, rng):
        t = generate_transforms(2, 3, 0.5)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        u = weight_transform(w, t)
        g = t.G.astype(np.float32)
        direct = g @ w[1, 0] @ g.T
        assert np.allclose(u[:, 1, 0].reshape(4, 4), direct, atol=1e-6)

    def test_cache_counters(self):
        cache = WeightCache()
        calls = []
        cache.put("a", np.zeros(1))
        cache.get("a")
        cache.get("b", compute=lambda: calls.append(1) or np.ones(1))
        cache.get("b")
        assert cache.hits == 2
        assert cache.recomputes == 1
        assert len(calls) == 1
        cache.reset_counters()
        assert (cache.hits, cache.recomputes) == (0, 0)


def run_winograd(x, w, p, n_tile, bias=None, f=0.5):
    t = generate_transforms(n_tile, p.kh, f)
    y = conv_winograd(pack_nc4hw4(from_nchw(x)), w, p, t, bias=bias)
    return unpack_nc4hw4(y).data


class TestConvWinograd:
    def test_delta_kernel_is_identity(self, rng):
        x = rng.standard_normal((1, 4, 12, 12)).astype(np.float32)
        w = np.zeros((4, 4, 3, 3), dtype=np.float32)
        for c in range(4):
            w[c, c, 1, 1] = 1.0
        p = ConvParams.square(3, pad=1, in_c=4, out_c=4)
        got = run_winograd(x, w, p, 2)
        assert np.allclose(got, x, atol=1e-4)

    def test_matches_sliding_16ch(self, rng):
        x = rng.standard_normal((1, 16, 32, 32)).astype(np.float32)
        w = (rng.standard_normal((16, 16, 3, 3)) * 0.2).astype(np.float32)
        bias = rng.standard_normal(16).astype(np.float32)
        p = ConvParams.square(3, pad=1, in_c=16, out_c=16, relu=True)
        want = conv2d_reference(x, w, (1, 1), (1, 1), bias=bias, relu=True)
        got = run_winograd(x, w, p, 2, bias=bias)
        assert rel_err(got, want) <= 1e-3

    def test_supported_grid_matches_sliding(self, rng):
        for k in (2, 3, 4, 5, 7):
            for n_tile in (2, 4, 6):
                if n_tile + k - 1 > 10:
                    continue
                x = rng.standard_normal((1, 5, 14, 14)).astype(np.float32)
                w = (rng.standard_normal((3, 5, k, k)) * 0.3).astype(np.float32)
                p = ConvParams.square(k, pad=k // 2, in_c=5, out_c=3)
                xt = pack_nc4hw4(from_nchw(x))
                want = unpack_nc4hw4(conv_sliding(xt, w, p)).data
                got = run_winograd(x, w, p, n_tile)
                assert rel_err(got, want) <= 1e-3, (k, n_tile)

    def test_several_images_match_reference(self, rng):
        # the tile-major patch array spans image boundaries; 13x10 leaves
        # ragged edge tiles for every tile size
        x = rng.standard_normal((3, 5, 13, 10)).astype(np.float32)
        w = (rng.standard_normal((6, 5, 3, 3)) * 0.3).astype(np.float32)
        bias = rng.standard_normal(6).astype(np.float32)
        p = ConvParams.square(3, pad=1, in_c=5, out_c=6, relu=True)
        want = conv2d_reference(x, w, (1, 1), (1, 1), bias=bias, relu=True)
        for n_tile in (2, 4, 6):
            got = run_winograd(x, w, p, n_tile, bias=bias)
            assert rel_err(got, want) <= 1e-3, n_tile

    def test_zero_input_channels_yield_bias(self):
        x = pack_nc4hw4(from_nchw(np.zeros((2, 0, 7, 5), np.float32)))
        w = np.zeros((2, 0, 3, 3), np.float32)
        bias = np.array([0.5, -1.0], np.float32)
        p = ConvParams.square(3, pad=1, in_c=0, out_c=2, relu=True)
        y = conv_winograd(x, w, p, generate_transforms(4, 3), bias=bias)
        out = unpack_nc4hw4(y).data
        assert out.shape == (2, 2, 7, 5)
        assert np.all(out[:, 0] == 0.5)
        assert np.all(out[:, 1] == 0.0)  # relu clamps the negative bias
        assert np.all(y.data[:, :, :, :, 2:] == 0)

    def test_transform_kernel_mismatch(self, rng):
        x = pack_nc4hw4(from_nchw(rng.standard_normal((1, 4, 8, 8)).astype(np.float32)))
        w = np.zeros((4, 4, 3, 3), np.float32)
        t5 = generate_transforms(2, 5, 0.5)
        with pytest.raises(ShapeMismatchError):
            conv_winograd(x, w, ConvParams.square(3, in_c=4, out_c=4), t5)

    def test_transformed_operand_mismatch(self, rng):
        # a tile-4 operand with a tile-6 transform, and operands for other
        # channel counts, are refused before any work, naming both shapes
        x = pack_nc4hw4(from_nchw(
            rng.standard_normal((1, 4, 8, 8)).astype(np.float32)))
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        p = ConvParams.square(3, pad=1, in_c=4, out_c=4)
        t6 = generate_transforms(6, 3, 0.5)
        wrong = [weight_transform(w, generate_transforms(4, 3, 0.5)),
                 weight_transform(np.zeros((8, 4, 3, 3), np.float32), t6),
                 weight_transform(np.zeros((4, 8, 3, 3), np.float32), t6)]
        for u in wrong:
            with pytest.raises(ShapeMismatchError) as err:
                conv_winograd(x, w, p, t6, transformed=u)
            assert str(u.shape) in str(err.value)
            assert str((64, 4, 4)) in str(err.value)

    def test_output_smaller_than_tile(self, rng):
        # a 3x3 output with a 4-tile: one tile, cropped to the output
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        w = (rng.standard_normal((2, 4, 3, 3)) * 0.3).astype(np.float32)
        p = ConvParams.square(3, in_c=4, out_c=2)
        want = conv2d_reference(x, w)
        got = run_winograd(x, w, p, 4)
        assert rel_err(got, want) <= 1e-3

    def test_precomputed_weights_path(self, rng):
        x = rng.standard_normal((1, 6, 10, 10)).astype(np.float32)
        w = (rng.standard_normal((6, 6, 3, 3)) * 0.3).astype(np.float32)
        p = ConvParams.square(3, pad=1, in_c=6, out_c=6)
        t = generate_transforms(2, 3, 0.5)
        u = weight_transform(w, t)
        xt = pack_nc4hw4(from_nchw(x))
        direct = conv_winograd(xt, w, p, t)
        cached = conv_winograd(xt, w, p, t, transformed=u)
        assert np.array_equal(direct.data, cached.data)


def stacked_winograd(x, u, p, t, bias=None):
    """conv_winograd as it ran before its transforms became GEMMs: Bt X B
    and At M A as stacks of alpha x alpha products on [tiles, C, alpha,
    alpha] patches, with the tensor re-laid around the channel GEMM.  The
    GEMM form must reproduce its bits."""
    n_img, _, h, wd = x.shape
    oh, ow = p.out_size(h, wd)
    obm, ibm = channel_blocks(p.out_c), channel_blocks(p.in_c)
    nh, alpha = t.n, t.alpha
    tiles_h, tiles_w = -(-oh // nh), -(-ow // nh)
    tiles = n_img * tiles_h * tiles_w
    bt = np.ascontiguousarray(t.B.T.astype(np.float32))
    bmat = t.B.astype(np.float32)
    at = np.ascontiguousarray(t.A.T.astype(np.float32))
    amat = t.A.astype(np.float32)
    xp = np.zeros((n_img, ibm, (tiles_h - 1) * nh + alpha,
                   (tiles_w - 1) * nh + alpha, LANES), dtype=np.float32)
    xp[:, :, p.pad_h:p.pad_h + h, p.pad_w:p.pad_w + wd] = x.data
    patches = np.lib.stride_tricks.sliding_window_view(
        xp, (alpha, alpha), axis=(2, 3)
    )[:, :, ::nh, ::nh].transpose(0, 2, 3, 1, 4, 5, 6).reshape(
        tiles, ibm * LANES, alpha, alpha)
    v = bt @ patches @ bmat
    v = np.ascontiguousarray(
        v.transpose(2, 3, 1, 0).reshape(alpha * alpha, ibm * LANES, tiles))
    m = np.matmul(u, v)
    m = np.ascontiguousarray(
        m.reshape(alpha, alpha, obm * LANES, tiles).transpose(3, 2, 0, 1))
    out_tiles = at @ m @ amat
    ypad = np.empty((n_img, obm, tiles_h * nh, tiles_w * nh, LANES),
                    dtype=np.float32)
    ypad.reshape(n_img, obm, tiles_h, nh, tiles_w, nh, LANES).transpose(
        0, 2, 4, 1, 6, 3, 5)[:] = out_tiles.reshape(
            n_img, tiles_h, tiles_w, obm, LANES, nh, nh)
    out = ypad[:, :, :oh, :ow].copy()
    if bias is not None:
        lanes = np.zeros(obm * LANES, dtype=np.float32)
        lanes[:p.out_c] = bias
        out += lanes.reshape(obm, 1, 1, LANES)
    if p.relu:
        np.maximum(out, 0.0, out=out)
    if p.out_c % LANES:
        out[:, -1, :, :, p.out_c % LANES:] = 0.0
    return out


def test_gemm_form_bitwise_equals_stacked_products():
    # every (k, tile) pair with alpha <= 10, both spacings, 12 convs each:
    # 1-3 images, ragged maps, any padding, with and without bias and ReLU
    rng = np.random.default_rng(7)
    combos = [(k, n, f) for k in (2, 3, 4, 5, 7) for n in (2, 4, 6)
              for f in (0.5, 1.0) if n + k - 1 <= 10]
    checked = 0
    for k, n_tile, f in combos * 12:
        t = generate_transforms(n_tile, k, f)
        in_c, out_c = (int(v) for v in rng.integers(1, 10, size=2))
        n_img = int(rng.integers(1, 4))
        h, wd = (int(v) for v in rng.integers(k, k + 12, size=2))
        p = ConvParams.square(k, pad=int(rng.integers(0, k // 2 + 1)),
                              in_c=in_c, out_c=out_c,
                              relu=bool(rng.integers(2)))
        x = pack_nc4hw4(from_nchw(
            rng.standard_normal((n_img, in_c, h, wd)).astype(np.float32)))
        w = rng.standard_normal((out_c, in_c, k, k)).astype(np.float32)
        bias = (rng.standard_normal(out_c).astype(np.float32)
                if rng.integers(2) else None)
        u = weight_transform(w, t)
        got = conv_winograd(x, w, p, t, bias=bias, transformed=u)
        want = stacked_winograd(x, u, p, t, bias=bias)
        assert np.array_equal(got.data, want), (k, n_tile, f, p, x.shape)
        checked += 1
    assert checked >= 300
