import numpy as np
import pytest

from conftest import conv2d_reference, rel_err, valid_corr2d
from nanoinfer.errors import ShapeMismatchError, UnsupportedSizeError
from nanoinfer.kernels import ConvParams, conv_sliding
from nanoinfer.tensor import channel_blocks, from_nchw, pack_nc4hw4, unpack_nc4hw4
from nanoinfer.winograd import (
    WeightCache, choose_tile, conv_winograd, generate_transforms,
    make_tile_schedule, tile_arithmetic_cost, weight_transform,
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

    def test_memoized(self):
        assert generate_transforms(2, 3, 0.5) is generate_transforms(2, 3, 0.5)


class TestChooseTile:
    def test_k3_wide_channels(self):
        # per-pixel costs at k=3, c=64: C(2)/4 = 18444, C(4)/16, C(6)/36
        assert tile_arithmetic_cost(2, 3, 64, 64) == 73_776
        n_hat = choose_tile(3, 64, 64, 112, 112)
        assert n_hat in (4, 6)
        per_pixel = {n: tile_arithmetic_cost(n, 3, 64, 64) / n ** 2
                     for n in (1, 2, 4, 6)}
        assert per_pixel[n_hat] == min(per_pixel.values())

    def test_k2_tiny_channels(self):
        # C(1) = 26 vs C(2) = 93: per-pixel 26 vs 23.25
        assert tile_arithmetic_cost(1, 2, 1, 1) == 26
        assert tile_arithmetic_cost(2, 2, 1, 1) == 93
        assert choose_tile(2, 1, 1, 8, 8) == 2

    def test_zero_input_channels_still_defined(self):
        n_hat = choose_tile(2, 0, 1, 8, 8)
        assert n_hat == 1  # only the output-transform term remains

    def test_brute_force_argmin(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 8))
            ic = int(rng.integers(0, 65))
            oc = int(rng.integers(1, 65))
            n_hat = choose_tile(k, ic, oc, 32, 32)
            cands = [n for n in (1, 2, 4, 6) if n + k - 1 <= 10]
            best = min(cands,
                       key=lambda n: (tile_arithmetic_cost(n, k, ic, oc) / n ** 2, n))
            assert n_hat == best


class TestTileSchedule:
    def test_multiplier(self):
        s = make_tile_schedule(2, 1, 14, 14)
        assert s.T == (14 * 14) // 4
        assert len(s.tiles) == 49

    def test_ragged_edges_enumerated(self):
        s = make_tile_schedule(4, 2, 9, 6)
        assert len(s.tiles) == 2 * 3 * 2
        assert s.T == (9 * 6) // 16


class TestWeightTransform:
    def test_packed_shape(self, rng):
        t = generate_transforms(2, 3, 0.5)
        w = rng.standard_normal((6, 9, 3, 3)).astype(np.float32)
        u = weight_transform(w, t)
        assert u.shape == (16, channel_blocks(6), channel_blocks(9), 4, 4)

    def test_values_match_direct_gwgt(self, rng):
        t = generate_transforms(2, 3, 0.5)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        u = weight_transform(w, t)
        g = t.G.astype(np.float32)
        direct = g @ w[1, 0] @ g.T
        assert np.allclose(u[:, 0, 0, 1, 0].reshape(4, 4), direct, atol=1e-6)

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


def run_winograd(x, w, p, n_tile, threads=1, bias=None, f=0.5):
    t = generate_transforms(n_tile, p.kh, f)
    y = conv_winograd(pack_nc4hw4(from_nchw(x)), w, p, t, threads=threads,
                      bias=bias)
    return unpack_nc4hw4(y, p.out_c).data


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
                want = unpack_nc4hw4(conv_sliding(xt, w, p), 3).data
                got = run_winograd(x, w, p, n_tile)
                assert rel_err(got, want) <= 1e-3, (k, n_tile)

    def test_several_images_match_reference(self, rng):
        # batches of T tiles run across image boundaries of the tile-major
        # patch array; 13x10 leaves ragged edge tiles for every tile size
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
        out = unpack_nc4hw4(y, 2).data
        assert out.shape == (2, 2, 7, 5)
        assert np.all(out[:, 0] == 0.5)
        assert np.all(out[:, 1] == 0.0)  # relu clamps the negative bias
        assert np.all(y.data[:, :, :, :, 2:] == 0)

    def test_bitwise_stable_under_threads(self, rng):
        x = rng.standard_normal((1, 8, 20, 20)).astype(np.float32)
        w = (rng.standard_normal((8, 8, 3, 3)) * 0.3).astype(np.float32)
        p = ConvParams.square(3, pad=1, in_c=8, out_c=8)
        base = run_winograd(x, w, p, 2, threads=1)
        for threads in (2, 4):
            assert np.array_equal(run_winograd(x, w, p, 2, threads=threads), base)
        # repeatability: the batch partition is fixed by the schedule
        assert np.array_equal(run_winograd(x, w, p, 2, threads=1), base)

    def test_rebatching_agrees_to_tolerance(self, rng, monkeypatch):
        # a different tile partition re-blocks the BLAS reduction, which may
        # flip last-ulp bits; values must still agree tightly
        x = rng.standard_normal((1, 8, 20, 20)).astype(np.float32)
        w = (rng.standard_normal((8, 8, 3, 3)) * 0.3).astype(np.float32)
        p = ConvParams.square(3, pad=1, in_c=8, out_c=8)
        base = run_winograd(x, w, p, 2, threads=1)
        import nanoinfer.winograd as wmod
        original = wmod.make_tile_schedule

        def tiny_batches(n_hat, batch, out_h, out_w):
            sched = original(n_hat, batch, out_h, out_w)
            return wmod.TileSchedule(n_hat=sched.n_hat, T=1, tiles=sched.tiles)

        monkeypatch.setattr(wmod, "make_tile_schedule", tiny_batches)
        rebatched = run_winograd(x, w, p, 2, threads=1)
        assert rel_err(rebatched, base) <= 1e-5

    def test_transform_kernel_mismatch(self, rng):
        x = pack_nc4hw4(from_nchw(rng.standard_normal((1, 4, 8, 8)).astype(np.float32)))
        w = np.zeros((4, 4, 3, 3), np.float32)
        t5 = generate_transforms(2, 5, 0.5)
        with pytest.raises(ShapeMismatchError):
            conv_winograd(x, w, ConvParams.square(3, in_c=4, out_c=4), t5)

    def test_output_smaller_than_tile(self, rng):
        # 3x3 output with a 4-tile: T floors to zero, batch clamps to one
        s = make_tile_schedule(4, 1, 3, 3)
        assert s.T == 0 and len(s.tiles) == 1
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
