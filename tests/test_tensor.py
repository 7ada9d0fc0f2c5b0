import numpy as np
import pytest

from nanoinfer.errors import LayoutError
from nanoinfer.tensor import (
    LANES, Shape, channel_blocks, from_nchw, pack_nc4hw4, unpack_nc4hw4,
    zeros,
)


def test_pack_exact_multiple_is_verbatim():
    t = from_nchw(np.array([1, 2, 3, 4], dtype=np.float32).reshape(1, 4, 1, 1))
    packed = pack_nc4hw4(t)
    assert packed.data.shape == (1, 1, 1, 1, 4)
    assert packed.data.reshape(-1).tolist() == [1, 2, 3, 4]
    packed.validate()


def test_pack_six_channels_pads_second_block():
    # index map c -> (c // 4, c % 4): block 1 holds channels 4, 5 then zeros
    x = np.arange(6, dtype=np.float32).reshape(1, 6, 1, 1)
    packed = pack_nc4hw4(from_nchw(x))
    assert packed.data.shape == (1, 2, 1, 1, 4)
    assert packed.data[0, 0, 0, 0].tolist() == [0, 1, 2, 3]
    assert packed.data[0, 1, 0, 0].tolist() == [4, 5, 0, 0]


def test_pack_zero_channels():
    packed = pack_nc4hw4(zeros((2, 0, 3, 3)))
    assert packed.data.shape == (2, 0, 3, 3, 4)
    assert packed.element_count == 0


def test_pack_spatial_index_map():
    x = np.arange(2 * 5 * 2 * 3, dtype=np.float32).reshape(2, 5, 2, 3)
    packed = pack_nc4hw4(from_nchw(x))
    for c in (0, 3, 4):
        assert np.array_equal(packed.data[:, c // 4, :, :, c % 4], x[:, c])


def test_unpack_recovers_five_channels():
    x = np.arange(5 * 4, dtype=np.float32).reshape(1, 5, 2, 2)
    t = pack_nc4hw4(from_nchw(x))
    back = unpack_nc4hw4(t)
    assert np.array_equal(back.data, x)


def test_roundtrip_property(rng):
    for _ in range(60):
        n = int(rng.integers(0, 3))
        c = int(rng.integers(0, 65))
        h = int(rng.integers(0, 33))
        w = int(rng.integers(0, 33))
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        t = from_nchw(x)
        packed = pack_nc4hw4(t)
        assert packed.element_count == n * channel_blocks(c) * h * w * LANES
        packed.validate()
        back = unpack_nc4hw4(packed)
        assert np.array_equal(back.data, x)


def test_shape_type():
    s = Shape((1, 2, 3, 4))
    assert s.element_count == 24
    assert Shape(()).element_count == 1
    with pytest.raises(LayoutError):
        Shape((1, 2, 3, 4, 5))
    with pytest.raises(LayoutError):
        Shape((-1, 2))


def test_validate_rejects_dirty_pad_lanes():
    t = pack_nc4hw4(zeros((1, 5, 1, 1)))
    t.data[0, 1, 0, 0, 3] = 1.0  # poke a pad lane
    with pytest.raises(LayoutError):
        t.validate()


def test_layout_guards():
    with pytest.raises(LayoutError):
        pack_nc4hw4(pack_nc4hw4(zeros((1, 4, 1, 1))))
    with pytest.raises(LayoutError):
        unpack_nc4hw4(zeros((1, 4, 1, 1)))
    with pytest.raises(LayoutError):
        from_nchw(np.zeros((2, 2)))
