"""Tensor value type, shape arithmetic, and layout re-laying.

Three layouts, all float32 and contiguous:

- NCHW, the boundary format models and callers hand in and get back;
- NC4HW4, the paper's: channels grouped into blocks of 4 contiguous lanes,
  data [n, ceil(c/4), h, w, 4], so a row of one block is w*4 floats;
- NHWC4, the one activations are stored in: data [n, h, w, ceil(c/4)*4],
  so a pixel's channels are contiguous and a map is a [pixels, lanes]
  matrix a GEMM reads as it lies, and a row is w*lanes floats.

The two packed layouts hold the same bytes.  Channel counts that are not a
multiple of 4 are padded with zero-filled lanes; the zero fill is load
bearing, because convolution and MatMul consume packed tensors without
masking.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import LayoutError

LANES = 4  # packing width of the channel dimension


class Layout(Enum):
    NCHW = "NCHW"
    NC4HW4 = "NC4HW4"
    NHWC4 = "NHWC4"


@dataclass(frozen=True)
class Shape:
    """Concrete tensor extents (rank <= 4, all non-negative)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) > 4:
            raise LayoutError(f"rank {len(self.dims)} exceeds 4")
        if any(d < 0 for d in self.dims):
            raise LayoutError(f"negative extent in {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def element_count(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def __iter__(self):
        return iter(self.dims)


def channel_blocks(c: int) -> int:
    """Number of 4-lane blocks needed to hold c channels."""
    return (c + LANES - 1) // LANES


def data_shape(shape: tuple[int, int, int, int],
               layout: Layout) -> tuple[int, ...]:
    """Extents of the data array of an (n, c, h, w) tensor in a layout."""
    n, c, h, w = shape
    if layout is Layout.NCHW:
        return (n, c, h, w)
    if layout is Layout.NC4HW4:
        return (n, channel_blocks(c), h, w, LANES)
    return (n, h, w, channel_blocks(c) * LANES)


@dataclass
class Tensor:
    """A 4-d value (n, c, h, w) stored contiguously in one of the layouts.

    ``data`` is float32 of data_shape(shape, layout), pad lanes zero-filled.
    """

    shape: tuple[int, int, int, int]
    layout: Layout
    data: np.ndarray

    def validate(self) -> None:
        if self.data.dtype != np.float32:
            raise LayoutError(f"dtype {self.data.dtype} is not float32")
        self.validate_layout()

    def validate_layout(self) -> None:
        """Check data against shape and layout, whatever its dtype: the
        layout's extents, and zero-filled pad lanes."""
        c = self.shape[1]
        expect = data_shape(self.shape, self.layout)
        if self.data.shape != expect:
            raise LayoutError(f"data shape {self.data.shape} != {expect} for {self.layout}")
        if self.layout is not Layout.NCHW and c % LANES:
            pad = _blocks(self)[:, -1, :, :, c % LANES:]
            if pad.size and np.any(pad):
                raise LayoutError(f"{self.layout.value} pad lanes are not zero-filled")

    @property
    def element_count(self) -> int:
        return int(self.data.size)


def zeros(shape: tuple[int, int, int, int], layout: Layout = Layout.NCHW) -> Tensor:
    data = np.zeros(data_shape(shape, layout), dtype=np.float32)
    return Tensor(shape=tuple(shape), layout=layout, data=data)


def from_nchw(array: np.ndarray) -> Tensor:
    arr = np.ascontiguousarray(array, dtype=np.float32)
    if arr.ndim != 4:
        raise LayoutError(f"expected 4-d array, got shape {arr.shape}")
    return Tensor(shape=tuple(arr.shape), layout=Layout.NCHW, data=arr)


def _blocks(t: Tensor) -> np.ndarray:
    """A packed tensor's data seen as [n, blocks, h, w, lanes]: NC4HW4's
    own array, a strided view of NHWC4's."""
    if t.layout is Layout.NC4HW4:
        return t.data
    n, c, h, w = t.shape
    return t.data.reshape(n, h, w, channel_blocks(c), LANES).transpose(
        0, 3, 1, 2, 4)


def relayout(t: Tensor, layout: Layout, out: np.ndarray | None = None) -> Tensor:
    """t's values in another layout (or a float32 copy in its own).

    The result is written into ``out``, a float32 array of the layout's
    data shape, when given (every element, pad lanes included), else into a
    new one.  Any source dtype is cast.
    """
    n, c, h, w = t.shape
    expect = data_shape(t.shape, layout)
    if out is None:
        out = np.empty(expect, dtype=np.float32)
    elif out.shape != expect or out.dtype != np.float32:
        raise LayoutError(f"output {out.dtype} {out.shape} != float32 {expect}")
    y = Tensor(shape=(n, c, h, w), layout=layout, data=out)
    if layout is Layout.NCHW:
        if t.layout is Layout.NCHW:
            out[:] = t.data
        else:
            # [n, blocks, lanes, h, w]: the reshape is a view for NHWC4
            lanes = _blocks(t).transpose(0, 1, 4, 2, 3)
            out[:] = lanes.reshape(n, channel_blocks(c) * LANES, h, w)[:, :c]
        return y
    dst = _blocks(y)
    if t.layout is not Layout.NCHW:
        dst[:] = _blocks(t)
        return y
    full, rest = divmod(c, LANES)
    dst[:, :full] = t.data[:, :full * LANES].reshape(
        n, full, LANES, h, w).transpose(0, 1, 3, 4, 2)
    if rest:
        dst[:, full, :, :, :rest] = t.data[:, full * LANES:].transpose(0, 2, 3, 1)
        dst[:, full, :, :, rest:] = 0.0
    return y


def pack_nc4hw4(t: Tensor) -> Tensor:
    """Split the channel axis into ceil(c/4) blocks of 4 contiguous lanes.

    Channels beyond c land in zero pad lanes; any channel count is accepted.
    """
    if t.layout is not Layout.NCHW:
        raise LayoutError("pack_nc4hw4 expects an NCHW tensor")
    return relayout(t, Layout.NC4HW4)


def unpack_nc4hw4(t: Tensor) -> Tensor:
    """Inverse of pack_nc4hw4; drops the pad lanes."""
    if t.layout is not Layout.NC4HW4:
        raise LayoutError("unpack_nc4hw4 expects an NC4HW4 tensor")
    return relayout(t, Layout.NCHW)
