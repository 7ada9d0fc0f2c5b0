"""Tensor value type, shape arithmetic, and NCHW <-> NC4HW4 layout packing.

NC4HW4 groups channels into blocks of 4 contiguous lanes, so a row of
pixels in one block is a contiguous run of width*4 floats: the innermost
run of the kernels' whole-tensor calls.  Channel counts that are not
a multiple of 4 are padded with zero-filled lanes; the zero fill is load
bearing, because convolution and the Hadamard-as-matmul step consume packed
tensors without masking.
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


@dataclass
class Tensor:
    """A 4-d value (n, c, h, w) stored contiguously in NCHW or NC4HW4.

    ``data`` is float32: shape (n, c, h, w) for NCHW and
    (n, ceil(c/4), h, w, 4) for NC4HW4, with pad lanes zero-filled.
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
        layout's extents, and zero-filled NC4HW4 pad lanes."""
        n, c, h, w = self.shape
        if self.layout is Layout.NCHW:
            expect = (n, c, h, w)
        else:
            expect = (n, channel_blocks(c), h, w, LANES)
        if self.data.shape != expect:
            raise LayoutError(f"data shape {self.data.shape} != {expect} for {self.layout}")
        if self.layout is Layout.NC4HW4 and c % LANES:
            pad = self.data[:, -1, :, :, c % LANES:]
            if pad.size and np.any(pad):
                raise LayoutError("NC4HW4 pad lanes are not zero-filled")

    @property
    def element_count(self) -> int:
        return int(self.data.size)


def zeros(shape: tuple[int, int, int, int], layout: Layout = Layout.NCHW) -> Tensor:
    n, c, h, w = shape
    if layout is Layout.NCHW:
        data = np.zeros((n, c, h, w), dtype=np.float32)
    else:
        data = np.zeros((n, channel_blocks(c), h, w, LANES), dtype=np.float32)
    return Tensor(shape=(n, c, h, w), layout=layout, data=data)


def from_nchw(array: np.ndarray) -> Tensor:
    arr = np.ascontiguousarray(array, dtype=np.float32)
    if arr.ndim != 4:
        raise LayoutError(f"expected 4-d array, got shape {arr.shape}")
    return Tensor(shape=tuple(arr.shape), layout=Layout.NCHW, data=arr)


def pack_nc4hw4(t: Tensor) -> Tensor:
    """Split the channel axis into ceil(c/4) blocks of 4 contiguous lanes.

    Channels beyond c land in zero pad lanes; any channel count is accepted.
    """
    if t.layout is not Layout.NCHW:
        raise LayoutError("pack_nc4hw4 expects an NCHW tensor")
    n, c, h, w = t.shape
    blocks = channel_blocks(c)
    padded = np.zeros((n, blocks * LANES, h, w), dtype=np.float32)
    padded[:, :c] = t.data
    data = np.ascontiguousarray(
        padded.reshape(n, blocks, LANES, h, w).transpose(0, 1, 3, 4, 2)
    )
    return Tensor(shape=(n, c, h, w), layout=Layout.NC4HW4, data=data)


def unpack_nc4hw4(t: Tensor, original_c: int | None = None) -> Tensor:
    """Inverse of pack_nc4hw4; drops the pad lanes."""
    if t.layout is not Layout.NC4HW4:
        raise LayoutError("unpack_nc4hw4 expects an NC4HW4 tensor")
    n, c, h, w = t.shape
    if original_c is None:
        original_c = c
    blocks = t.data.shape[1]
    if original_c > blocks * LANES:
        raise LayoutError(
            f"original_c={original_c} exceeds packed capacity {blocks * LANES}"
        )
    full = t.data.transpose(0, 1, 4, 2, 3).reshape(n, blocks * LANES, h, w)
    data = np.ascontiguousarray(full[:, :original_c])
    return Tensor(shape=(n, original_c, h, w), layout=Layout.NCHW, data=data)
