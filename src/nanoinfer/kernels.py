"""Compute kernels: sliding-window convolution, pooling and direct/Strassen
matmul.

Convolutions read and write lane-padded NHWC data (tensor.Layout.NHWC4):
a map is a [pixels, lanes] matrix a GEMM reads as it lies, and a pixel row
is one contiguous run of w*lanes floats.  Every windowed kernel pads its
input through one function, border (a pool with its own fill), which also
fills one range of the bordered map's rows into a buffer the caller
supplies, and the conv kernels read their windows through one strided view
of it, windows.  Every sliding-window conv, dense, grouped or depthwise at
any stride, is one walk of its output in slabs of rows (slab_rows,
sliding_nhwc4): each slab's bordered input rows go into one buffer of at
most BAND_FLOATS floats, reused slab after slab, or are the whole bordered
map when it fits (the input itself at pad 0).  Per slab and image a
depthwise conv is one einsum of the slab's windows against the taps'
weights, straight into the output rows.  A dense conv is one GEMM per band
of output rows, of the band's windows [pixels, kh*kw*in lanes], copied out
of the slab into a window matrix of at most BAND_FLOATS floats, against
every output lane at once; it writes the band's output rows itself, and a
slab holds whole bands.  A pointwise conv (ConvParams.pointwise: 1x1,
stride 1, pad 0, not depthwise) is one GEMM on the input as it lies.  A
grouped conv is a dense one whose operand is block diagonal, one block per
group.  Both conv schemes read one operand packed once (ConvWeights: the
GEMM operand or depthwise taps, the bias and ReLU maps, Winograd's
transform) and end in one epilogue, bias_relu, per image.  A conv may
carry the node that solely reads its output where fold_refusal allows,
and writes that node's output through a scratch the caller supplies
(fold_scratch_floats): a pointwise conv a max pool, one GEMM per pool tap
(_pointwise_max_pool); a conv with a window matrix a residual Add and the
ReLU after it, whose other operand its output array holds and into whose
rows its band loop adds each chunk of bands (sliding_nhwc4).  Pools run
pool_nhwc4.
conv_sliding and conv_winograd also take and return the paper's NC4HW4,
re-laid around the same kernel (run_nhwc4).
Kernels run on the calling thread; the only parallelism is the BLAS
library's own threading inside each GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatchError
from .tensor import LANES, Layout, Tensor, channel_blocks, data_shape, relayout

if TYPE_CHECKING:
    from .winograd import WinogradTransform

@dataclass(frozen=True)
class MatDims:
    """Dimensions of a product [n, k] x [k, m] -> [n, m]."""

    n: int
    k: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.k < 0 or self.m < 0:
            raise ShapeMismatchError(f"negative matrix dims {self}")


@dataclass(frozen=True)
class ConvParams:
    """A conv's or a pool's window (graph.OpNode.params); kernel/stride/pad
    are (height, width) pairs."""

    kh: int
    kw: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0
    in_c: int = 1
    out_c: int = 1
    group: int = 1
    relu: bool = False

    def __post_init__(self):
        if self.kh < 1 or self.kw < 1:
            raise ShapeMismatchError("kernel size must be >= 1")
        if self.stride_h < 1 or self.stride_w < 1:
            raise ShapeMismatchError("stride must be >= 1")
        if self.pad_h < 0 or self.pad_w < 0:
            raise ShapeMismatchError("pad must be >= 0")
        if self.group < 1 or self.in_c % self.group or self.out_c % self.group:
            raise ShapeMismatchError(
                f"group={self.group} does not divide channels "
                f"({self.in_c}, {self.out_c})"
            )

    @classmethod
    def square(cls, k: int, stride: int = 1, pad: int = 0, in_c: int = 1,
               out_c: int = 1, group: int = 1, relu: bool = False) -> "ConvParams":
        return cls(k, k, stride, stride, pad, pad, in_c, out_c, group, relu)

    @property
    def depthwise(self) -> bool:
        """One input and one output channel per group, more than one group."""
        return 1 < self.group == self.in_c == self.out_c

    @property
    def pointwise(self) -> bool:
        """A 1x1 conv at stride 1 and pad 0, not depthwise: its input as it
        lies is its window matrix."""
        return ((self.kh, self.kw, self.stride_h, self.stride_w, self.pad_h,
                 self.pad_w) == (1, 1, 1, 1, 0, 0) and not self.depthwise)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        """Output extents; a window beyond the padded input is an error."""
        if h + 2 * self.pad_h < self.kh or w + 2 * self.pad_w < self.kw:
            raise ShapeMismatchError(
                f"{self.kh}x{self.kw} window exceeds its padded "
                f"{h + 2 * self.pad_h}x{w + 2 * self.pad_w} input")
        return ((h + 2 * self.pad_h - self.kh) // self.stride_h + 1,
                (w + 2 * self.pad_w - self.kw) // self.stride_w + 1)


def matmul_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain product in float32 with fixed summation order over k."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    return np.matmul(a.astype(np.float32, copy=False),
                     b.astype(np.float32, copy=False))


ADD_COST = 95
"""Cost of one counted Strassen addition, in units of one BLAS multiply.

The count rule weighs an addition like a multiply (weight 1).  Under a BLAS
GEMM it is far dearer: an addition is a memory-bound NumPy pass over a
quadrant, a multiply one FMA inside a cache-blocked kernel.  95 is the
median of 18 measurements over six shapes (44-162) by `tools/calibrate.py
add-cost`: a one-level matmul_strassen less its seven batched half-size
products, per counted addition, over matmul_direct's time per multiply, on
a 2-core x86-64 VM, OpenBLAS 0.3.31 (Haswell kernels), one BLAS thread.
Under it no shape up to about 2,850^3 takes a level, and at the shapes
beyond, where it takes one, one level ran 1.01-1.25x slower than direct.
So the engine's MatMul steps call matmul_direct, and this weight only sets
the depth of matmul_strassen called directly.  Recalibrate on other
hardware with that script.
"""

SMALL_PRODUCT_COST = 4500
MOVE_COST = 19
SHUFFLE_COST = 170
CALL_COST = 82000
"""Weights of the conv cost model, KernelWork.cost, in BLAS multiplies.

preinference.scheme_work counts, from each conv kernel's code, its GEMM
multiplies (channels padded to whole 4-lane blocks), Winograd's small
transform products, the elements its streaming passes write (fills, copies,
element-wise ops), the elements it re-lays out in runs of a few floats
(Winograd's patches and tiles), and its NumPy calls.
`tools/calibrate.py weights` times every scheme of a set of convs as a step
of a running session and fits the five per-unit times by least squares on
the relative error.  The constants are the middle of three fits on 58 convs
(the presets' and 31 synthetic ones of 3-64 channels on 8-64 px maps; 2-vCPU
x86-64 VM, OpenBLAS 0.3.31, one thread, 21 runs per scheme), rounded: at its
15 ps per multiply a small product takes 68 ns, a streamed element 0.29 ns,
a re-laid one 2.6 ns and a call 1.2 us.  Four kinds are too few: with
re-laid elements counted as streamed ones, a fit to the same timings
planned winograd6 for a conv that sliding window runs faster.  Under these
constants `tools/calibrate.py rank` (one thread, 15 rounds) finds 27 of 27
preset convs within the margin.  Recount with `rank` after a kernel change,
and recalibrate on other hardware with `weights`.
"""

BAND_FLOATS = 32768
"""Most floats in one slab of a sliding-window conv's bordered input rows,
and in the window matrix of one band of a dense conv (128 KiB each).

A band is the most output rows whose window matrix fits, at least one; a
padded conv, dense or depthwise at any stride, takes the fewest slabs whose
rows fit (a whole number of bands each, at least one), spread evenly.
Both depend on the conv's geometry only, so a step gives the same bits
however it is called, and a depthwise conv's bits do not depend on its
slabs at all.  The size is measured as per-step medians (run_timed) of the
dense steps of the resnet-mini topology in one running session, the sizes
alternating in rounds (2-vCPU x86-64 VM, 48 KiB L1d and 2 MiB L2 per core,
OpenBLAS 0.3.31, one thread): at 16,384, 32,768, 65,536 floats and a whole
map per band they summed 2.40, 1.93, 2.08 and 2.10 ms at 64x64 input and
0.61, 0.57, 0.57 and 0.56 ms at 32x32.  Re-measure on other hardware the
same way, with this constant set for each size.
"""


@dataclass(frozen=True)
class KernelWork:
    """The work one convolution kernel does, by kind."""

    gemm: int = 0  # multiplies inside BLAS products
    small: int = 0  # Winograd alpha x alpha products, in GEMMs with K = alpha
    moved: int = 0  # elements written by fills, copies and element-wise passes
    shuffled: int = 0  # floats re-laid in runs of a few (Winograd's tiles)
    calls: int = 0  # NumPy calls, each with the Python around it

    def cost(self) -> float:
        """The work in BLAS multiplies, under the calibrated weights."""
        return (self.gemm + SMALL_PRODUCT_COST * self.small
                + MOVE_COST * self.moved + SHUFFLE_COST * self.shuffled
                + CALL_COST * self.calls)


def strassen_should_recurse(d: MatDims, add_cost: float = 1) -> bool:
    """True when one Strassen split saves more than it adds.

    Saved multiplies: m*n*k - 7*(m/2)(n/2)(k/2).  Extra additions: 4 of
    [m/2, k/2], 4 of [n/2, k/2], 7 of [m/2, n/2].  Odd extents are padded
    to the next even size before halving, matching what the split does.
    Each addition weighs `add_cost` multiplies; the default of 1 is the
    plain count rule, the engine itself uses ADD_COST.
    """
    return _split_pays(d.n, d.k, d.m, add_cost)


def _split_pays(n: int, k: int, m: int, add_cost: float) -> bool:
    """strassen_should_recurse on plain extents."""
    if min(n, k, m) == 0:
        return False
    n2, k2, m2 = (n + 1) // 2, (k + 1) // 2, (m + 1) // 2
    saved = (2 * n2) * (2 * k2) * (2 * m2) - 7 * n2 * k2 * m2
    return saved > add_cost * _split_additions(n2, k2, m2)


def _split_additions(n2: int, k2: int, m2: int) -> int:
    """Counted additions of one Strassen split into n2 x k2 x m2 halves."""
    return 4 * m2 * k2 + 4 * n2 * k2 + 7 * m2 * n2


def strassen_recursion_depth(d: MatDims, add_cost: float = 1) -> int:
    """Number of split levels the cutoff rule allows, iterated on halves."""
    depth = 0
    n, k, m = d.n, d.k, d.m
    while _split_pays(n, k, m, add_cost):
        n, k, m = (n + 1) // 2, (k + 1) // 2, (m + 1) // 2
        depth += 1
    return depth


def _strassen_level_dims(d: MatDims) -> list[tuple[int, int, int]]:
    dims = [(d.n, d.k, d.m)]
    for _ in range(strassen_recursion_depth(d, ADD_COST)):
        n, k, m = dims[-1]
        dims.append(((n + 1) // 2, (k + 1) // 2, (m + 1) // 2))
    return dims


def strassen_scratch_elems(d: MatDims) -> int:
    """float32 elements of working memory matmul_strassen needs for d."""
    dims = _strassen_level_dims(d)
    total = 0
    for lvl in range(1, len(dims)):
        n, k, m = dims[lvl]
        total += 7 ** lvl * (n * k + k * m + n * m)
    return total


class Arena:
    """Bump allocator carving float32 views out of one flat buffer."""

    def __init__(self, buf: np.ndarray | None):
        self.buf = buf
        self.offset = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        count = int(np.prod(shape)) if shape else 1
        if self.buf is None:
            return np.empty(shape, dtype=np.float32)
        view = self.buf[self.offset:self.offset + count]
        if view.size < count:
            raise ShapeMismatchError(
                f"scratch arena exhausted: need {count}, have {view.size}"
            )
        self.offset += count
        return view.reshape(shape)


def _quad(stack: np.ndarray, qi: int, qj: int, r1: int, c1: int,
          out: np.ndarray) -> np.ndarray:
    """Zero-padded quadrant (qi, qj) of every matrix in the stack."""
    rows, cols = stack.shape[1], stack.shape[2]
    rs, cs = qi * r1, qj * c1
    re, ce = min(rows, rs + r1), min(cols, cs + c1)
    if re - rs == r1 and ce - cs == c1:
        return stack[:, rs:re, cs:ce]
    out[:] = 0.0
    out[:, :re - rs, :ce - cs] = stack[:, rs:re, cs:ce]
    return out


def matmul_strassen(a: np.ndarray, b: np.ndarray,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """Strassen product; recurses as deep as the rule weighted by ADD_COST.

    That is the depth strassen_scratch_elems sizes `scratch` for; without
    it the level stacks come from the heap.  At depth 0 the product is
    exactly matmul_direct.

    The 7-product recursion tree is evaluated level-synchronously: each
    level expands a stack of operand pairs (odd extents zero-padded to
    even), the leaf level multiplies the whole stack at once, and the
    combine sweep folds product stacks back up.  Leaves use matmul_direct.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    if not _split_pays(a.shape[0], a.shape[1], b.shape[1], ADD_COST):
        return matmul_direct(a, b)
    dims = _strassen_level_dims(MatDims(a.shape[0], a.shape[1], b.shape[1]))
    depth = len(dims) - 1

    a = a.astype(np.float32, copy=False)
    b = b.astype(np.float32, copy=False)
    arena = Arena(scratch)
    stacks_a = [a[None]]
    stacks_b = [b[None]]
    prods = [None]
    for lvl in range(1, depth + 1):
        n, k, m = dims[lvl]
        count = 7 ** lvl
        stacks_a.append(arena.take((count, n, k)))
        stacks_b.append(arena.take((count, k, m)))
        prods.append(arena.take((count, n, m)))

    # down sweep: expand operand combinations level by level
    for lvl in range(depth):
        n1, k1, m1 = dims[lvl + 1]
        cur_a, cur_b = stacks_a[lvl], stacks_b[lvl]
        nxt_a, nxt_b = stacks_a[lvl + 1], stacks_b[lvl + 1]
        batch = cur_a.shape[0]
        qa = np.empty((batch, n1, k1), dtype=np.float32)
        qb = np.empty((batch, n1, k1), dtype=np.float32)
        qc = np.empty((batch, k1, m1), dtype=np.float32)
        qd = np.empty((batch, k1, m1), dtype=np.float32)

        def quad_a(i, j, buf):
            return _quad(cur_a, i, j, n1, k1, buf)

        def quad_b(i, j, buf):
            return _quad(cur_b, i, j, k1, m1, buf)

        def seg(stack, idx):
            return stack[idx * batch:(idx + 1) * batch]

        np.add(quad_a(0, 0, qa), quad_a(1, 1, qb), out=seg(nxt_a, 0))
        np.add(quad_a(1, 0, qa), quad_a(1, 1, qb), out=seg(nxt_a, 1))
        seg(nxt_a, 2)[:] = quad_a(0, 0, qa)
        seg(nxt_a, 3)[:] = quad_a(1, 1, qa)
        np.add(quad_a(0, 0, qa), quad_a(0, 1, qb), out=seg(nxt_a, 4))
        np.subtract(quad_a(1, 0, qa), quad_a(0, 0, qb), out=seg(nxt_a, 5))
        np.subtract(quad_a(0, 1, qa), quad_a(1, 1, qb), out=seg(nxt_a, 6))

        np.add(quad_b(0, 0, qc), quad_b(1, 1, qd), out=seg(nxt_b, 0))
        seg(nxt_b, 1)[:] = quad_b(0, 0, qc)
        np.subtract(quad_b(0, 1, qc), quad_b(1, 1, qd), out=seg(nxt_b, 2))
        np.subtract(quad_b(1, 0, qc), quad_b(0, 0, qd), out=seg(nxt_b, 3))
        seg(nxt_b, 4)[:] = quad_b(1, 1, qc)
        np.add(quad_b(0, 0, qc), quad_b(0, 1, qd), out=seg(nxt_b, 5))
        np.add(quad_b(1, 0, qc), quad_b(1, 1, qd), out=seg(nxt_b, 6))

    # leaf products for the whole deepest stack at once
    np.matmul(stacks_a[depth], stacks_b[depth], out=prods[depth])

    # up sweep: fold 7 child products into each parent product
    for lvl in range(depth, 0, -1):
        n1, k1, m1 = dims[lvl]
        n0, _, m0 = dims[lvl - 1]
        child = prods[lvl]
        batch = child.shape[0] // 7
        m1_, m2_, m3_, m4_, m5_, m6_, m7_ = (
            child[i * batch:(i + 1) * batch] for i in range(7)
        )
        if lvl > 1:
            parent = prods[lvl - 1]
        else:
            parent = np.empty((1, n0, m0), dtype=np.float32)
        tl = m1_ + m4_ - m5_ + m7_
        tr = m3_ + m5_
        bl = m2_ + m4_
        br = m1_ - m2_ + m3_ + m6_
        parent[:, :n1, :m1] = tl[:, :, :]
        parent[:, :n1, m1:] = tr[:, :, :m0 - m1]
        parent[:, n1:, :m1] = bl[:, :n0 - n1, :]
        parent[:, n1:, m1:] = br[:, :n0 - n1, :m0 - m1]
    return np.ascontiguousarray(parent[0])


def pack_matmul_rows(w: np.ndarray, c: int, h: int, wd: int) -> np.ndarray:
    """MatMul weights [c*h*wd, out] -> [h*wd*blocks*4, out] in the row order
    of a flattened NHWC4 image of c x h x wd, with zero rows at its pad
    lanes, so the product reads the packed input as it is."""
    lanes = channel_blocks(c) * LANES
    rows = np.zeros((h, wd, lanes, w.shape[1]), dtype=np.float32)
    rows[:, :, :c] = w.astype(np.float32).reshape(c, h, wd, -1).transpose(
        1, 2, 0, 3)
    return rows.reshape(h * wd * lanes, -1)


def _pack_weight_columns(w: np.ndarray, p: ConvParams) -> np.ndarray:
    """[out_c, in_c/group, kh, kw] -> [kh*kw, in lanes, out lanes], block
    diagonal: group g's weights fill its own rows and columns, the rest is
    zero, so a grouped conv runs the dense kernel (one block if dense).
    Read as [kh*kw*in lanes, out lanes], it is the dense GEMM's operand."""
    icg, ocg = p.in_c // p.group, p.out_c // p.group
    taps = p.kh * p.kw
    packed = np.zeros((taps, channel_blocks(p.in_c) * LANES,
                       channel_blocks(p.out_c) * LANES), dtype=np.float32)
    cols = w.astype(np.float32).transpose(2, 3, 1, 0).reshape(
        taps, icg, p.out_c)
    for g in range(p.group):
        packed[:, g * icg:(g + 1) * icg, g * ocg:(g + 1) * ocg] = (
            cols[:, :, g * ocg:(g + 1) * ocg])
    return packed


def _pack_depthwise_rows(w: np.ndarray, p: ConvParams, ow: int) -> np.ndarray:
    """[c, 1, kh, kw] -> [kh, kw, ow, lanes]: each tap's weights repeated
    along one output row of ow pixels, so each tap multiplies runs of
    ow*lanes contiguous floats, not lanes."""
    c = p.in_c
    taps = np.zeros((p.kh, p.kw, channel_blocks(c) * LANES), dtype=np.float32)
    taps[:, :, :c] = w.astype(np.float32).reshape(c, p.kh, p.kw).transpose(
        1, 2, 0)
    return np.ascontiguousarray(np.broadcast_to(
        taps[:, :, None], (p.kh, p.kw, ow, taps.shape[2])))


def _padded_bias(bias: np.ndarray | None, out_c: int) -> np.ndarray | None:
    if bias is None:
        return None
    full = np.zeros(channel_blocks(out_c) * LANES, dtype=np.float32)
    full[:out_c] = bias.astype(np.float32).reshape(-1)
    return full


def zero_map(floats: int) -> np.ndarray:
    """A read-only buffer of `floats` zeros: ReLU convs read prefix views
    of one such buffer (pack_conv)."""
    zeros = np.zeros(floats, dtype=np.float32)
    zeros.flags.writeable = False
    return zeros


@dataclass(frozen=True)
class ConvWeights:
    """The operand a conv kernel reads, packed once, for either scheme.

    ``mats`` is the GEMM operand: sliding window's [kh, kw, ow, in lanes]
    for a depthwise conv at any stride (each tap's weights repeated over
    one output row of ow pixels, the einsum's second operand), else [kh*kw,
    in lanes, out lanes], block diagonal over a grouped conv's groups and
    multiplied as one [kh*kw*in lanes, out lanes] matrix; Winograd's
    [alpha^2, out lanes, in lanes] in the domain of ``transform`` (None for
    sliding window).  ``bias`` is the
    bias padded to whole 4-lane blocks at every pixel of one output image,
    [oh, ow, out lanes], and ``zero`` a read-only zero map of that shape if
    the conv applies ReLU: a prefix view of a zero buffer that every ReLU
    conv of a plan shares.  NumPy adds or compares two arrays of one shape
    in one contiguous pass, 2-3x as fast as against a broadcast row or
    scalar, and without the 32 KiB iterator buffer a broadcast operand
    allocates.  ``slab_rows`` is sliding window's output rows per slab
    (slab_rows), fixed with the conv's geometry.  The rest is the fold
    (fold_refusal): ``pool`` a max pool's window, the bias and zero maps
    then of the pooled size; ``residual`` a residual Add, added into the
    output array, which holds its other operand on entry (sliding_nhwc4),
    and ``residual_zero`` the zero map of the ReLU after it, if folded.
    """

    mats: np.ndarray
    bias: np.ndarray | None
    zero: np.ndarray | None
    transform: WinogradTransform | None = None
    slab_rows: int = 0
    pool: ConvParams | None = None
    residual: bool = False
    residual_zero: np.ndarray | None = None


def pack_conv(mats: np.ndarray, p: ConvParams, bias: np.ndarray | None,
              oh: int, ow: int,
              transform: WinogradTransform | None = None,
              zeros: np.ndarray | None = None,
              slab_rows: int = 0) -> ConvWeights:
    """The operand of a conv with GEMM operand mats and this bias, at
    output size oh x ow.  A ReLU conv's zero map is a prefix of ``zeros``,
    a zero_map, where that holds one output image, else of its own."""
    opad = channel_blocks(p.out_c) * LANES
    lanes = _padded_bias(bias, p.out_c)
    return ConvWeights(
        mats,
        None if lanes is None else np.ascontiguousarray(
            np.broadcast_to(lanes, (oh, ow, opad))),
        _zero_image((oh, ow, opad), zeros) if p.relu else None,
        transform, slab_rows)


def _zero_image(shape: tuple[int, int, int],
                zeros: np.ndarray | None) -> np.ndarray:
    """A read-only zero map of one output image: a prefix of ``zeros``, a
    zero_map, where that holds it, else one of its own."""
    floats = shape[0] * shape[1] * shape[2]
    return (zero_map(floats) if zeros is None or zeros.size < floats
            else zeros[:floats]).reshape(shape)


def fold_refusal(p: ConvParams, h: int, w: int,
                 pool: ConvParams | None = None) -> str | None:
    """Why sliding window cannot fold into conv p on h x w input a max pool
    of window ``pool``, or else a residual Add; None if it can.  A pool
    needs a pointwise conv, windows that tile its output and two pooled
    columns (_pointwise_max_pool; one row would take BLAS's GEMV, whose
    bits differ), an Add a window matrix: not pointwise, not depthwise."""
    if pool is None:
        return (None if not (p.pointwise or p.depthwise) else
                "a residual Add folds only into a conv with a window matrix")
    if (p.pointwise and (pool.kh, pool.kw, pool.pad_h, pool.pad_w)
            == (pool.stride_h, pool.stride_w, 0, 0)
            and pool.out_size(*p.out_size(h, w))[1] >= 2):
        return None
    return ("a max pool folds only into a pointwise conv, with windows that "
            "tile its output and at least two pooled columns")


def pack_sliding(w: np.ndarray, p: ConvParams, bias: np.ndarray | None,
                 n: int, h: int, wd: int,
                 zeros: np.ndarray | None = None,
                 pool: ConvParams | None = None, residual: bool = False,
                 residual_relu: bool = False) -> ConvWeights:
    """Sliding window's operand for weights w and bias on n images of h x
    wd, with the max pool of window ``pool`` folded in when given, or with
    ``residual`` a residual Add, and with ``residual_relu`` the ReLU after
    it; a fold the kernel cannot run (fold_refusal) raises
    ShapeMismatchError."""
    if (pool is not None or residual) and (
            why := fold_refusal(p, h, wd, pool)):
        raise ShapeMismatchError(why)
    oh, ow = p.out_size(h, wd)
    mats = (_pack_depthwise_rows(w, p, ow) if p.depthwise
            else _pack_weight_columns(w, p))
    after = (_zero_image((oh, ow, channel_blocks(p.out_c) * LANES), zeros)
             if residual_relu else None)
    # a folded pool's epilogue runs on the pooled map
    eh, ew = (oh, ow) if pool is None else pool.out_size(oh, ow)
    return replace(pack_conv(mats, p, bias, eh, ew, zeros=zeros,
                             slab_rows=slab_rows(p, n, h, wd)),
                   pool=pool, residual=residual, residual_zero=after)


def bias_relu(out: np.ndarray, packed: ConvWeights) -> None:
    """Bias, then ReLU, on one output image [oh, ow, lanes] in place: the
    epilogue of both conv schemes."""
    if packed.bias is not None:
        np.add(out, packed.bias, out=out)
    if packed.zero is not None:
        np.maximum(out, packed.zero, out=out)


def run_nhwc4(kernel, x: Tensor, packed: ConvWeights, p: ConvParams,
              out: np.ndarray | None) -> Tensor:
    """``kernel(x data, packed, p, out data)``, a conv kernel on NHWC4
    arrays as a session runs it, applied to x; the result in x's layout.

    An NHWC4 x is handed over as it lies.  An NC4HW4 x is re-laid to NHWC4
    and the result re-laid back: the paper's layout stays a tested boundary
    format without a second kernel.  The result is written into ``out``, a
    contiguous float32 array of its data shape, when given (every element,
    pad lanes included), else into a new one.
    """
    if x.layout is Layout.NCHW:
        raise ShapeMismatchError("conv kernels expect NHWC4 or NC4HW4 input")
    n, c, h, w = x.shape
    if c != p.in_c:
        raise ShapeMismatchError(f"input channels {c} != params in_c {p.in_c}")
    shape = (n, p.out_c, *p.out_size(h, w))
    want = data_shape(shape, x.layout)
    if out is None:
        out = np.empty(want, dtype=np.float32)
    elif (out.shape != want or out.dtype != np.float32
          or not out.flags.c_contiguous):
        raise ShapeMismatchError(
            f"output {out.dtype} {out.shape} != contiguous float32 {want}")
    y = Tensor(shape=shape, layout=x.layout, data=out)
    if out.size == 0:
        return y
    if x.layout is Layout.NHWC4:
        kernel(np.ascontiguousarray(x.data, dtype=np.float32), packed, p, out)
    else:
        nhwc = Tensor(shape, Layout.NHWC4,
                      np.empty(data_shape(shape, Layout.NHWC4), np.float32))
        kernel(relayout(x, Layout.NHWC4).data, packed, p, nhwc.data)
        relayout(nhwc, Layout.NC4HW4, out=out)
    return y


def conv_sliding(x: Tensor, w: np.ndarray, p: ConvParams, threads: int = 1,
                 bias: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> Tensor:
    """Sliding-window convolution over NHWC4 or NC4HW4 input.

    y[o, i, j] = sum_c sum_{u,v} w[o, c, u, v] * x[c, i*s+u-pad, j*s+v-pad]
    with out-of-bounds input reads as zero, then bias and optional ReLU.
    The result has x's layout and is written as run_nhwc4 says (a session
    runs sliding_nhwc4 on its pool views instead).  Runs on the calling
    thread; ``threads`` is accepted and ignored: the benchmark in perfbench/
    still passes it, and it goes once it stops.
    """
    if w.shape != (p.out_c, p.in_c // p.group, p.kh, p.kw):
        raise ShapeMismatchError(
            f"weight shape {w.shape} != "
            f"{(p.out_c, p.in_c // p.group, p.kh, p.kw)}"
        )
    n, _, h, wd = x.shape
    packed = pack_sliding(w, p, bias, n, h, wd)
    return run_nhwc4(sliding_nhwc4, x, packed, p, out)


def sliding_nhwc4(x: np.ndarray, packed: ConvWeights, p: ConvParams,
                  out: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """conv_sliding on NHWC4 arrays, as a session runs it: x [n, h, w, in
    lanes] into out [n, oh, ow, out lanes], contiguous float32, every
    element of which is written.

    Every conv walks its output rows in slabs (slab_rows).  A slab's
    bordered input rows go into one buffer reused slab after slab, or are
    the whole bordered map in one slab (x itself at pad 0).  Per image, a
    depthwise conv sums the taps' runs of the slab (one strided view of it)
    against the taps' weights ([kh, kw, ow, lanes]) in one einsum straight
    into the slab's output rows: float32 sums in (u, v) order, so its bits
    do not depend on the slabs (a NumPy whose baseline instruction set has
    FMA, aarch64 say, fuses the multiply and add, and its last bits may
    differ).  A dense or grouped conv copies each band of output rows'
    windows (windows) into a window matrix [pixels, kh*kw*in lanes] and
    multiplies it by every output lane, writing each image's rows of a slab
    (whole bands) in chunks of whole bands: a plain conv's chunk is the
    slab's rows, its GEMMs straight into out.  A conv with a residual Add
    folded in (packed.residual) finds the Add's other operand, the skip, in
    ``out``: each chunk (_chunk_rows) goes into ``scratch``, then gets bias
    (and the conv's ReLU) and is added into the skip's rows (_add_rows);
    the ReLU after the Add (packed.residual_zero) runs on each finished
    image.  Those are the unfused steps' ops in their order, so the bits
    are the conv's, then the Add's and the ReLU's.  A pointwise conv
    multiplies each image as it lies, and with a max pool folded in
    (packed.pool) runs _pointwise_max_pool, through ``scratch``.
    """
    if not out.size:
        return
    if packed.pool is not None:
        _pointwise_max_pool(x, packed, out, scratch)
        return
    n, h, wd, cpad = x.shape
    oh, ow = p.out_size(h, wd)
    opad = out.shape[3]
    k = p.kh * p.kw * cpad
    if p.depthwise:
        # (ow, lanes) as one axis at stride_w 1, where a row's windows are
        # adjacent (_tap_runs): an inner loop over only lanes floats ran 5x
        # slower there
        tail, sums = ((ow * cpad,), "uvrp,uvp->rp") if p.stride_w == 1 else (
            (ow, cpad), "uvrjl,uvjl->rjl")
        taps = packed.mats.reshape(p.kh, p.kw, *tail)
    else:
        wmat = packed.mats.reshape(k, opad)
        if p.pointwise:
            # the input as it lies is the window matrix
            for img in range(n):
                np.matmul(x[img].reshape(h * wd, cpad), wmat,
                          out=out[img].reshape(oh * ow, opad))
                bias_relu(out[img], packed)
            return
        band, row = _band_rows(oh, ow * k), ow * opad
        chunk = (_chunk_rows(band, row) if packed.residual
                 else packed.slab_rows)
        win = np.empty((band, ow, p.kh, p.kw, cpad), dtype=np.float32)
    rows, hp, wp = packed.slab_rows, h + 2 * p.pad_h, wd + 2 * p.pad_w
    buf = None if rows >= oh else _slab_buffer(p, rows, x)
    r0 = 0
    while r0 < oh:  # a range iterator would add 48 B to every run's heap
        b = min(rows, oh - r0)
        span = None if buf is None else (
            r0 * p.stride_h, (r0 + b - 1) * p.stride_h + p.kh)
        # no name for the bordered rows: a view kept alive adds 200 B to
        # the step's heap, and the views hold its buffer
        views = (_tap_runs if p.depthwise else windows)(
            border(x, p.pad_h, p.pad_w, hp, wp, rows=span, out=buf),
            p.kh, p.kw, p.stride_h, p.stride_w, b, ow)
        for img in range(n):
            if p.depthwise:
                np.einsum(sums, views[img], taps,
                          out=out[img, r0:r0 + b].reshape(b, *tail))
                continue
            # chunks of whole bands: a residual fold's through the scratch
            c = 0
            while c < b:  # a range iterator here: 48 B more heap
                e, r = min(c + chunk, b), c
                while r < e:
                    bb = min(band, e - r)
                    np.copyto(win[:bb], views[img, r:r + bb])
                    np.matmul(win[:bb].reshape(bb * ow, k), wmat, out=(
                        scratch[(r - c) * row:(r - c + bb) * row]
                        if packed.residual
                        else out[img, r0 + r:r0 + r + bb]).reshape(
                            bb * ow, opad))
                    r += bb
                if packed.residual:
                    _add_rows(scratch[:(e - c) * row].reshape(e - c, ow, opad),
                              out[img], r0 + c, packed)
                c = e
        r0 += b
    for img in range(n):
        if not packed.residual:
            bias_relu(out[img], packed)
        elif packed.residual_zero is not None:
            np.maximum(out[img], packed.residual_zero, out=out[img])


def _add_rows(conv: np.ndarray, image: np.ndarray, r: int,
              packed: ConvWeights) -> None:
    """The epilogue of one chunk of bands of a dense conv with a residual
    Add folded in: its output rows from row r, conv (in the scratch), get
    the bias and the conv's ReLU, then are added into the same rows of
    ``image``, which hold the skip."""
    b = len(conv)
    if packed.bias is not None:
        np.add(conv, packed.bias[r:r + b], out=conv)
    if packed.zero is not None:
        np.maximum(conv, packed.zero[r:r + b], out=conv)
    rows = image[r:r + b]
    np.add(conv, rows, out=rows)


def _pointwise_max_pool(x: np.ndarray, packed: ConvWeights, out: np.ndarray,
                        scratch: np.ndarray) -> None:
    """sliding_nhwc4 of a pointwise conv with the max pool packed.pool
    folded in: out is the pooled map.

    Per image, each pool tap's input pixels, one strided view of x, are
    multiplied as they lie, one GEMM of pooled-width rows per pooled row:
    tap (0, 0) straight into out, each other tap into ``scratch``, which
    holds one pooled image, then maxed into out (neither operand strided,
    so NumPy allocates no iterator buffer).  Conv pixels the pool does not
    read are not computed.  Bias and ReLU then run on the pooled map:
    float32 rounding is monotonic and max is exact, so max(a + b, c + b) is
    max(a, c) + b and the bits are those of the conv, then the pool.
    """
    n, _, _, cpad = x.shape
    _, poh, pw, opad = out.shape
    sp, sq = packed.pool.stride_h, packed.pool.stride_w
    wmat = packed.mats.reshape(cpad, opad)
    # [i, r, u, c, v] is the input pixel of tap (u, v) of pooled pixel (r, c)
    taps = x[:, :sp * poh, :sq * pw].reshape(n, poh, sp, pw, sq, cpad)
    conv = scratch[:poh * pw * opad].reshape(poh, pw, opad)
    for img in range(n):
        pooled = out[img]
        np.matmul(taps[img, :, 0, :, 0], wmat, out=pooled)
        for u in range(sp):
            for v in range(sq):
                if u or v:
                    np.matmul(taps[img, :, u, :, v], wmat, out=conv)
                    np.maximum(pooled, conv, out=pooled)
        bias_relu(pooled, packed)


def pool_nhwc4(x: np.ndarray, p: ConvParams, mode: str,
               out: np.ndarray) -> None:
    """A max or average pool (mode) of window p over NHWC4 x [n, h, w,
    lanes] into out [n, oh, ow, lanes], every element of which is written.

    A max pool whose windows tile the map (kernel equal to stride, no
    padding) combines its taps, each one strided view of x, straight into
    out; max is exact, so the order does not matter.  Any other pool pads x
    with its own fill (border) and reduces one window axis at a time, each
    tap one call over the whole tensor: kh taps over whole pixel rows
    first, into a buffer, then kw taps on the fewer rows left.  An average
    counts padding zeros, and a max pool's windows that saw padding only
    come out zero.
    """
    kh, kw, sh, sw, ph, pw = (p.kh, p.kw, p.stride_h, p.stride_w, p.pad_h,
                              p.pad_w)
    _, h, w, _ = x.shape
    _, oh, ow, _ = out.shape
    if mode == "max" and (kh, kw) == (sh, sw) and not (ph or pw):
        _max_into(out, [x[:, u:u + sh * oh:sh, v:v + sw * ow:sw]
                        for u in range(kh) for v in range(kw)])
        return
    combine, fill = ((np.maximum, -np.inf) if mode == "max"
                     else (np.add, 0.0))
    xp = border(x, ph, pw, h + 2 * ph, w + 2 * pw, fill)
    # the first two taps of an axis combine straight into its buffer.  An
    # axis with one output window is one reduce over its taps; it is not
    # the innermost axis, so the reduce combines them in the loop's order.
    if oh == 1:
        rows = combine.reduce(xp[:, 0:kh], axis=1, keepdims=True)
    elif kh == 1:
        rows = xp[:, 0:sh * oh:sh]
    else:
        rows = combine(xp[:, 0:sh * oh:sh], xp[:, 1:1 + sh * oh:sh])
        for u in range(2, kh):
            combine(rows, xp[:, u:u + sh * oh:sh], out=rows)
    if ow == 1:
        combine.reduce(rows[:, :, 0:kw], axis=2, keepdims=True, out=out)
    elif kw == 1:
        out[:] = rows[:, :, 0:sw * ow:sw]
    else:
        combine(rows[:, :, 0:sw * ow:sw], rows[:, :, 1:1 + sw * ow:sw],
                out=out)
        for v in range(2, kw):
            combine(out, rows[:, :, v:v + sw * ow:sw], out=out)
    if mode == "avg":
        out /= float(kh * kw)  # padding zeros count toward the average
    elif ph or pw:
        # spatial padding is -inf so it never wins; scrub any window that
        # saw padding only, and keep channel pad lanes at zero
        out[np.isneginf(out)] = 0.0


def sliding_work(p: ConvParams, n: int, h: int, w: int) -> KernelWork:
    """The work conv_sliding does on n images of h x w, counted from its code."""
    oh, ow = p.out_size(h, w)
    pix, taps = oh * ow, p.kh * p.kw
    cpad = channel_blocks(p.in_c) * LANES
    opad = channel_blocks(p.out_c) * LANES
    out = n * opad * pix
    if out == 0:
        return KernelWork(calls=3)
    rows, hp, wp = slab_rows(p, n, h, w), h + 2 * p.pad_h, w + 2 * p.pad_w
    slabs = -(-oh // rows)
    # the bordered input rows, every element written once: one slab is the
    # whole map (none at pad 0, where the conv reads x as it lies), and
    # more slabs each copy the rows their output rows read, the rows two
    # slabs share twice, into one buffer, with a border's calls each
    copied = 0
    if p.pad_h or p.pad_w:
        copied = n * wp * cpad * (
            hp if slabs == 1 else (oh - slabs) * p.stride_h + slabs * p.kh)
    epilogue = (1 + p.relu) * out
    if p.depthwise:
        # per slab and image one einsum, reading each tap's windows of the
        # slab's output rows and writing those rows once
        return KernelWork(moved=copied + (taps + 1) * n * pix * cpad
                          + epilogue,
                          calls=10 + 7 * (slabs - 1)
                          + n * (slabs + 1 + p.relu))
    # one GEMM over every output pixel with K = taps x input lanes, into the
    # output itself; a grouped conv's runs over every lane of its
    # block-diagonal operand.  Bias and ReLU passes over the output.
    k = taps * cpad
    gemm = n * pix * k * opad
    if p.pointwise:
        # the input as it lies: one GEMM per image
        return KernelWork(gemm=gemm, moved=epilogue,
                          calls=10 + n * (2 + p.relu))
    # each band copies its windows into the window matrix, then one GEMM
    bands = -(-oh // _band_rows(oh, ow * k))
    return KernelWork(gemm=gemm, moved=copied + n * pix * k + epilogue,
                      calls=10 + 7 * (slabs - 1)
                      + n * (2 * bands + 1 + p.relu))


EPILOGUE_FLOATS = 8192
"""Most floats of output rows a dense conv with a residual Add folded in
gathers in its scratch, in whole bands (at least one), before one bias and
one skip add over them (sliding_nhwc4).

Each chunk costs two NumPy calls, and the scratch is pool bytes.  Measured
as the fused step over its conv, Add and ReLU steps, in one session each,
alternating 60 rounds of 50 run_timed calls (2-vCPU x86-64 VM, OpenBLAS
0.3.31, one thread), on resnet-mini's res0b at 32 and 64 px: 4,096 floats
(one band) 1.067 and 1.081x, 8,192 1.041 and 1.041x, 16,384 1.019 and
1.019x, a whole slab 1.000 and 1.002x.  At 8,192 the scratch of res0b at
64 px is two bands, 24 KiB, against the 512 KiB of maps the fold frees.
"""


def fold_scratch_floats(p: ConvParams, n: int, h: int, w: int,
                        pool: ConvParams | None = None) -> int:
    """Floats of the scratch of conv p on n images of h x w with a node
    folded in (sliding_nhwc4): for the max pool of window ``pool``, one
    pooled image; else, for a residual Add, one chunk of bands of its
    output rows, within one slab."""
    oh, ow = p.out_size(h, w)
    opad = channel_blocks(p.out_c) * LANES
    if pool is not None:
        poh, pw = pool.out_size(oh, ow)
        return poh * pw * opad
    k = p.kh * p.kw * channel_blocks(p.in_c) * LANES
    return min(_chunk_rows(_band_rows(oh, ow * k), ow * opad),
               slab_rows(p, n, h, w)) * ow * opad


def _chunk_rows(band: int, row_floats: int) -> int:
    """Output rows per epilogue chunk of a residual fold: the most whole
    bands of band rows whose output, row_floats floats a row, fits
    EPILOGUE_FLOATS; at least one."""
    return band * max(1, EPILOGUE_FLOATS // (band * row_floats))


def _band_rows(oh: int, row_floats: int) -> int:
    """Output rows per band: the most whose windows, row_floats floats per
    output row, fit BAND_FLOATS; at least one, at most oh."""
    return min(oh, max(1, BAND_FLOATS // max(1, row_floats)))


def slab_rows(p: ConvParams, n: int, h: int, w: int) -> int:
    """Output rows per slab of a sliding-window conv on n images of h x w.

    A slab is the bordered input rows that some output rows of every image
    read, copied into one buffer the kernel reuses.  One rule for every
    conv: at pad 0 it reads its input as it lies, in one slab; a padded
    conv takes the fewest slabs that fit BAND_FLOATS (at least one unit
    per slab: a band of a dense conv, a row of a depthwise one), then
    spreads its output rows evenly over them in whole units, so the
    buffers are no larger than that count needs.
    """
    oh, ow = p.out_size(h, w)
    if not (p.pad_h or p.pad_w):
        return oh
    lanes = channel_blocks(p.in_c) * LANES
    unit = 1 if p.depthwise else _band_rows(oh, ow * p.kh * p.kw * lanes)
    row = n * (w + 2 * p.pad_w) * lanes  # one bordered row of every image
    # the output rows whose input rows fit one slab
    fit = (BAND_FLOATS // max(1, row) - p.kh) // p.stride_h + 1
    if fit >= oh:
        return oh
    units = -(-oh // unit)
    most = max(1, fit // unit)
    return unit * -(-units // -(-units // most))


def border(x: np.ndarray, top: int, left: int, hp: int, wp: int,
           fill: float = 0.0, rows: tuple[int, int] | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """Rows a..b (``rows``; all hp by default) of an hp x wp map whose border
    is fill and which holds NHWC data x at rows top.. and columns left..,
    as [n, b-a, wp, lanes].  They are written to the start of ``out``, a
    flat float32 buffer, when given, else to a new array, or are x itself
    when the map is x and there is no ``out``.  Only the border is
    filled."""
    n, h, w, c = x.shape
    if rows is None and out is None and (top, left, hp, wp) == (0, 0, h, w):
        return x
    a, b = (0, hp) if rows is None else rows
    # the map's rows a..b that hold x are xp's rows lo..hi: x's rows as the
    # span's, clipped to it (no min/max calls: this runs in every conv step)
    lo, hi = top - a, top + h - a
    lo = 0 if lo < 0 else b - a if lo > b - a else lo
    hi = 0 if hi < 0 else b - a if hi > b - a else hi
    if out is None:
        xp = np.empty((n, b - a, wp, c), dtype=np.float32)
    else:
        xp = out[:n * (b - a) * wp * c].reshape(n, b - a, wp, c)
    # a fill whose slice is empty still costs a call: skip it
    if lo:
        xp[:, :lo] = fill
    if hi < b - a:
        xp[:, hi:] = fill
    if hi > lo:
        if left:
            xp[:, lo:hi, :left] = fill
        if left + w < wp:
            xp[:, lo:hi, left + w:] = fill
        # x itself when all its rows are in the span: a view of it cost
        # 0.5 us more a call
        xp[:, lo:hi, left:left + w] = (
            x if hi - lo == h else x[:, a + lo - top:a + hi - top])
    return xp


def windows(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, oh: int,
            ow: int) -> np.ndarray:
    """The kh x kw windows of NHWC data xp at strides sh, sw as one view
    [n, oh, ow, kh, kw, lanes]: [i, r, c, u, v] is xp[i, r*sh+u, c*sw+v].
    Strides come from xp's shape: an empty pool view's own would overrun
    its zero-byte buffer."""
    n, hp, wp, c = xp.shape
    row, col = 4 * c * wp, 4 * c
    return np.ndarray((n, oh, ow, kh, kw, c), np.float32, xp, 0,
                      (row * hp, row * sh, col * sw, row, col, 4))


def _max_into(out: np.ndarray, taps) -> None:
    """The elementwise max of taps (arrays of out's shape) into out, the
    first two straight into it."""
    if len(taps) == 1:
        np.copyto(out, taps[0])
        return
    np.maximum(taps[0], taps[1], out=out)
    for tap in taps[2:]:
        np.maximum(out, tap, out=out)


def _tap_runs(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, oh: int,
              ow: int) -> np.ndarray:
    """windows' data as a depthwise conv's einsum reads it, one strided view
    [n, kh, kw, oh, ow*lanes]: [i, u, v, r] is the run of output row r's
    tap (u, v), xp[i, r*sh+u, v:]; a row's windows are adjacent at stride
    sw 1, so its pixels and lanes are one axis.  At another stride it is
    [n, kh, kw, oh, ow, lanes]."""
    n, hp, wp, c = xp.shape
    row, col = 4 * c * wp, 4 * c
    shape, strides = ((ow * c,), (4,)) if sw == 1 else (
        (ow, c), (col * sw, 4))
    return np.ndarray((n, kh, kw, oh, *shape), np.float32, xp, 0,
                      (row * hp, row, col, row * sh, *strides))


def _slab_buffer(p: ConvParams, rows: int, x: np.ndarray) -> np.ndarray:
    """An empty buffer for one slab of `rows` output rows of x's images,
    bordered."""
    n, _, wd, c = x.shape
    return np.empty(n * ((rows - 1) * p.stride_h + p.kh)
                    * (wd + 2 * p.pad_w) * c, dtype=np.float32)
