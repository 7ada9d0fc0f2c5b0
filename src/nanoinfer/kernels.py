"""Compute kernels: sliding-window convolution and direct/Strassen matmul.

Convolutions read and write lane-padded NHWC data (tensor.Layout.NHWC4):
a map is a [pixels, lanes] matrix a GEMM reads as it lies, and a pixel row
is one contiguous run of w*lanes floats.  Every windowed kernel pads its
input through one function, border (a pool with its own fill), which also
fills one range of the bordered map's rows into a buffer the caller
supplies, and the conv kernels read their windows through one strided view
of it, windows.  A sliding-window conv walks its output in slabs of rows
(slab_rows): each slab's bordered input rows go into one buffer of at most
BAND_FLOATS floats, reused slab after slab, or the whole bordered map when
it fits.  A dense convolution is one GEMM per band of output rows, of the
band's windows [pixels, kh*kw*in lanes], copied out of the slab into a
window matrix of at most BAND_FLOATS floats, against every output lane at
once; it writes the band's output rows itself, and a slab holds whole
bands.  A 1x1 conv at stride 1 and pad 0 is one GEMM on the input as it
lies.  A grouped conv is a dense one whose operand is block diagonal, one
block per group.  Depthwise convolution at stride 1 is one multiply-add per
window tap over a flat-pitch run of the slab, its sums cropped into the
output once per slab; at other strides one per tap over whole output rows
of the whole bordered map's windows.  Both conv schemes read one operand
packed once (ConvWeights: the GEMM operand, the bias and ReLU maps,
Winograd's transform) and end in one epilogue, bias_relu, per image.
conv_sliding and conv_winograd also take and return the paper's NC4HW4,
re-laid around the same kernel (run_nhwc4).
Kernels run on the calling thread; the only parallelism is the BLAS
library's own threading inside each GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass
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

The count rule weighs an addition like a multiply (weight 1). Under a BLAS
GEMM it is far dearer: an addition is a memory-bound NumPy pass over a
quadrant, a multiply one FMA inside a cache-blocked kernel. Measured on
this module's own level by `tools/calibrate.py add-cost`: time of a one-level
matmul_strassen less its seven batched half-size products, per counted
addition, over the time of matmul_direct per multiply; OpenBLAS 0.3.31
(Haswell kernels), 2-core x86-64 VM, one BLAS thread, median of 5-200
interleaved runs, 18 measurements over six shapes: 1024^3 93-150, 2048^3
121-162, 24x24x1089 88-102, 128x64x256 and 256x128x64 75-94, 64x32x1024
44-50. 95 is the median. With two BLAS threads 1024^3 reached 262. A level
saves 34 multiplies per addition at 1024^3 and 68 at 2048^3, so no shape
up to 2048^3 takes a level; one level ran 1.14-1.44x slower than direct at
1024^3 and 1.04-1.31x at 2048^3. Recalibrate on other hardware with that
script.
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
the relative error. On 58 convs (the presets' and 31 synthetic ones of 3-64
channels on 8-64 px maps), three fits (2-vCPU x86-64 VM, OpenBLAS 0.3.31,
one thread, 21 runs per scheme) gave a GEMM multiply 6-22 ps, and relative
to it a small product 3,200-8,000, a streamed element 9-52, a re-laid one
104-501 and a call 71,000-176,000. The fits trade the GEMM's weight against
the others', but every fit picked the same scheme for every conv. The
constants are the middle fit, rounded: at its 15 ps per multiply a small
product takes 68 ns, a streamed element 0.29 ns, a re-laid one 2.6 ns and a
call 1.2 us. Four kinds are too few: with re-laid elements counted as
streamed ones, fits to the same timings planned winograd6 for a 64-channel
conv on a 64x64 map, which sliding window runs faster, and missed
inception-mini's branch_a. Refitted after Winograd's transforms became
GEMMs with K=alpha, adding 3x3 convs of 64->128 and 128->128 channels at 16
and 32 px (62 convs, three fits): a GEMM multiply took 24-30 ps, and
relative to it a small product 0, a streamed element 12-15, a re-laid one
168-194 and a call 52,000-64,000. Each refit plans winograd4 for
squeezenet-mini's expand3x3_1, which sliding window runs 1.56x faster, so
the constants stay. Under them rank finds 27 of 27 preset convs within the
margin; tile 4, fastest on 64->64 at 32 px, 64->128 at 16 and 32 px and
128->128 at 16 px (2.36 against 3.10 ms at 64->128, 32 px), is not planned.
Recounted when activations moved to NHWC4 (sliding window lost its
re-layouts, its padded copy at pad 0 and its accumulator and store where the
GEMM rows have the output's pitch; Winograd its crop where the tiles cover
the output): rank (one thread, 15 rounds) still finds 27 of 27 preset convs
within the margin, every one planned and fastest on sliding window, so the
constants stay.  Recounted when a dense conv became one GEMM per band of
output rows (a padded copy, one window copy and one GEMM with K = taps x
input lanes per band, two calls per band, no per-tap sums and no store):
rank (one thread, 7 rounds) still finds 27 of 27 preset convs within the
margin, every one planned and fastest on sliding window, so the constants
stay.  Recounted when sliding window went slab by slab (per extra slab a
border's calls and the rows it copies again; depthwise at stride 1 its
multiplies and sums over whole bordered rows and one crop): rank (one
thread, 3 rounds) still finds 27 of 27 preset convs within the margin, so
the constants stay.  Recalibrate on other hardware with that script.
"""

BAND_FLOATS = 32768
"""Most floats in one slab of a sliding-window conv's bordered input rows,
and in the window matrix of one band of a dense conv (128 KiB each).

A band is the most output rows whose window matrix fits, at least one; a
conv takes the fewest slabs whose rows fit (a whole number of bands each,
at least one), spread evenly.  Both depend on the conv's geometry only, so
a step gives the same bits however it is called, and a depthwise conv's
bits do not depend on its slabs at all.  The band size was measured as
medians of each dense step of the resnet-mini topology in one running
session, the band sizes alternating in one process (2-vCPU x86-64 VM, 48
KiB L1d and 2 MiB L2 per core, OpenBLAS 0.3.31, one thread, 16-40 rounds of
10 runs).  The dense steps summed, at 16,384, 32,768, 65,536 floats and a
whole map per band: 2.40, 1.93, 2.08 and 2.10 ms at 64x64 input, 0.61,
0.57, 0.57 and 0.56 ms at 32x32; one GEMM per window tap, with
output-sized accumulators, took 2.39 and 0.61 ms.  At 8,192 the 32x32 sum
was 0.83 ms.  A smaller band pays more calls, a larger one leaves the
cache, and a whole map per band would hold 2.25 MiB at 64x64.  At 32x32
res0a, res0b and res1b still ran 5-9% slower than per tap (0.14 against
0.13 ms at res0a): copying the windows costs about as much as the per-tap
sums it replaces.  Slabs of the same size, against the whole bordered map
in one (same session, 20 alternating rounds of 10 runs): the 64x64
resnet-mini run 2.93 against 3.23 ms (res1a 0.33 against 0.42 ms), while
mobilenet-mini's dw2, in two slabs, took 257 against 222 us in one; every
32x32 dense conv and dw0 and dw1 fit one slab.  Re-measure on other
hardware.
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

    That is the depth strassen_scratch_elems plans for; at depth 0 the
    product is exactly matmul_direct.

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


def _pack_depthwise_rows(w: np.ndarray, p: ConvParams, wp: int) -> np.ndarray:
    """[c, 1, kh, kw] -> [kh, kw, wp, lanes]: each tap's weights repeated
    along one bordered input row of wp pixels, so the depthwise multiply
    runs over whole rows of wp*lanes contiguous floats, not lanes (the first
    ow pixels at strides other than 1)."""
    c = p.in_c
    taps = np.zeros((p.kh, p.kw, channel_blocks(c) * LANES), dtype=np.float32)
    taps[:, :, :c] = w.astype(np.float32).reshape(c, p.kh, p.kw).transpose(
        1, 2, 0)
    return np.ascontiguousarray(np.broadcast_to(
        taps[:, :, None], (p.kh, p.kw, wp, taps.shape[2])))


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

    ``mats`` is the GEMM operand: sliding window's [kh, kw, wp, in lanes]
    for a depthwise conv (each tap's weights repeated over one bordered
    input row of wp pixels), else [kh*kw, in lanes, out lanes], block
    diagonal over a grouped conv's groups and multiplied as one [kh*kw*in
    lanes, out lanes] matrix; Winograd's [alpha^2, out lanes, in lanes] in
    the domain of ``transform`` (None for sliding window).  ``bias`` is the
    bias padded to whole 4-lane blocks at every pixel of one output image,
    [oh, ow, out lanes], and ``zero`` a read-only zero map of that shape if
    the conv applies ReLU: a prefix view of a zero buffer that every ReLU
    conv of a plan shares.  NumPy adds or compares two arrays of one shape
    in one contiguous pass, 2-3x as fast as against a broadcast row or
    scalar, and without the 32 KiB iterator buffer a broadcast operand
    allocates.  ``slab_rows`` is sliding window's output rows per slab
    (slab_rows), fixed with the conv's geometry.
    """

    mats: np.ndarray
    bias: np.ndarray | None
    zero: np.ndarray | None
    transform: WinogradTransform | None = None
    slab_rows: int = 0


def pack_conv(mats: np.ndarray, p: ConvParams, bias: np.ndarray | None,
              oh: int, ow: int,
              transform: WinogradTransform | None = None,
              zeros: np.ndarray | None = None,
              slab_rows: int = 0) -> ConvWeights:
    """The operand of a conv with GEMM operand mats and this bias, at
    output size oh x ow.  A ReLU conv's zero map is a prefix of ``zeros``,
    a zero_map of at least one output image, else of its own."""
    opad = channel_blocks(p.out_c) * LANES
    lanes = _padded_bias(bias, p.out_c)
    zero = None
    if p.relu:
        floats = oh * ow * opad
        zero = (zero_map(floats) if zeros is None
                else zeros[:floats]).reshape(oh, ow, opad)
    return ConvWeights(
        mats,
        None if lanes is None else np.ascontiguousarray(
            np.broadcast_to(lanes, (oh, ow, opad))),
        zero, transform, slab_rows)


def pack_sliding(w: np.ndarray, p: ConvParams, bias: np.ndarray | None,
                 n: int, h: int, wd: int,
                 zeros: np.ndarray | None = None) -> ConvWeights:
    """Sliding window's operand for weights w and bias on n images of h x
    wd."""
    mats = (_pack_depthwise_rows(w, p, wd + 2 * p.pad_w) if p.depthwise
            else _pack_weight_columns(w, p))
    return pack_conv(mats, p, bias, *p.out_size(h, wd), zeros=zeros,
                     slab_rows=slab_rows(p, n, h, wd))


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
                  out: np.ndarray) -> None:
    """conv_sliding on NHWC4 arrays, as a session runs it: x [n, h, w, in
    lanes] into out [n, oh, ow, out lanes], contiguous float32, every
    element of which is written."""
    if out.size:
        conv = _conv_depthwise if p.depthwise else _conv_dense
        conv(x, packed, p, out)


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
    # whole map (none for a conv at pad 0 that reads x as it lies), and
    # more slabs each copy the rows their output rows read, the rows two
    # slabs share twice, into one buffer, with a border's calls each
    flat = p.depthwise and (p.stride_h, p.stride_w) == (1, 1)
    copied = 0
    if flat or p.pad_h or p.pad_w:
        copied = n * wp * cpad * (
            hp if slabs == 1 else (oh - slabs) * p.stride_h + slabs * p.kh)
    epilogue = (1 + p.relu) * out
    if p.depthwise:
        if flat:
            # per tap a multiply over whole bordered rows of wp pixels into
            # a row buffer, then (after the first) its sum; one crop of the
            # sums into the output
            moved = (2 * taps - 1) * n * oh * wp * cpad + n * pix * cpad
        else:
            # per tap a multiply into the output or the product buffer,
            # then (after the first) its sum
            moved = (2 * taps - 1) * n * pix * cpad
        return KernelWork(moved=copied + moved + epilogue,
                          calls=10 + flat + 7 * (slabs - 1) + n * (
                              (2 * taps - 1 + flat) * slabs + 1 + p.relu))
    # one GEMM over every output pixel with K = taps x input lanes, into the
    # output itself; a grouped conv's runs over every lane of its
    # block-diagonal operand.  Bias and ReLU passes over the output.
    k = taps * cpad
    gemm = n * pix * k * opad
    if (p.kh, p.kw, p.stride_h, p.stride_w, p.pad_h, p.pad_w) == (
            1, 1, 1, 1, 0, 0):
        # the input as it lies: one GEMM per image
        return KernelWork(gemm=gemm, moved=epilogue,
                          calls=10 + n * (2 + p.relu))
    # each band copies its windows into the window matrix, then one GEMM
    bands = -(-oh // _band_rows(oh, ow * k))
    return KernelWork(gemm=gemm, moved=copied + n * pix * k + epilogue,
                      calls=10 + 7 * (slabs - 1)
                      + n * (2 * bands + 1 + p.relu))


def _band_rows(oh: int, row_floats: int) -> int:
    """Output rows per band: the most whose windows, row_floats floats per
    output row, fit BAND_FLOATS; at least one, at most oh."""
    return min(oh, max(1, BAND_FLOATS // max(1, row_floats)))


def slab_rows(p: ConvParams, n: int, h: int, w: int) -> int:
    """Output rows per slab of a sliding-window conv on n images of h x w.

    A slab is the bordered input rows that some output rows of every image
    read, copied into one buffer the kernel reuses.  A conv takes the
    fewest slabs that fit BAND_FLOATS (at least one band of a dense conv,
    or one row, per slab), then spreads its output rows evenly over them in
    whole bands, so the buffers are no larger than that count needs.  At
    stride 1 a depthwise slab holds (kw-1)*lanes floats more, which its
    last tap's run reads past the rows.  A depthwise conv at other strides
    reads the whole bordered map, and any other conv at pad 0 its input as
    it lies, in one slab.
    """
    oh, ow = p.out_size(h, w)
    flat = p.depthwise and (p.stride_h, p.stride_w) == (1, 1)
    if not flat and (p.depthwise or not (p.pad_h or p.pad_w)):
        return oh
    lanes = channel_blocks(p.in_c) * LANES
    row = n * (w + 2 * p.pad_w) * lanes  # one bordered row of every image
    room = BAND_FLOATS - ((p.kw - 1) * lanes if flat else 0)
    # the output rows whose input rows fit one slab
    fit = (room // max(1, row) - p.kh) // p.stride_h + 1
    if fit >= oh:
        return oh
    unit = 1 if p.depthwise else _band_rows(oh, ow * p.kh * p.kw * lanes)
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
    when the map is x.  Only the border is filled."""
    n, h, w, c = x.shape
    if rows is None:  # the whole map: x is its rows top..top+h
        if out is None and (top, left, hp, wp) == (0, 0, h, w):
            return x
        a, b, lo, hi, inner = 0, hp, top, top + h, x
    else:  # the map's rows a..b that hold x are xp's rows lo..hi
        a, b = rows
        lo, hi = min(max(top - a, 0), b - a), min(max(top + h - a, 0), b - a)
        inner = x[:, a + lo - top:a + hi - top]
    if out is None:
        xp = np.empty((n, b - a, wp, c), dtype=np.float32)
    else:
        xp = out[:n * (b - a) * wp * c].reshape(n, b - a, wp, c)
    xp[:, :lo] = fill
    xp[:, hi:] = fill
    xp[:, lo:hi, :left] = fill
    xp[:, lo:hi, left + w:] = fill
    xp[:, lo:hi, left:left + w] = inner
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


def _slab_buffer(p: ConvParams, rows: int, x: np.ndarray,
                 slack: int = 0) -> np.ndarray:
    """An empty buffer for one slab of `rows` output rows of x's images,
    bordered, and `slack` floats more."""
    n, _, wd, c = x.shape
    return np.empty(n * ((rows - 1) * p.stride_h + p.kh)
                    * (wd + 2 * p.pad_w) * c + slack, dtype=np.float32)


def _conv_dense(x: np.ndarray, packed: ConvWeights, p: ConvParams,
                out: np.ndarray) -> None:
    """Dense or grouped conv of NHWC4 data x into out, slab by slab (its
    bordered input rows in one reused buffer, or the whole map in one):
    per band of output rows, one copy of its windows into a window matrix
    [pixels, kh*kw*in lanes] and one GEMM of it against every output lane
    into those rows."""
    n, h, wd, cpad = x.shape
    _, oh, ow, opad = out.shape
    k = p.kh * p.kw * cpad
    wmat = packed.mats.reshape(k, opad)
    if (p.kh, p.kw, p.stride_h, p.stride_w, p.pad_h, p.pad_w) == (
            1, 1, 1, 1, 0, 0):  # the input as it lies is the window matrix
        for img in range(n):
            np.matmul(x[img].reshape(h * wd, cpad), wmat,
                      out=out[img].reshape(oh * ow, opad))
            bias_relu(out[img], packed)
        return
    rows, hp, wp = packed.slab_rows, h + 2 * p.pad_h, wd + 2 * p.pad_w
    buf = None if rows >= oh else _slab_buffer(p, rows, x)
    band = _band_rows(oh, ow * k)
    win = np.empty((band, ow, p.kh, p.kw, cpad), dtype=np.float32)
    r0 = 0
    while r0 < oh:  # a range iterator would add 48 B to every run's heap
        b = min(rows, oh - r0)
        span = None if buf is None else (
            r0 * p.stride_h, (r0 + b - 1) * p.stride_h + p.kh)
        views = windows(border(x, p.pad_h, p.pad_w, hp, wp, rows=span,
                               out=buf),
                        p.kh, p.kw, p.stride_h, p.stride_w, b, ow)
        for img in range(n):
            for r in range(0, b, band):
                bb = min(band, b - r)
                np.copyto(win[:bb], views[img, r:r + bb])
                np.matmul(win[:bb].reshape(bb * ow, k), wmat,
                          out=out[img, r0 + r:r0 + r + bb].reshape(
                              bb * ow, opad))
        r0 += b
    for img in range(n):
        bias_relu(out[img], packed)


def _conv_depthwise(x: np.ndarray, packed: ConvWeights, p: ConvParams,
                    out: np.ndarray) -> None:
    """Depthwise conv of NHWC4 data x into out, one multiply per window
    tap: at stride 1 on flat-pitch runs of its slabs (_depthwise_flat),
    else over whole output rows of ow*lanes floats of the whole bordered
    map's windows, where the first tap writes out."""
    if (p.stride_h, p.stride_w) == (1, 1):
        _depthwise_flat(x, packed, p, out)
        return
    n, h, wd, _ = x.shape
    _, oh, ow, _ = out.shape
    xp = border(x, p.pad_h, p.pad_w, h + 2 * p.pad_h, wd + 2 * p.pad_w)
    views = windows(xp, p.kh, p.kw, p.stride_h, p.stride_w, oh, ow)
    prod = np.empty_like(out[0]) if p.kh * p.kw > 1 else None
    for img in range(n):
        acc = out[img]  # [oh, ow, lanes]
        for tap in range(p.kh * p.kw):
            u, v = divmod(tap, p.kw)
            win, wrow = views[img, :, :, u, v], packed.mats[u, v, :ow]
            if tap == 0:
                np.multiply(win, wrow, out=acc)
            else:
                np.multiply(win, wrow, out=prod)
                acc += prod
        bias_relu(acc, packed)


def _depthwise_flat(x: np.ndarray, packed: ConvWeights, p: ConvParams,
                    out: np.ndarray) -> None:
    """A depthwise conv at stride 1 on flat-pitch runs of its slabs.

    Output pixel (r, j) of a slab sits at r*pitch + j*lanes of a row buffer
    [rows, pitch] of whole bordered rows, pitch = wp*lanes, and tap (u, v)
    adds the slab's run starting u*pitch + v*lanes further on, times the
    tap's weights repeated over one bordered row: one contiguous run per
    tap.  Columns past ow are junk, and each slab's sums are cropped into
    out once.
    """
    n, h, wd, lanes = x.shape
    _, oh, ow, _ = out.shape
    kh, taps = p.kh, p.kh * p.kw
    rows, hp, wp = packed.slab_rows, h + 2 * p.pad_h, wd + 2 * p.pad_w
    pitch, owl = wp * lanes, ow * lanes
    wrow = packed.mats.reshape(taps, pitch)
    runs = [u * pitch + v * lanes for u in range(kh) for v in range(p.kw)]
    buf = _slab_buffer(p, rows, x, (p.kw - 1) * lanes)
    # the last image's last run reads past its rows, into columns past ow
    # only: zeros there, or rows of an earlier slab
    buf[n * (rows + kh - 1) * pitch:] = 0.0
    acc = np.empty((rows, pitch), dtype=np.float32)
    prod = np.empty_like(acc) if taps > 1 else acc  # no products of 1 tap
    for r0 in range(0, oh, rows):
        b = min(rows, oh - r0)
        span = (b + kh - 1) * pitch
        border(x, p.pad_h, p.pad_w, hp, wp, rows=(r0, r0 + b + kh - 1),
               out=buf)
        sums, prods = acc[:b], prod[:b]
        for img in range(n):
            for tap, at in enumerate(runs):
                at += img * span
                run = buf[at:at + b * pitch].reshape(b, pitch)
                if tap == 0:
                    np.multiply(run, wrow[0], out=sums)
                else:
                    np.multiply(run, wrow[tap], out=prods)
                    np.add(sums, prods, out=sums)
            np.copyto(out[img, r0:r0 + b].reshape(b, owl), sums[:, :owl])
    for img in range(n):
        bias_relu(out[img], packed)
