"""Compute kernels: sliding-window convolution and direct/Strassen matmul.

All kernels are pure functions of their inputs.  Each window tap is one
NumPy call over all channel blocks of an image: a GEMM against every output
block for dense convolution, a multiply-add whose inner loop spans a whole
output row of lanes for depthwise.  Kernels run on the calling thread;
the only parallelism is the BLAS library's own threading inside each GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .tensor import LANES, Layout, Tensor, channel_blocks, zeros

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
    """Convolution geometry; kernel/stride/pad are (height, width) pairs."""

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

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.pad_h - self.kh) // self.stride_h + 1
        ow = (w + 2 * self.pad_w - self.kw) // self.stride_w + 1
        return max(oh, 0), max(ow, 0)


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
element-wise ops), the elements it re-lays out in runs of one 4-lane block
or one tile, and its NumPy calls. `tools/calibrate.py weights` times every
scheme of 58 convs as a step of a running session (the four presets' convs
and 31 synthetic ones of 3-64 channels on 8-64 pixel maps) and fits the
five per-unit times by least squares on the relative error. Three fits,
2-vCPU x86-64 VM, OpenBLAS 0.3.31 on one thread, 21 runs per scheme: a
GEMM multiply took 6-22 ps, and relative to it a small product
3,200-8,000, a streamed element 9-52, a re-laid one 104-501 and a call
71,000-176,000. The fits trade the GEMM's weight against the others', but
every fit picked the same scheme for every conv. The constants are the
middle fit, rounded: at its 15 ps per multiply a small product takes 68
ns, a streamed element 0.29 ns, a re-laid one 2.6 ns and a call 1.2 us.
Four kinds are too few: with re-laid elements counted as streamed ones,
fits to the same timings planned winograd6 for a 64-channel conv on a 64x64
map, which sliding window runs faster, and missed inception-mini's
branch_a. Only Winograd-eligible convs have a choice of scheme. On all 28
such convs of the 58 the cheapest scheme under these constants, sliding
window, is within 10% or 0.02 ms of the fastest (7 runs per scheme), and
`tools/calibrate.py rank --rounds 7` finds all 27 preset convs planned
within that margin. Recalibrate on other hardware with that script.
"""


@dataclass(frozen=True)
class KernelWork:
    """The work one convolution kernel does, by kind."""

    gemm: int = 0  # multiplies inside BLAS products
    small: int = 0  # Winograd transform products of one small matrix each
    moved: int = 0  # elements written by fills, copies and element-wise passes
    shuffled: int = 0  # elements re-laid in runs of one 4-lane block or tile
    calls: int = 0  # NumPy calls, each with the Python around it

    def __add__(self, other: "KernelWork") -> "KernelWork":
        return KernelWork(self.gemm + other.gemm, self.small + other.small,
                          self.moved + other.moved,
                          self.shuffled + other.shuffled,
                          self.calls + other.calls)

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
    if min(d.n, d.k, d.m) == 0:
        return False
    n2, k2, m2 = (d.n + 1) // 2, (d.k + 1) // 2, (d.m + 1) // 2
    saved = (2 * n2) * (2 * k2) * (2 * m2) - 7 * n2 * k2 * m2
    return saved > add_cost * _split_additions(n2, k2, m2)


def _split_additions(n2: int, k2: int, m2: int) -> int:
    """Counted additions of one Strassen split into n2 x k2 x m2 halves."""
    return 4 * m2 * k2 + 4 * n2 * k2 + 7 * m2 * n2


def strassen_recursion_depth(d: MatDims, add_cost: float = 1) -> int:
    """Number of split levels the cutoff rule allows, iterated on halves."""
    depth = 0
    n, k, m = d.n, d.k, d.m
    while strassen_should_recurse(MatDims(n, k, m), add_cost):
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
    dims = _strassen_level_dims(MatDims(a.shape[0], a.shape[1], b.shape[1]))
    depth = len(dims) - 1
    if depth == 0:
        return matmul_direct(a, b)

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


def _pack_weight_columns(w: np.ndarray, out_c: int, in_c: int) -> np.ndarray:
    """[out_c, in_c, kh, kw] -> [kh*kw, ceil(in_c/4)*4, ceil(out_c/4)*4]."""
    kh, kw = w.shape[2], w.shape[3]
    ibm, obm = channel_blocks(in_c), channel_blocks(out_c)
    packed = np.zeros((kh * kw, ibm * LANES, obm * LANES), dtype=np.float32)
    packed[:, :in_c, :out_c] = (
        w.astype(np.float32).transpose(2, 3, 1, 0).reshape(kh * kw, in_c, out_c)
    )
    return packed


def _padded_bias(bias: np.ndarray | None, out_c: int) -> np.ndarray | None:
    if bias is None:
        return None
    full = np.zeros(channel_blocks(out_c) * LANES, dtype=np.float32)
    full[:out_c] = bias.astype(np.float32).reshape(-1)
    return full


def conv_sliding(x: Tensor, w: np.ndarray, p: ConvParams, threads: int = 1,
                 bias: np.ndarray | None = None) -> Tensor:
    """Sliding-window convolution over NC4HW4 input.

    y[o, i, j] = sum_c sum_{u,v} w[o, c, u, v] * x[c, i*s+u-pad, j*s+v-pad]
    with out-of-bounds input reads as zero, then bias and optional ReLU.
    Runs on the calling thread.  ``threads`` is accepted and ignored: the
    benchmark in perfbench/ still passes it, and it goes once it stops.
    """
    if x.layout is not Layout.NC4HW4:
        raise ShapeMismatchError("conv_sliding expects NC4HW4 input")
    n, c, h, wd = x.shape
    if c != p.in_c:
        raise ShapeMismatchError(f"input channels {c} != params in_c {p.in_c}")
    if w.shape != (p.out_c, p.in_c // p.group, p.kh, p.kw):
        raise ShapeMismatchError(
            f"weight shape {w.shape} != "
            f"{(p.out_c, p.in_c // p.group, p.kh, p.kw)}"
        )
    oh, ow = p.out_size(h, wd)
    y = zeros((n, p.out_c, oh, ow), Layout.NC4HW4)
    if y.data.size == 0:
        return y
    if p.group == 1:
        _conv_dense(x, w, p, bias, y, oh, ow)
    elif p.group == p.in_c and p.group == p.out_c:
        _conv_depthwise(x, w, p, bias, y, oh, ow)
    else:
        _conv_grouped(x, w, p, bias, y, oh, ow)
    return y


def sliding_work(p: ConvParams, n: int, h: int, w: int) -> KernelWork:
    """The work conv_sliding does on n images of h x w, counted from its code."""
    oh, ow = p.out_size(h, w)
    pix, taps = oh * ow, p.kh * p.kw
    cpad = channel_blocks(p.in_c) * LANES
    opad = channel_blocks(p.out_c) * LANES
    out = n * opad * pix
    if out == 0:
        return KernelWork(calls=3)
    padded = n * cpad * (h + 2 * p.pad_h) * (w + 2 * p.pad_w)
    # zero-filled output and padded input, the input copied in, the
    # output's bias and ReLU passes
    common = out * (2 + p.relu) + padded + n * cpad * h * w
    if p.group == 1:
        # a 1x1 window over the unpadded image is the image itself: no copy
        whole = (p.kh, p.kw, p.stride_h, p.stride_w, p.pad_h, p.pad_w) \
            == (1, 1, 1, 1, 0, 0)
        window = 0 if whole else pix * cpad
        # per tap a window copy, a GEMM product and (after the first) its
        # sum; the input's NHWC re-layout, packed weights, the NC4HW4 store
        return KernelWork(
            gemm=n * taps * pix * cpad * opad,
            moved=(common + n * taps * window + n * (2 * taps - 1) * pix * opad
                   + 2 * taps * cpad * opad),
            shuffled=n * cpad * h * w + out,
            calls=12 + n * (4 + 4 * taps))
    if p.group == p.in_c == p.out_c:
        # per tap a multiply into the product buffer, then its sum
        return KernelWork(
            moved=common + cpad * taps * (ow + 1) + 2 * n * taps * pix * cpad,
            calls=12 + n * (4 + 2 * taps))
    # grouped: each group runs densely between NCHW round trips
    icg, ocg = p.in_c // p.group, p.out_c // p.group
    sub = ConvParams(p.kh, p.kw, p.stride_h, p.stride_w, p.pad_h, p.pad_w,
                     icg, ocg)
    work = KernelWork(moved=n * p.in_c * h * w + out * (5 + p.relu), calls=8)
    for _ in range(p.group):
        work += sliding_work(sub, n, h, w) + KernelWork(
            moved=2 * n * channel_blocks(icg) * LANES * h * w + 2 * n * ocg * pix,
            calls=6)
    return work


def _conv_dense(x: Tensor, w: np.ndarray, p: ConvParams,
                bias: np.ndarray | None, y: Tensor, oh: int, ow: int) -> None:
    n, _, h, wd = x.shape
    ibm = x.data.shape[1]
    cpad = ibm * LANES
    hp, wp = h + 2 * p.pad_h, wd + 2 * p.pad_w
    xp = np.zeros((n, hp, wp, cpad), dtype=np.float32)
    xp[:, p.pad_h:p.pad_h + h, p.pad_w:p.pad_w + wd] = (
        x.data.transpose(0, 2, 3, 1, 4).reshape(n, h, wd, cpad)
    )
    wmat = _pack_weight_columns(w, p.out_c, p.in_c)
    bias_full = _padded_bias(bias, p.out_c)
    obm = y.data.shape[1]
    for img in range(n):
        # one GEMM per window tap against every output block at once
        acc = None
        for u in range(p.kh):
            for v in range(p.kw):
                win = np.ascontiguousarray(
                    xp[img, u:u + p.stride_h * oh:p.stride_h,
                       v:v + p.stride_w * ow:p.stride_w]
                ).reshape(oh * ow, cpad)
                prod = win @ wmat[u * p.kw + v]
                if acc is None:
                    acc = prod
                else:
                    acc += prod
        if bias_full is not None:
            acc += bias_full
        if p.relu:
            np.maximum(acc, 0.0, out=acc)
        y.data[img] = acc.reshape(oh, ow, obm, LANES).transpose(2, 0, 1, 3)


def _conv_depthwise(x: Tensor, w: np.ndarray, p: ConvParams,
                    bias: np.ndarray | None, y: Tensor, oh: int,
                    ow: int) -> None:
    n, c, h, wd = x.shape
    ibm = x.data.shape[1]
    hp, wp = h + 2 * p.pad_h, wd + 2 * p.pad_w
    xp = np.zeros((n, ibm, hp, wp, LANES), dtype=np.float32)
    xp[:, :, p.pad_h:p.pad_h + h, p.pad_w:p.pad_w + wd] = x.data
    flat = np.zeros((ibm * LANES, p.kh, p.kw), dtype=np.float32)
    flat[:c] = w.astype(np.float32).reshape(c, p.kh, p.kw)
    # [ibm, kh, kw, ow, lanes]: each tap's weights repeated along the output
    # row, so the multiply-add runs over ow*4 contiguous floats, not 4
    wrow = np.ascontiguousarray(np.broadcast_to(
        flat.reshape(ibm, LANES, p.kh, p.kw).transpose(0, 2, 3, 1)[:, :, :, None],
        (ibm, p.kh, p.kw, ow, LANES)))
    bias_full = _padded_bias(bias, p.out_c)
    for img in range(n):
        acc = y.data[img]  # zero-filled [ibm, oh, ow, lanes]
        prod = np.empty_like(acc)
        for u in range(p.kh):
            for v in range(p.kw):
                win = xp[img, :, u:u + p.stride_h * oh:p.stride_h,
                         v:v + p.stride_w * ow:p.stride_w]
                np.multiply(win, wrow[:, None, u, v], out=prod)
                acc += prod
        if bias_full is not None:
            acc += bias_full.reshape(ibm, 1, 1, LANES)
        if p.relu:
            np.maximum(acc, 0.0, out=acc)


def _conv_grouped(x: Tensor, w: np.ndarray, p: ConvParams,
                  bias: np.ndarray | None, y: Tensor, oh: int,
                  ow: int) -> None:
    # uncommon path: run each group densely over NCHW channel slices
    from .tensor import pack_nc4hw4, unpack_nc4hw4, from_nchw

    n, c, h, wd = x.shape
    icg, ocg = p.in_c // p.group, p.out_c // p.group
    x_nchw = unpack_nc4hw4(x)
    out = np.zeros((n, p.out_c, oh, ow), dtype=np.float32)
    sub_p = ConvParams(p.kh, p.kw, p.stride_h, p.stride_w, p.pad_h, p.pad_w,
                       icg, ocg, 1, False)
    for g in range(p.group):
        xg = pack_nc4hw4(from_nchw(x_nchw.data[:, g * icg:(g + 1) * icg]))
        yg = conv_sliding(xg, w[g * ocg:(g + 1) * ocg], sub_p)
        out[:, g * ocg:(g + 1) * ocg] = unpack_nc4hw4(yg).data
    if bias is not None:
        out += bias.astype(np.float32).reshape(1, p.out_c, 1, 1)
    if p.relu:
        np.maximum(out, 0.0, out=out)
    y.data[:] = pack_nc4hw4(from_nchw(out)).data
