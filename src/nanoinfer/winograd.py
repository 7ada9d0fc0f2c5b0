"""Runtime-generated Winograd convolution of arbitrary tile/kernel size.

The transform triple (A, B, G) for an n x n output tile and k x k kernel is
built on demand from polynomial interpolation over the points
{0, f, -f, 2f, -2f, ...} plus the point at infinity, in exact rational
arithmetic, then rounded once to float.  Convention: G and A hold plain
point-power evaluations, the interpolation inverse lands in B, and each
column of B is scaled integral with the factor folded back into the
matching row of G.  For (n=2, k=3, f=1) this reproduces the classical
matrices up to per-row sign.

The convolution (winograd_nhwc4) runs every tile of every image as one
batch in one layout: gather the input patches, the alpha x alpha windows at
stride n of kernels.border's padded input, through kernels.windows into
[alpha, alpha * C * T], run Bt X B and then At M A as two GEMMs with
K = alpha each, one per patch axis, around one batched GEMM over channels
on [alpha^2, C, T], and scatter the output tiles into the caller's NHWC4
output array (a session passes the pool array), through a cropped padded
map unless the tiles cover the output exactly.  It reads sliding window's
operand type (kernels.ConvWeights, with the transformed weights and the
transform) and ends in its epilogue, kernels.bias_relu.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Hashable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ShapeMismatchError, UnsupportedSizeError
from .kernels import (
    LANES, ConvParams, ConvWeights, KernelWork, bias_relu, border, pack_conv,
    run_nhwc4, windows,
)
from .tensor import Tensor, channel_blocks

MAX_ALPHA = 10  # accuracy guard: larger transforms are routed to sliding window
TILE_CANDIDATES = (2, 4, 6)
DEFAULT_SPACING = 0.5


@dataclass(frozen=True)
class WinogradTransform:
    """Transform triple for n x n output tiles of a k x k kernel.

    A: (alpha, n) output transform, B: (alpha, alpha) input transform,
    G: (alpha, k) kernel transform, with alpha = n + k - 1.  Satisfies
    At [(G w Gt) o (Bt x B)] A == valid convolution of x by w.  bt and at
    are Bt and At cast to float32 once, as conv_winograd multiplies by them.
    """

    n: int
    k: int
    alpha: int
    f: float
    A: np.ndarray
    B: np.ndarray
    G: np.ndarray
    bt: np.ndarray = field(init=False, repr=False, compare=False)
    at: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bt", self.B.T.astype(np.float32, order="C"))
        object.__setattr__(self, "at", self.A.T.astype(np.float32, order="C"))


_cache_lock = threading.Lock()
_transform_cache: dict[tuple[int, int, str], WinogradTransform] = {}


def _interpolation_points(count: int, f: Fraction) -> list[Fraction]:
    pts = [Fraction(0)]
    i = 1
    while len(pts) < count:
        pts.append(i * f)
        if len(pts) < count:
            pts.append(-i * f)
        i += 1
    return pts[:count]


def _invert_rational(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by fraction-free (Bareiss) Gauss-Jordan elimination on
    integer-scaled rows: every entry stays a minor, so each division by the
    previous pivot is exact, and every row ends with the last pivot."""
    n = len(m)
    aug = []
    for i, row in enumerate(m):
        s = math.lcm(*(v.denominator for v in row))
        aug.append([v.numerator * (s // v.denominator) for v in row]
                   + [s * (i == j) for j in range(n)])
    prev = 1
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot_row = aug[col]
        pivot = pivot_row[col]
        for r in range(n):
            if r != col:
                factor = aug[r][col]
                aug[r] = [(pivot * a - factor * b) // prev
                          for a, b in zip(aug[r], pivot_row)]
        prev = pivot
    return [[Fraction(v, prev) for v in row[n:]] for row in aug]


def generate_transforms(n: int, k: int, f: float = DEFAULT_SPACING) -> WinogradTransform:
    """Build (A, B, G) for an n-tile, k-kernel convolution, memoized on (n, k, f).

    A spacing whose triple has an entry beyond float64, or a Bt or At entry
    beyond float32, raises UnsupportedSizeError, as a non-finite one does.
    """
    if n < 1 or k < 1:
        raise UnsupportedSizeError(f"tile {n} and kernel {k} must be >= 1")
    if not (f > 0 and math.isfinite(f)):
        raise UnsupportedSizeError(
            f"point spacing f={f} must be positive and finite")
    alpha = n + k - 1
    if alpha > MAX_ALPHA:
        raise UnsupportedSizeError(
            f"n={n}, k={k} needs alpha={alpha} > {MAX_ALPHA} interpolation points"
        )
    key = (n, k, repr(float(f)))
    with _cache_lock:
        hit = _transform_cache.get(key)
    if hit is not None:
        return hit

    if alpha == 1:
        one = np.ones((1, 1), dtype=np.float64)
        t = WinogradTransform(n, k, 1, float(f), one, one.copy(), one.copy())
    else:
        fr = Fraction(repr(float(f)))
        pts = _interpolation_points(alpha - 1, fr)

        def power_rows(width: int) -> list[list[Fraction]]:
            rows = [[p ** j for j in range(width)] for p in pts]
            rows.append([Fraction(int(j == width - 1)) for j in range(width)])
            return rows

        a_rows = power_rows(n)
        g_rows = power_rows(k)
        b_cols = _invert_rational(power_rows(alpha))
        # scale each column of B integral; fold the factor into G's row
        for r in range(alpha):
            q = 1
            for i in range(alpha):
                q = math.lcm(q, b_cols[i][r].denominator)
            if q != 1:
                for i in range(alpha):
                    b_cols[i][r] *= q
                g_rows[r] = [g / q for g in g_rows[r]]

        def to_float(rows) -> np.ndarray:
            return np.array([[float(v) for v in row] for row in rows],
                            dtype=np.float64)

        try:
            with np.errstate(over="ignore"):  # checked below
                t = WinogradTransform(n, k, alpha, float(f), to_float(a_rows),
                                      to_float(b_cols), to_float(g_rows))
        except OverflowError:  # float() of a Fraction beyond float64
            t = None
        if t is None or not (np.isfinite(t.bt).all()
                             and np.isfinite(t.at).all()):
            raise UnsupportedSizeError(
                f"point spacing f={f}: the tile {n}, kernel {k} transform "
                "has entries beyond float32")
    with _cache_lock:
        _transform_cache.setdefault(key, t)
    return t


def winograd_work(p: ConvParams, n_tile: int, n: int, h: int,
                  w: int) -> KernelWork:
    """The work conv_winograd does at output tile n_tile on n images of h x w.

    Counted from its code, over every padded tile: ceil(oh/n)*ceil(ow/n)
    tiles per image, not oh*ow/n^2.  Each tile and input channel lane takes
    two alpha x alpha transform products, each output lane two more.
    """
    alpha = n_tile + p.kh - 1
    oh, ow = p.out_size(h, w)
    tiles_h, tiles_w = -(-oh // n_tile), -(-ow // n_tile)
    tiles = n * tiles_h * tiles_w
    cpad = channel_blocks(p.in_c) * LANES
    opad = channel_blocks(p.out_c) * LANES
    out = n * opad * oh * ow
    if out == 0:
        return KernelWork(calls=3)
    a2 = alpha * alpha
    hp, wp = (tiles_h - 1) * n_tile + alpha, (tiles_w - 1) * n_tile + alpha
    # the padded input, every element written once (none if x is it)
    padded = 0 if (hp, wp) == (h, w) else n * cpad * hp * wp
    # the crop into out, unless the tiles cover it exactly
    crop = tiles_h * n_tile != oh or tiles_w * n_tile != ow
    return KernelWork(
        gemm=a2 * cpad * opad * tiles,
        small=2 * tiles * (cpad + opad),
        # the padded input; both input transform products; the GEMM's
        # product and both output transform products; the crop, bias and
        # ReLU passes over out
        moved=(padded + 2 * tiles * cpad * a2
               + tiles * opad * (a2 + n_tile * alpha + n_tile * n_tile)
               + out * (1 + crop + p.relu)),
        # the patch gather and the scatter of output tiles
        shuffled=tiles * (cpad * a2 + opad * n_tile * n_tile),
        # counted when the patch gather's view was NumPy's generic window
        # view, about 15 calls' time; kept until the gather is re-measured
        calls=50)


def winograd_supported(p: ConvParams) -> bool:
    """Square kernel, stride 1, ungrouped, 2 <= k, and the smallest tile fits."""
    return (p.kh == p.kw and p.kh >= 2 and p.stride_h == 1 and p.stride_w == 1
            and p.group == 1 and p.kh + 2 - 1 <= MAX_ALPHA)


def weight_transform(w: np.ndarray, t: WinogradTransform) -> np.ndarray:
    """G w Gt per channel pair, as the operand of conv_winograd's GEMM.

    The layout is [alpha^2, out_c, in_c] with both channel axes zero-padded
    to whole 4-lane blocks.
    """
    out_c, in_c = w.shape[0], w.shape[1]
    if w.shape[2] != t.k or w.shape[3] != t.k:
        raise ShapeMismatchError(f"weight spatial {w.shape[2:]} != kernel {t.k}")
    g = t.G.astype(np.float32)
    u = np.einsum("ar,ocrs,bs->ocab", g, w.astype(np.float32), g,
                  optimize=True)  # [out_c, in_c, alpha, alpha]
    obm, ibm = channel_blocks(out_c), channel_blocks(in_c)
    a2 = t.alpha * t.alpha
    flat = np.zeros((a2, obm * LANES, ibm * LANES), dtype=np.float32)
    flat[:, :out_c, :in_c] = u.transpose(2, 3, 0, 1).reshape(a2, out_c, in_c)
    return flat


class WeightCache:
    """Store of conv and MatMul weights packed for a kernel (the plan keys
    them by preinference.weight_key), with hit/recompute instrumentation."""

    def __init__(self):
        self._store: dict[Hashable, object] = {}
        self.hits = 0
        self.recomputes = 0
        self._lock = threading.Lock()

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._store[key] = value

    def get(self, key: Hashable, compute=None):
        with self._lock:
            if key in self._store:
                self.hits += 1
                return self._store[key]
        if compute is None:
            raise KeyError(key)
        value = compute()
        with self._lock:
            self.recomputes += 1
            self._store[key] = value
        return value

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = 0
            self.recomputes = 0


def conv_winograd(x: Tensor, w: np.ndarray, p: ConvParams,
                  t: WinogradTransform, threads: int = 1,
                  bias: np.ndarray | None = None,
                  transformed: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> Tensor:
    """Winograd convolution over NHWC4 or NC4HW4 input, every tile in one
    batch.

    ``transformed`` may carry a cached weight_transform result, [alpha^2,
    out lanes, in lanes]; otherwise the kernel transform runs here.  The
    result has x's layout and is written as kernels.run_nhwc4 says (a
    session runs winograd_nhwc4 on its pool arrays instead).  Runs on the
    calling thread.  ``threads`` is accepted and ignored: the benchmark in
    perfbench/ still passes it, and it goes once it stops.
    """
    if p.kh != t.k or p.kw != t.k:
        raise ShapeMismatchError(f"params kernel {(p.kh, p.kw)} != transform k {t.k}")
    if not winograd_supported(p):
        raise ShapeMismatchError("convolution not eligible for the winograd path")
    umat = weight_transform(w, t) if transformed is None else transformed
    want = (t.alpha * t.alpha, channel_blocks(p.out_c) * LANES,
            channel_blocks(p.in_c) * LANES)
    if umat.shape != want:
        raise ShapeMismatchError(
            f"transformed weights {umat.shape} != {want}")
    packed = pack_conv(umat, p, bias, *p.out_size(*x.shape[2:]), t)
    return run_nhwc4(winograd_nhwc4, x, packed, p, out)


def winograd_nhwc4(x: np.ndarray, packed: ConvWeights, p: ConvParams,
                   out: np.ndarray) -> None:
    """conv_winograd on NHWC4 arrays, as a session runs it: x [n, h, w, in
    lanes] into out [n, oh, ow, out lanes], contiguous float32, every
    element of which is written, at packed.transform's tile.

    Each GEMM reads the one before as it lies, so nothing is copied between
    the patch gather and the tile scatter, and each sums in the order of
    per-tile alpha x alpha products, to their bits (tests hold it to that).
    Zero weights at the pad lanes keep those lanes zero.
    """
    t = packed.transform
    n_img, _, _, cpad = x.shape
    _, oh, ow, opad = out.shape
    nh, alpha = t.n, t.alpha
    tiles_h, tiles_w = -(-oh // nh), -(-ow // nh)
    tiles, a2 = n_img * tiles_h * tiles_w, alpha * alpha
    # pad the input so every alpha x alpha patch is in bounds, then gather
    # the patches [alpha, alpha * C * T]: patch row by (patch column,
    # channel lane, tile), tiles in (image, tile row, tile col) order
    xp = border(x, p.pad_h, p.pad_w, (tiles_h - 1) * nh + alpha,
                (tiles_w - 1) * nh + alpha)
    patches = windows(xp, alpha, alpha, nh, nh, tiles_h, tiles_w).transpose(
        3, 4, 5, 0, 1, 2).reshape(alpha, -1)
    del xp  # the reshape copied it

    # Bt X B, one GEMM per patch axis; the channel GEMM per tile point;
    # At M A like Bt X B.  Each GEMM reads the one before as it lies.
    v = np.matmul(t.bt, np.matmul(t.bt, patches).reshape(alpha, alpha, -1))
    m = np.matmul(packed.mats, v.reshape(a2, cpad, tiles))  # [a2, O, T]
    out_tiles = np.matmul(t.at, np.matmul(t.at, m.reshape(alpha, -1))
                          .reshape(nh, alpha, -1))  # [nh, nh, O * T]

    # the tiles land in their pixels, seen as [nh, nh, out lane, image,
    # tile row, tile col]: in out itself when they tile it exactly, else in
    # a padded map whose crop fills out
    exact = tiles_h * nh == oh and tiles_w * nh == ow
    ypad = out if exact else np.empty(
        (n_img, tiles_h * nh, tiles_w * nh, opad), dtype=np.float32)
    ypad.reshape(n_img, tiles_h, nh, tiles_w, nh, opad).transpose(
        2, 4, 5, 0, 1, 3)[:] = out_tiles.reshape(
            nh, nh, opad, n_img, tiles_h, tiles_w)
    if not exact:
        out[:] = ypad[:, :oh, :ow]
    for img in range(n_img):
        bias_relu(out[img], packed)
