"""Runtime-generated Winograd convolution of arbitrary tile/kernel size.

The transform triple (A, B, G) for an n x n output tile and k x k kernel is
built on demand from polynomial interpolation over the points
{0, f, -f, 2f, -2f, ...} plus the point at infinity, in exact rational
arithmetic, then rounded once to float.  Convention: G and A hold plain
point-power evaluations, the interpolation inverse lands in B, and each
column of B is scaled integral with the factor folded back into the
matching row of G.  For (n=2, k=3, f=1) this reproduces the classical
matrices up to per-row sign.

The convolution runs every tile of every image as one batch: tile the
output, gather all input patches into one tile-major array, transform them
(Bt X B), reduce over channels as one batched matrix multiplication in the
lane-packed layout, transform back (At Y A), scatter the tiles and crop them
into the caller's output array (a session passes the step's pool view).
"""

from __future__ import annotations

import math
import threading
from collections.abc import Hashable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ShapeMismatchError, UnsupportedSizeError
from .kernels import LANES, ConvParams, KernelWork, _padded_bias
from .tensor import Layout, Tensor, channel_blocks

MAX_ALPHA = 10  # accuracy guard: larger transforms are routed to sliding window
TILE_CANDIDATES = (2, 4, 6)
DEFAULT_SPACING = 0.5


@dataclass(frozen=True)
class WinogradTransform:
    """Transform triple for n x n output tiles of a k x k kernel.

    A: (alpha, n) output transform, B: (alpha, alpha) input transform,
    G: (alpha, k) kernel transform, with alpha = n + k - 1.  Satisfies
    At [(G w Gt) o (Bt x B)] A == valid convolution of x by w.
    """

    n: int
    k: int
    alpha: int
    f: float
    A: np.ndarray
    B: np.ndarray
    G: np.ndarray


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
    """Build (A, B, G) for an n-tile, k-kernel convolution, memoized on (n, k, f)."""
    if n < 1 or k < 1:
        raise UnsupportedSizeError(f"tile {n} and kernel {k} must be >= 1")
    if not f > 0:
        raise UnsupportedSizeError(f"point spacing f={f} must be positive")
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

        t = WinogradTransform(n, k, alpha, float(f), to_float(a_rows),
                              to_float(b_cols), to_float(g_rows))
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
    padded = n * cpad * ((tiles_h - 1) * n_tile + alpha) \
        * ((tiles_w - 1) * n_tile + alpha)
    return KernelWork(
        gemm=a2 * cpad * opad * tiles,
        small=2 * tiles * (cpad + opad),
        # zero-filled padded input, the input copied in; both input
        # transform products; the GEMM's product and both output transform
        # products; the crop of the tiled output into out, bias and ReLU
        moved=(padded + n * cpad * h * w + 2 * tiles * cpad * a2
               + tiles * opad * (a2 + n_tile * alpha + n_tile * n_tile)
               + out * (2 + p.relu)),
        # the patches, the re-layouts of the transformed input and of the
        # GEMM's product, and the scatter of output tiles
        shuffled=tiles * (2 * cpad * a2 + opad * a2 + opad * n_tile * n_tile),
        # sliding_window_view alone takes as long as about 15 calls
        calls=60)


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
    """Winograd convolution over NC4HW4 input, every tile in one batch.

    ``transformed`` may carry a cached weight_transform result; otherwise the
    kernel transform runs inline.  The input patches of every tile form one
    tile-major array, transformed with whole-array matrix products; one GEMM
    per point of the alpha x alpha tile reduces over channels, and the output
    tiles are cropped into the result.  The result is written into ``out``,
    an NC4HW4 float32 array of the output's packed shape, when given (every
    element, pad lanes included), else into a new one.  Runs on the calling
    thread.  ``threads`` is accepted and ignored: the benchmark in
    perfbench/ still passes it, and it goes once it stops.
    """
    if x.layout is not Layout.NC4HW4:
        raise ShapeMismatchError("conv_winograd expects NC4HW4 input")
    if p.kh != t.k or p.kw != t.k:
        raise ShapeMismatchError(f"params kernel {(p.kh, p.kw)} != transform k {t.k}")
    if not winograd_supported(p):
        raise ShapeMismatchError("convolution not eligible for the winograd path")
    n_img, c, h, wd = x.shape
    if c != p.in_c:
        raise ShapeMismatchError(f"input channels {c} != params in_c {p.in_c}")
    oh, ow = p.out_size(h, wd)
    obm, ibm = channel_blocks(p.out_c), channel_blocks(c)
    shape = (n_img, obm, oh, ow, LANES)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape or out.dtype != np.float32:
        raise ShapeMismatchError(
            f"output {out.dtype} {out.shape} != float32 {shape}")
    y = Tensor(shape=(n_img, p.out_c, oh, ow), layout=Layout.NC4HW4, data=out)
    if out.size == 0:
        return y
    nh = t.n
    alpha = t.alpha
    tiles_h = -(-oh // nh)
    tiles_w = -(-ow // nh)
    tiles = n_img * tiles_h * tiles_w
    umat = weight_transform(w, t) if transformed is None else transformed
    bt = np.ascontiguousarray(t.B.T.astype(np.float32))
    bmat = t.B.astype(np.float32)
    at = np.ascontiguousarray(t.A.T.astype(np.float32))
    amat = t.A.astype(np.float32)

    # pad input so every alpha x alpha patch is in bounds
    hp = (tiles_h - 1) * nh + alpha
    wp = (tiles_w - 1) * nh + alpha
    xp = np.zeros((n_img, ibm, hp, wp, LANES), dtype=np.float32)
    xp[:, :, p.pad_h:p.pad_h + h, p.pad_w:p.pad_w + wd] = x.data
    # tile-major patches [tiles, C, alpha, alpha] in (image, tile row, tile
    # col) order, channels lane-major within a block
    patches = np.lib.stride_tricks.sliding_window_view(
        xp, (alpha, alpha), axis=(2, 3)
    )[:, :, ::nh, ::nh].transpose(0, 2, 3, 1, 4, 5, 6).reshape(
        tiles, ibm * LANES, alpha, alpha)
    del xp  # the reshape copied it

    v = bt @ patches @ bmat  # [tiles, C, alpha, alpha]
    v = np.ascontiguousarray(
        v.transpose(2, 3, 1, 0).reshape(alpha * alpha, ibm * LANES, tiles))
    m = np.matmul(umat, v)  # [alpha^2, out lanes, tiles]
    m = np.ascontiguousarray(
        m.reshape(alpha, alpha, obm * LANES, tiles).transpose(3, 2, 0, 1))
    out_tiles = at @ m @ amat  # [tiles, out lanes, nh, nh]

    # the tiles land in their pixels of a padded output, seen as [image,
    # tile row, tile col, out block, lane, nh, nh]; the crop fills out
    ypad = np.empty((n_img, obm, tiles_h * nh, tiles_w * nh, LANES),
                    dtype=np.float32)
    ypad.reshape(n_img, obm, tiles_h, nh, tiles_w, nh, LANES).transpose(
        0, 2, 4, 1, 6, 3, 5)[:] = out_tiles.reshape(
            n_img, tiles_h, tiles_w, obm, LANES, nh, nh)
    out[:] = ypad[:, :, :oh, :ow]
    bias_full = _padded_bias(bias, p.out_c)
    if bias_full is not None:
        out += bias_full.reshape(obm, 1, 1, LANES)
    if p.relu:
        np.maximum(out, 0.0, out=out)
    # pad output lanes stay zero even after bias
    if p.out_c % LANES:
        out[:, -1, :, :, p.out_c % LANES:] = 0.0
    return y
