"""Minimal convolutional network engine with exact-gradient backpropagation.

Activations are NCHW.  Each layer computes in the dtype of the batch it is
given: float32 stays float32 (training and evaluation use it), anything else
runs in float64.  Parameters and momentum are float64 master copies, cast
to the batch dtype on every call.  Convolutions are stride-1 and
zero-padded, lowered to matrix products one cache-sized tile of samples at
a time, so no whole-batch patch matrix is ever built; the input gradient is
itself such a convolution.  The forward and the input gradient gather each
padded row's kw horizontal taps once, as strips: kw copies of the input,
not the kh*kw of an im2col matrix.  Output row y's patches are then the kh
strips from row y on, so one GEMM per output row reads them in place
through an overlapping view (MEC: Cho & Brand, arXiv 1706.06873).  The
weight gradient gathers each tile's im2col matrix (Chellapilla, Puri &
Simard, 2006) and takes one GEMM per tile: a strip version of it was
faster for the 11x11 and 5x5 convs but slower for the 3x3 ones.  There
are two lowerings.  A conv whose input has one channel, or whose batch
repeats its rows, pads NCHW and gathers tap-major tiles: its strip GEMM
writes whole NCHW output rows, and its im2col matrix is gathered
sample-inner, (channels, kh, kw, sample, pixel), in runs of an output
row.  Every other conv pads NHWC and gathers channels-last tiles, whose
strip product is transposed into the output while in cache.  Max pooling
is 2x2 with deterministic first-maximum tie-breaking.  A block that pools
does so before its ReLU: max commutes with ReLU, and a window's first maximum
passes gradient exactly when it is positive, so outputs and gradients are
those of ReLU then pool bit for bit, while the ReLU touches a quarter of
the data.  A fused inference forward runs each conv -> max-pool -> ReLU
triple (or a conv -> ReLU -> max-pool one, as older model files hold) as
one pass: every tile's product is pooled while it is in cache, then biased
and rectified, so no full-resolution activation is written, and the result
equals the layer-by-layer forward bit for bit.  The classifier head is a
two-way softmax trained with cross-entropy under SGD with momentum and
weight decay.

A "same"-padded conv whose batch repeats every row exactly in aligned
groups of r > 1 (r a power of two), as the AP tensor's rows repeat in
fours, runs on the batch's every r-th row alone: its kernel is expanded to
one block of output channels per output row phase, each block summing the
kernel rows that read one source row (the sub-pixel convolution identity
of Shi et al., arXiv 1609.05158), and its weight gradient folds back
through the same 0/1 map.  r is found per batch from the rows themselves,
compared with ``np.array_equal``; a batch whose first sample differs
between rows 0 and 1 pays that one comparison and runs at r = 1.  Results
equal those at r = 1 up to rounding, and the guarantees below hold at
every r.

The per-sample passes of the conv, ReLU and pool layers run on contiguous
ranges of samples, one range per worker thread, so the engine uses the CPUs
that BLAS leaves idle: there are ``cpus // blas_threads`` workers, where the
BLAS thread count is read from the variables OpenBLAS reads
(``OPENBLAS_NUM_THREADS``, then ``OMP_NUM_THREADS``); when neither holds a
positive count, BLAS takes every CPU itself and the engine runs in the
calling thread alone.  A pass takes only as many ranges as hold enough work
to pay for a thread: bytes moved, or for a conv its GEMM FLOPs.  Tiles
depend only on array shapes, a range holds whole tiles, and the weight
gradient sums one partial per tile in tile order, so every output, gradient
and trained parameter is bitwise reproducible for a fixed BLAS thread count
at any worker count (GEMM results can differ in the last bits between BLAS
thread counts).  The calling thread allocates every buffer the workers
write into.  The worker threads do not survive ``fork``, so a child process
starts its own pool on first use.

Four model variants share one conv stack (kernels 11, 5, 3, 3, 3; convs
1, 2, 3 and 5 are each followed by a 2x2 max pool and then a ReLU, conv 4
by a ReLU alone):
S takes a 1x64x64 spectrogram, AP the 2x64x64 amplitude+phase stack, and
A / P a 1x32x32 reshape of the respective 1024-vector.  ``width_scale``
shrinks every conv width proportionally for CPU-friendly experiments.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .schema import check_types

CONV_WIDTHS = (32, 32, 64, 64, 64)
CONV_KERNELS = (11, 5, 3, 3, 3)
POOL_AFTER = (True, True, True, False, True)
DENSE_WIDTH = 128
N_CLASSES = 2

INPUT_SHAPES = {
    "S": (1, 64, 64),
    "AP": (2, 64, 64),
    "A": (1, 32, 32),
    "P": (1, 32, 32),
}

_MAGIC = b"RMONCNN1"
_VERSION = 1


_TILE_BYTES = 2**21  # about one L2: the im2col matrix, or the GEMM product if larger, of one tile of samples
# Below this a range is not worth a thread: numpy keeps the interpreter lock
# on small arrays, so two threads would mostly wait for each other.
_MIN_RANGE_BYTES = 2**20
# A conv pass's work is its GEMM, counted against the floor above at this many
# FLOPs per byte.  Its im2col gather does not count: a second thread does not
# speed that memory-bound copy up, and the second tile buffer costs page faults.
_FLOPS_PER_BYTE = 64


def _workers_for(environ, cpus: int) -> int:
    """Worker threads that fill the CPUs BLAS leaves idle: ``cpus // blas_threads``, at least 1.

    The BLAS thread count is the first positive integer among the variables
    OpenBLAS reads; without one, BLAS runs a thread on every CPU.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return max(1, cpus // threads)
    return 1


_WORKERS = _workers_for(os.environ, len(os.sched_getaffinity(0)))


@functools.lru_cache(maxsize=1)
def _executor(pid: int, threads: int) -> ThreadPoolExecutor:
    """The threads that help the calling one.

    Keyed by ``os.getpid()``: a forked child has none of its parent's threads.
    """
    return ThreadPoolExecutor(threads, thread_name_prefix="radarmon-nn")


def _split(n: int, sample_work: int, step: int = 1) -> list[tuple[int, int]]:
    """Contiguous ranges covering 0..n-1, one per worker, with boundaries at multiples of ``step``.

    Each range holds at least ``_MIN_RANGE_BYTES`` of work, at ``sample_work``
    per sample: the bytes a memory-bound pass moves per sample, or a conv
    pass's GEMM FLOPs divided by ``_FLOPS_PER_BYTE``.
    """
    steps = -(-n // step)
    parts = max(1, min(_WORKERS, steps, n * sample_work // _MIN_RANGE_BYTES))
    bounds = [min(n, step * (steps * i // parts)) for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _call_once(box: list, *args) -> None:
    """Call the function in ``box`` and drop it before the caller learns it is done.

    A pool thread still holds its task for a moment after the future
    resolves; emptying ``box`` keeps the buffers ``fn`` reaches from
    outliving the pass.
    """
    box.pop()(*args)


def _run(fn, ranges) -> None:
    """Call ``fn(i, lo, hi)`` for each range, the first in this thread, and wait for all.

    ``fn`` runs only numpy and private helpers of this module: it writes
    into slices of buffers the caller allocated, never into a new array.
    """
    if len(ranges) == 1:
        fn(0, *ranges[0])
        return
    pool = _executor(os.getpid(), _WORKERS - 1)
    futures = [pool.submit(_call_once, [fn], i, lo, hi) for i, (lo, hi) in enumerate(ranges) if i]
    try:
        fn(0, *ranges[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _tap_major(in_ch: int, r: int) -> bool:
    """Whether a conv of ``in_ch`` input channels at row repeat ``r`` takes the tap-major lowering."""
    return in_ch == 1 or r > 1  # several channels at r = 1 run faster channels-last (ROADMAP "Measured")


def _nhwc(xp: np.ndarray, tap_major: bool) -> np.ndarray:
    """Padded input ``xp`` viewed as NHWC: a tap-major one is NCHW."""
    return xp.transpose(0, 2, 3, 1) if tap_major else xp


def _padded(x: np.ndarray, pad: int, r: int = 1) -> np.ndarray:
    """NCHW ``x``'s every r-th row with ``pad`` zero columns and ceil(pad/r) zero rows each side.

    The copy is NCHW for the tap-major lowering, else NHWC.
    """
    x = x[:, :, ::r]
    n, c, h, w = x.shape
    rp = -(-pad // r)
    tap_major = _tap_major(c, r)
    xp = np.zeros((n, c, h + 2 * rp, w + 2 * pad) if tap_major else (n, h + 2 * rp, w + 2 * pad, c), dtype=x.dtype)
    inner = _nhwc(xp, tap_major)[:, rp : rp + h, pad : pad + w]

    def work(_, lo, hi):
        inner[lo:hi] = x[lo:hi].transpose(0, 2, 3, 1)

    _run(work, _split(n, xp[:1].nbytes))
    return xp


def _tile_buffers(xp: np.ndarray, k: int, out_ch: int, kh: int | None = None, tap_major: bool = False,
                  strips: bool = False) -> tuple[list[tuple[int, int]], list[np.ndarray]]:
    """Worker ranges of whole tiles over padded ``xp``, and one gather buffer per range.

    ``xp`` is NCHW if ``tap_major``, else NHWC.  The kernel is ``kh`` x
    ``k``, square unless ``kh`` is given.  A tile holds as many whole
    samples (at least one) as keep both its im2col matrix and its GEMM
    product, of ``out_ch`` rows, within ``_TILE_BYTES``; the ranges count
    that GEMM's work.  The buffer, indexed by sample first, holds a tile's
    im2col matrix: per sample (channels, kh, kw, ho, wo) tap-major, else
    (ho, wo, kh, kw, channels).  A tap-major one is laid out sample-inner,
    (channels, kh, kw, sample, ho, wo), so the tile's patches stay one
    matrix.  With ``strips`` it holds the tile's strips instead
    (``_strip_tiles``), kh times smaller: per sample (padded row, channels,
    kw, wo) tap-major, else (wo, padded row, kw, channels).
    """
    n, hp, wp, c = _nhwc(xp, tap_major).shape
    kh = k if kh is None else kh
    ho, wo = hp - kh + 1, wp - k + 1
    patches = (c, kh, k, ho, wo) if tap_major else (ho, wo, kh, k, c)
    t = max(1, min(n, _TILE_BYTES // (max(math.prod(patches), ho * wo * out_ch) * xp.itemsize)))
    ranges = _split(n, 2 * ho * wo * kh * k * c * out_ch // _FLOPS_PER_BYTE, t)
    sample = ((hp, c, k, wo) if tap_major else (wo, hp, k, c)) if strips else patches
    at = 3 if tap_major and not strips else 0  # the sample axis's place in memory
    return ranges, [np.moveaxis(np.empty((*sample[:at], t, *sample[at:]), dtype=xp.dtype), at, 0)
                    for _ in ranges]


def _gather_tiles(view: np.ndarray, lo: int, hi: int, buf: np.ndarray):
    """Yield (a, b, buf[:b - a]) holding samples a..b-1 of ``view``, for samples lo..hi-1, ``len(buf)`` at a time."""
    for a in range(lo, hi, len(buf)):
        m = min(len(buf), hi - a)
        np.copyto(buf[:m], view[a : a + m])
        yield a, a + m, buf[:m]


def _im2col_tiles(xp: np.ndarray, lo: int, hi: int, buf: np.ndarray, tap_major: bool = False):
    """Yield (a, b, cols): the (patch, samples*pixels) im2col matrix of samples a..b-1 of padded ``xp``.

    ``buf`` and ``tap_major`` come from the same ``_tile_buffers`` call; the
    next tile overwrites ``buf``, and ``cols`` views it.  A tap-major cols
    is gathered sample-inner in runs of a whole output row, its patch
    (channels, kh, kw) and row-major; a channels-last one is gathered
    pixel-major in runs of kw*channels, its patch (kh, kw, channels) and
    column-major.  Either way ``np.matmul`` hands it to BLAS as it is.
    """
    s0, s1, s2, sc = _nhwc(xp, tap_major).strides
    strides = (s0, sc, s1, s2, s1, s2) if tap_major else (s0, s1, s2, s1, s2, sc)
    view = np.lib.stride_tricks.as_strided(xp, (len(xp), *buf.shape[1:]), strides, writeable=False)
    order = (1, 2, 3, 0, 4, 5) if tap_major else (3, 4, 5, 0, 1, 2)  # (patch, sample, pixel)
    patch = math.prod(buf.shape[i] for i in order[:3])
    for a, z, tile in _gather_tiles(view, lo, hi, buf):
        yield a, z, tile.transpose(order).reshape(patch, -1)


def _strip_tiles(xp: np.ndarray, lo: int, hi: int, buf: np.ndarray, kh: int, phases: int, tap_major: bool):
    """Yield (a, b, rows): the GEMM operands of samples a..b-1 of padded ``xp``, read from their strips.

    ``buf`` comes from ``_tile_buffers(..., strips=True)`` with the same
    ``tap_major``; the next tile overwrites it.  It holds each padded row's
    kw horizontal taps once, so output row y's patches are the kh strips
    from row y on, one block.  ``rows`` views them without a copy as
    (samples, phases, rows per phase, matrix): output row y = phases*j + p
    at [:, p, j].  A tap-major matrix is (kh*channels*kw, wo), contiguous,
    for a kernel ordered (out, kh, in, kw); a channels-last one is (wo,
    kh*kw*channels), its rows a padded row's worth of strips apart.  Both
    keep unit inner strides, so ``np.matmul`` hands each to BLAS.
    """
    s0, s1, s2, sc = _nhwc(xp, tap_major).strides
    strides = (s0, s1, sc, s2, s2) if tap_major else (s0, s2, s1, s2, sc)
    view = np.lib.stride_tricks.as_strided(xp, (len(xp), *buf.shape[1:]), strides, writeable=False)
    if tap_major:
        _, hp, c, kw, wo = buf.shape
        row, matrix, matrix_strides = buf.strides[1], (kh * c * kw, wo), buf.strides[3:]
    else:
        _, wo, hp, kw, c = buf.shape
        row, matrix, matrix_strides = buf.strides[2], (wo, kh * kw * c), (buf.strides[1], buf.strides[4])
    rows = (phases, (hp - kh + 1) // phases, *matrix)
    for a, z, tile in _gather_tiles(view, lo, hi, buf):
        yield a, z, np.lib.stride_tricks.as_strided(tile, (z - a, *rows), (buf.strides[0], row, phases * row,
                                                                            *matrix_strides), writeable=False)


def _pooled_shape(shape: tuple) -> tuple:
    """The NCHW ``shape`` after 2x2 max pooling; odd sizes are rejected, not floored."""
    n, ch, h, w = shape
    if h % 2 or w % 2:
        raise ValueError(f"2x2 max pooling needs an even height and width, got shape {tuple(shape)}")
    return n, ch, h // 2, w // 2


def _pool_relu_tile(prod: np.ndarray, half: np.ndarray, pairs: np.ndarray, bias: np.ndarray | None,
                    out: np.ndarray) -> None:
    """2x2 max of a tile's product, plus ``bias``, rectified, into ``out``.

    ``prod`` holds the two rows of each pool window on axis 2; their max
    goes into the contiguous ``half``, of the same shape without that axis.
    ``pairs`` views ``half`` as (column phase, *out.shape), so the column
    max runs on half-size data, and the bias and ReLU touch only the
    quarter-size result.
    """
    np.maximum(prod[:, :, 0], prod[:, :, 1], out=half)
    np.maximum(pairs[0], pairs[1], out=out)
    if bias is not None:
        out += bias
    np.maximum(out, 0, out=out)


def _conv(xp: np.ndarray, w: np.ndarray, b: np.ndarray | None = None, pool_relu: bool = False,
          r: int = 1) -> np.ndarray:
    """Valid correlation of ``_padded`` input ``xp`` with (r*out, in, kh, kw) ``w``, plus bias ``b``, as NCHW.

    ``w`` is ``Conv2d._phase_kernel(r)``: row block p applied to source row
    Y gives output row r*Y + p.  Each tile is gathered as strips and takes
    one GEMM per output row (``_strip_tiles``).  With ``pool_relu`` each
    tile's product is 2x2-max-pooled while it is in cache (a window's two
    rows are phases 2j and 2j + 1: of the output rows at r = 1, of the
    source row's output at r > 1), then biased and rectified, so the
    full-resolution output never exists.  Max commutes with ReLU and,
    because rounding is monotone, with the bias add; so the result equals
    conv, pool and ReLU (or conv, ReLU and pool) in turn bit for bit.
    """
    rows, in_ch, kh, kw = w.shape
    out_ch = rows // r
    tap_major = _tap_major(in_ch, r)
    _, hp, wp, _ = _nhwc(xp, tap_major).shape
    ho, wo = hp - kh + 1, wp - kw + 1  # at r > 1, the source rows' output
    full = (len(xp), out_ch, r * ho, wo)
    out = np.empty(_pooled_shape(full) if pool_relu else full, dtype=xp.dtype)
    bias = None if b is None else b.astype(xp.dtype)[:, None, None]
    phases = 2 if pool_relu and r == 1 else 1
    ranges, bufs = _tile_buffers(xp, kw, rows, kh, tap_major, strips=True)
    # per worker: the row max of one tile's product
    halves = [np.empty((len(buf), rows * ho * wo // 2), dtype=xp.dtype) for buf in bufs] if pool_relu else None
    if tap_major:  # the GEMM writes NCHW rows, directly unless pooled or phased
        w2 = w.transpose(0, 2, 1, 3).reshape(rows, -1).astype(xp.dtype)
        direct = r == 1 and not pool_relu
        # (samples, phase, GEMM row, row, wo): output row phases*j + p's product is [:, p, :, j]
        prods = None if direct else [np.empty((len(buf), phases, rows, ho // phases, wo), dtype=xp.dtype)
                                     for buf in bufs]
        g = max(r, 2) // 2  # pool windows per phased row

        def work(i, lo, hi):
            for a, z, strips in _strip_tiles(xp, lo, hi, bufs[i], kh, phases, tap_major):
                m, y = z - a, out[a:z]
                prod = y.reshape(m, 1, out_ch, ho, wo) if direct else prods[i][:m]
                np.matmul(w2, strips, out=prod.transpose(0, 1, 3, 2, 4))
                if pool_relu:  # phases 2j and 2j + 1 of a phased row pool into output row g*row + j
                    half = halves[i][:m].reshape(m, g, -1)
                    pairs = half.reshape(m, g, out_ch, -1, wo // 2, 2).transpose(5, 0, 2, 3, 1, 4)
                    y, window_bias = y.reshape(m, out_ch, -1, g, wo // 2), None if bias is None else bias[:, None]
                    _pool_relu_tile(prod.reshape(m, g, 2, -1), half, pairs, window_bias, y)
                elif r > 1:  # whole output rows
                    by_row = prod.reshape(m, r, out_ch, ho, wo).transpose(0, 2, 3, 1, 4)
                    np.copyto(y.reshape(m, out_ch, ho, r, wo), by_row)
                if not pool_relu and bias is not None:
                    y += bias  # after the copy: a broadcast bias would slow it 1.5x

    else:  # r = 1: each tile's NHWC product is transposed into the output while in cache
        w2 = w.transpose(2, 3, 1, 0).reshape(-1, out_ch).astype(xp.dtype)
        prods = [np.empty((len(buf), phases, ho // phases, wo, out_ch), dtype=xp.dtype) for buf in bufs]

        def work(i, lo, hi):
            for a, z, strips in _strip_tiles(xp, lo, hi, bufs[i], kh, phases, tap_major):
                m, y = z - a, out[a:z]
                prod = np.matmul(strips, w2, out=prods[i][:m])
                if pool_relu:  # the column max writes the quarter-size result transposed
                    half = halves[i][:m].reshape(m, 1, -1)
                    pairs = half.reshape(m, ho // 2, wo // 2, 2, out_ch).transpose(3, 0, 4, 1, 2)
                    _pool_relu_tile(prod.reshape(m, 1, 2, -1), half, pairs, bias, y)
                elif bias is None:
                    np.copyto(y, prod[:, 0].transpose(0, 3, 1, 2))
                else:
                    np.add(prod[:, 0].transpose(0, 3, 1, 2), bias, out=y)

    _run(work, ranges)
    return out


def _row_repeat(x: np.ndarray) -> int:
    """The largest power of two r such that each row of NCHW ``x`` equals the others of its aligned group of r.

    A power of two, so that a 2x2 pool window's rows are adjacent row phases
    of one group.  Rows are compared with ``np.array_equal``.  A batch whose first
    sample differs between rows 0 and 1 costs that one comparison; otherwise
    every row of the batch is compared with the one above it.
    """
    h = x.shape[2]
    if h < 2 or not np.array_equal(x[0, :, 0], x[0, :, 1]):
        return 1
    starts = np.flatnonzero(np.any(x[:, :, 1:] != x[:, :, :-1], axis=(0, 1, 3))) + 1
    g = math.gcd(h, *starts.tolist())  # the rows repeat in groups of every divisor of g
    return g & -g


def _phase_map(k: int, pad: int, r: int) -> np.ndarray:
    """The (r, k, 2*ceil(pad/r) + 1) 0/1 map from (output row phase, kernel row) to source row offset.

    In a "same" convolution (``2 * pad == k - 1``) of a batch whose rows
    repeat in aligned groups of r, output row r*Y + p reads, through kernel
    row i, input row r*Y + p + i - pad.  That is row Y + d - ceil(pad/r) of
    the source, the batch's every r-th row, with d = (p + i - pad) // r +
    ceil(pad/r); zero padding maps to zero padding.
    """
    q = -(-pad // r)
    pmap = np.zeros((r, k, 2 * q + 1))
    p, i = np.ogrid[:r, :k]
    pmap[p, i, (p + i - pad) // r + q] = 1.0
    return pmap


def _tile_sum(parts: np.ndarray) -> np.ndarray:
    """The sum of per-tile weight-gradient partials, in tile order whatever the worker count."""
    total = np.zeros(parts.shape[1:], dtype=parts.dtype)
    for part in parts:
        total += part
    return total


def _conv_grad(xp: np.ndarray, dout: np.ndarray, in_ch: int, r: int = 1) -> np.ndarray:
    """The (r*out, in, kh, kw) weight gradient of ``_conv`` of ``xp`` at row repeat ``r``, given ``dout``.

    Each tile's output gradient is copied channel-major, as (phase, out,
    sample, source row, wo), and meets the tile's im2col matrix in one GEMM.
    """
    n, out_ch, h, wo = dout.shape
    tap_major = _tap_major(in_ch, r)
    _, hp, wp, _ = _nhwc(xp, tap_major).shape
    ho, rows = h // r, r * out_ch
    kh, kw = hp - ho + 1, wp - wo + 1
    ranges, bufs = _tile_buffers(xp, kw, rows, kh=kh, tap_major=tap_major)
    t = len(bufs[0])
    parts = np.empty((-(-n // t), in_ch * kh * kw, rows), dtype=dout.dtype)
    douts = [np.empty((r, out_ch, t, ho, wo), dtype=dout.dtype) for _ in ranges]

    def work(i, lo, hi):
        for a, z, cols in _im2col_tiles(xp, lo, hi, bufs[i], tap_major):
            d = douts[i][:, :, : z - a]
            # output row r*Y + p is phase p's source row Y
            np.copyto(d, dout[a:z].reshape(z - a, out_ch, ho, r, wo).transpose(3, 1, 0, 2, 4))
            np.matmul(cols, d.reshape(rows, -1).T, out=parts[a // t])

    _run(work, ranges)
    del bufs
    dw = _tile_sum(parts).reshape(*((in_ch, kh, kw) if tap_major else (kh, kw, in_ch)), rows)
    return np.ascontiguousarray(dw.transpose(3, 0, 1, 2) if tap_major else dw.transpose(3, 2, 0, 1))


class Conv2d:
    """Stride-1 zero-padded convolution, lowered to GEMMs per tile of samples.

    The padded batch is gathered one tile of samples at a time
    (``_TILE_BYTES``, about one L2) into one reused buffer per worker, so no
    whole-batch patch matrix exists.  The forward and the input gradient
    gather strips and run one GEMM per output row (``_strip_tiles``); the
    weight gradient gathers the tile's im2col matrix, sample-inner if
    tap-major, and runs one GEMM per tile (``_im2col_tiles``) at every row
    repeat.  ``_tap_major`` picks the lowering.  When the layer
    pads "same" (``2 * pad == kernel - 1``) and the batch's rows repeat in
    aligned groups of r > 1 (``_row_repeat``), only every r-th row is
    padded, kept and gathered, and the kernel is expanded to r row phases
    (``_phase_kernel``).  An inference forward with
    ``pool_relu`` also does the work of the ReLU and 2x2 max pool that
    follow.  A training forward keeps only the padded input; backward
    gathers its tiles again for one weight-gradient partial per tile, summed
    in tile order, and folds the phases back.  The input gradient is the same
    tiled convolution of the output gradient, padded by ``kernel - 1 - pad``,
    with the kernel flipped and its input and output channels swapped; so
    ``pad`` must lie in ``0..kernel-1``.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, pad: int, rng):
        if not 0 <= pad < kernel:
            raise ValueError(f"pad must lie in 0..{kernel - 1} for kernel {kernel}, got {pad}")
        std = np.sqrt(2.0 / (in_ch * kernel * kernel))
        self.w = rng.normal(0.0, std, (out_ch, in_ch, kernel, kernel))
        self.b = np.zeros(out_ch)
        self.kernel = kernel
        self.pad = pad

    def spec(self) -> dict:
        out_ch, in_ch, k, _ = self.w.shape
        return {"kind": "conv", "in_ch": in_ch, "out_ch": out_ch, "kernel": k, "pad": self.pad}

    def params(self) -> dict:
        return {"w": self.w, "b": self.b}

    def _phase_kernel(self, r: int) -> np.ndarray:
        """The (r*out, in, kh, kernel) kernel ``_conv`` applies at row repeat ``r``: ``w`` itself at r = 1.

        Block p sums, per source row offset, the kernel rows through which
        output row phase p reads it.
        """
        if r == 1:
            return self.w
        out_ch, in_ch, k, _ = self.w.shape
        w = np.tensordot(_phase_map(k, self.pad, r), self.w, ([1], [2]))  # (phase, offset, out, in, kw)
        return w.transpose(0, 2, 3, 1, 4).reshape(r * out_ch, in_ch, -1, k)

    def forward(self, x: np.ndarray, train: bool = False, pool_relu: bool = False) -> np.ndarray:
        """The convolution; with ``pool_relu`` (inference only), 2x2-max-pooled and rectified too."""
        if train and pool_relu:
            raise ValueError("pool_relu is inference-only: backward needs each layer's own state")
        r = _row_repeat(x) if 2 * self.pad == self.kernel - 1 else 1
        xp = _padded(x, self.pad, r)
        if train:
            self._xp, self._repeat = xp, r
        return _conv(xp, self._phase_kernel(r), self.b, pool_relu, r)

    def backward(self, dout: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Parameter gradients into ``_grads``; the input gradient unless ``need_dx`` is False."""
        xp, self._xp = self._xp, None
        r, (out_ch, in_ch, k, _) = self._repeat, self.w.shape
        dw = _conv_grad(xp, dout, in_ch, r)
        del xp
        if r > 1:  # (phase, out, in, offset, kw) folded back to (out, in, kernel row, kw)
            pmap = _phase_map(k, self.pad, r).astype(dw.dtype)
            dw = np.tensordot(pmap, dw.reshape(r, out_ch, in_ch, -1, k), ([0, 2], [0, 3]))
            dw = np.ascontiguousarray(dw.transpose(1, 2, 0, 3))
        self._grads = {"w": dw, "b": dout.sum(axis=(0, 2, 3))}
        if not need_dx:
            return None
        return _conv(_padded(dout, k - 1 - self.pad), self.w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


class Relu:
    def spec(self) -> dict:
        return {"kind": "relu"}

    def params(self) -> dict:
        return {}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        y = np.empty_like(x)
        mask = np.empty(x.shape, dtype=bool) if train else None

        def work(_, lo, hi):
            if train:
                np.greater(x[lo:hi], 0, out=mask[lo:hi])
            np.maximum(x[lo:hi], 0.0, out=y[lo:hi])

        _run(work, _split(len(x), x[:1].nbytes))
        if train:
            self._mask = mask
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        dx = np.empty_like(dout)

        def work(_, lo, hi):
            np.multiply(dout[lo:hi], mask[lo:hi], out=dx[lo:hi])

        _run(work, _split(len(dout), dx[:1].nbytes))
        return dx


_POOL_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major: the order ties are broken in


def _block(x: np.ndarray) -> int:
    """Samples of ``x`` per block of a pooling pass: about one L2, like a conv tile."""
    return max(1, _TILE_BYTES // max(1, x[:1].nbytes))


class MaxPool2:
    """2x2 max pooling, stride 2; ties route the gradient to the first maximum.

    A training forward keeps one byte per output: the index in
    ``_POOL_WINDOW`` of the window element the gradient goes to.  It is
    formed without branches, in contiguous uint8 passes, as
    ``max(first, later * (second + 2))``: ``first`` and ``second`` are the
    winners (0 or 1) of the top and bottom pairs, ``later`` is 1 where the
    bottom pair's max beats the top one's, and any ``second + 2`` exceeds
    ``first``.
    """

    def spec(self) -> dict:
        return {"kind": "maxpool"}

    def params(self) -> dict:
        return {}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out = np.empty(_pooled_shape(x.shape), dtype=x.dtype)
        code = np.empty(out.shape, dtype=np.uint8) if train else None
        ranges, blk = _split(len(x), x[:1].nbytes), _block(x)
        # per worker and block: the bottom pair's max; in training also its first maximum and where it wins
        dtypes = (x.dtype, np.uint8, bool) if train else (x.dtype,)
        scratch = [[np.empty((blk, *out.shape[1:]), dtype=dt) for dt in dtypes] for _ in ranges]

        def work(k, lo, hi):
            for s in range(lo, hi, blk):
                e = min(hi, s + blk)
                a, b, c, d = (x[s:e, :, i::2, j::2] for i, j in _POOL_WINDOW)
                o = out[s:e]
                bottom, *rest = (buf[: e - s] for buf in scratch[k])
                np.maximum(a, b, out=o)
                np.maximum(c, d, out=bottom)
                if train:  # the first maximum of each pair, then of the two pairs
                    first, (second, later) = code[s:e], rest
                    np.greater(b, a, out=first)
                    np.greater(d, c, out=second)
                    np.greater(bottom, o, out=later)
                    second += 2
                    np.multiply(second, later.view(np.uint8), out=second)
                    np.maximum(first, second, out=first)
                np.maximum(o, bottom, out=o)

        _run(work, ranges)
        if train:
            self._code = code
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        code, self._code = self._code, None
        n, ch, h, w = code.shape
        dx = np.empty((n, ch, 2 * h, 2 * w), dtype=dout.dtype)  # the four window slices cover it
        ranges, blk = _split(n, dx[:1].nbytes), _block(dx)
        hits = [np.empty((blk, ch, h, w), dtype=bool) for _ in ranges]

        def work(k, lo, hi):
            for s in range(lo, hi, blk):
                e = min(hi, s + blk)
                hit = hits[k][: e - s]
                for q, (i, j) in enumerate(_POOL_WINDOW):
                    np.equal(code[s:e], q, out=hit)
                    np.multiply(dout[s:e], hit, out=dx[s:e, :, i::2, j::2])

        _run(work, ranges)
        return dx


class Dense:
    """Fully connected layer; flattens whatever spatial input it receives."""

    def __init__(self, in_features: int, out_features: int, rng):
        std = np.sqrt(2.0 / in_features)
        self.w = rng.normal(0.0, std, (out_features, in_features))
        self.b = np.zeros(out_features)

    def spec(self) -> dict:
        out_f, in_f = self.w.shape
        return {"kind": "dense", "in_features": in_f, "out_features": out_f}

    def params(self) -> dict:
        return {"w": self.w, "b": self.b}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x2 = x.reshape(x.shape[0], -1)
        if train:
            self._x2 = x2
            self._xshape = x.shape
        return x2 @ self.w.T.astype(x.dtype, copy=False) + self.b.astype(x.dtype, copy=False)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self._grads = {"w": dout.T @ self._x2, "b": dout.sum(axis=0)}
        dx = dout @ self.w.astype(dout.dtype, copy=False)
        self._x2 = None
        return dx.reshape(self._xshape)


class Softmax:
    def spec(self) -> dict:
        return {"kind": "softmax"}

    def params(self) -> dict:
        return {}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)


_LAYER_KINDS = {"conv": Conv2d, "relu": Relu, "maxpool": MaxPool2, "dense": Dense, "softmax": Softmax}


@dataclass
class CnnModel:
    variant: str
    input_shape: tuple[int, int, int]
    width_scale: float
    layers: list

    def params(self) -> list[dict]:
        return [layer.params() for layer in self.layers]


def build_model(variant: str, width_scale: float = 1.0, seed=0) -> CnnModel:
    """Assemble an initialized classifier for one of the S/A/P/AP variants.

    A pooled block is Conv2d -> MaxPool2 -> Relu, so its ReLU runs on the
    quarter-size pooled activation (see the module docstring).
    """
    if variant not in INPUT_SHAPES:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(INPUT_SHAPES)}")
    rng = np.random.default_rng(seed)
    in_ch, side, _ = INPUT_SHAPES[variant]
    layers: list = []
    ch = in_ch
    for width, kernel, pool in zip(CONV_WIDTHS, CONV_KERNELS, POOL_AFTER):
        out_ch = max(1, round(width * width_scale))
        layers.append(Conv2d(ch, out_ch, kernel, kernel // 2, rng))
        if pool:
            layers.append(MaxPool2())
            side //= 2
        layers.append(Relu())
        ch = out_ch
    layers.append(Dense(ch * side * side, DENSE_WIDTH, rng))
    layers.append(Relu())
    layers.append(Dense(DENSE_WIDTH, N_CLASSES, rng))
    layers.append(Softmax())
    return CnnModel(variant, INPUT_SHAPES[variant], width_scale, layers)


def _as_batch(model: CnnModel, x: np.ndarray):
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if x.shape == tuple(model.input_shape):
        return x[None, ...], True
    if x.ndim == len(model.input_shape) + 1 and x.shape[1:] == tuple(model.input_shape):
        return x, False
    raise ValueError(f"input shape {x.shape} does not match model {model.input_shape}")


def forward(model: CnnModel, x: np.ndarray, train: bool = False, fused: bool = False) -> np.ndarray:
    """Class probabilities; index 0 is P(radar present).

    Every layer's ``forward`` runs in turn, unless ``fused`` (inference
    only): then each Conv2d followed by a MaxPool2 and a Relu, in either
    order, runs as one conv pass that never writes the full-resolution
    activation, and the triple's MaxPool2 and Relu are not called.  The
    probabilities are the same bit for bit.
    """
    if train and fused:
        raise ValueError("fused is inference-only: backward needs each layer's own state")
    out, single = _as_batch(model, x)
    layers, i = model.layers, 0
    while i < len(layers):
        layer = layers[i]
        after = {type(later) for later in layers[i + 1 : i + 3]}
        triple = fused and type(layer) is Conv2d and after == {MaxPool2, Relu}
        out = layer.forward(out, pool_relu=True) if triple else layer.forward(out, train=train)
        i += 3 if triple else 1
    return out[0] if single else out


def backward(model: CnnModel, x: np.ndarray, label) -> tuple[list[dict], float]:
    """Mean cross-entropy loss over the batch and its gradient per parameter tensor.

    The gradients are in the batch's dtype.  The first layer's input gradient
    is not computed.
    """
    batch, single = _as_batch(model, x)
    y = np.atleast_1d(np.asarray(label, dtype=np.intp))
    if y.shape != (batch.shape[0],):
        raise ValueError("labels must match the batch size")
    if not isinstance(model.layers[-1], Softmax):
        raise ValueError("model must end with a softmax layer")
    probs = forward(model, batch, train=True)
    n = batch.shape[0]
    p_true = probs[np.arange(n), y]
    loss = float(-np.mean(np.log(np.maximum(p_true, np.finfo(probs.dtype).tiny))))
    # fused softmax + cross-entropy gradient
    d = probs.copy()
    d[np.arange(n), y] -= 1.0
    d /= n
    for i in range(len(model.layers) - 2, -1, -1):
        layer = model.layers[i]
        if i == 0 and isinstance(layer, Conv2d):
            layer.backward(d, need_dx=False)  # nothing reads the input gradient
        else:
            d = layer.backward(d)
    grads = [getattr(layer, "_grads", {}) if layer.params() else {} for layer in model.layers]
    return grads, loss


@dataclass
class OptimizerState:
    """SGD with momentum, L2 weight decay, and a stepped learning-rate schedule."""

    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.001
    lr_drop_every: int = 5000
    lr_drop_factor: float = 10.0
    batch_size: int = 50
    total_iterations: int = 25000
    iteration: int = field(default=0, init=False)
    velocities: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        check_types(self)
        if min(self.base_lr, self.momentum, self.weight_decay) < 0:
            raise ValueError("base_lr, momentum and weight_decay must be non-negative")
        if self.lr_drop_every < 1 or self.batch_size < 1:
            raise ValueError("lr_drop_every and batch_size must be >= 1")
        if self.total_iterations < 0:
            raise ValueError("total_iterations must be >= 0")
        if self.lr_drop_factor <= 0:
            raise ValueError("lr_drop_factor must be positive")

    @property
    def learning_rate(self) -> float:
        return self.base_lr / self.lr_drop_factor ** (self.iteration // self.lr_drop_every)


def sgd_step(model: CnnModel, grads: list[dict], opt: OptimizerState) -> None:
    """v <- momentum*v - lr*(g + weight_decay*theta); theta <- theta + v."""
    lr = opt.learning_rate
    for li, (layer, layer_grads) in enumerate(zip(model.layers, grads)):
        params = layer.params()
        for name, g in layer_grads.items():
            p = params[name]
            v = opt.velocities.get((li, name))
            if v is None:
                v = opt.velocities[(li, name)] = np.zeros_like(p)
            v *= opt.momentum
            v -= lr * (g + opt.weight_decay * p)
            p += v
    opt.iteration += 1


def train(
    variant: str,
    dataset: tuple[np.ndarray, np.ndarray],
    opt_overrides: dict | None = None,
    seed=0,
    width_scale: float = 1.0,
):
    """Train a variant on (inputs, labels); returns the model and per-iteration losses.

    Each minibatch is cast to float32, so forward and backward run in
    float32; parameters and momentum stay float64.  Deterministic given the
    seed, for a fixed BLAS thread count: parameter init and epoch shuffles
    derive from the seed, and every other step is sequential.
    ``opt_overrides`` are ``OptimizerState`` keyword arguments.
    """
    x, y = dataset
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.intp)
    if x.ndim != 4 or x.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (N, C, H, W) array")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must be one per example")
    opt = OptimizerState(**(opt_overrides or {}))
    model = build_model(variant, width_scale=width_scale, seed=seed)
    n = x.shape[0]
    batch = min(opt.batch_size, n)
    shuffle_rng = np.random.default_rng([seed, 1])
    order = shuffle_rng.permutation(n)
    pos = 0
    losses = []
    for _ in range(opt.total_iterations):
        if pos + batch > n:
            order = shuffle_rng.permutation(n)
            pos = 0
        idx = order[pos : pos + batch]
        pos += batch
        grads, loss = backward(model, x[idx].astype(np.float32, copy=False), y[idx])
        sgd_step(model, grads, opt)
        losses.append(loss)
    return model, np.asarray(losses)


def _param_arrays(model: CnnModel):
    for layer in model.layers:
        for name in sorted(layer.params()):
            yield layer.params()[name]


def save_model(model: CnnModel, path) -> None:
    """Versioned binary container: JSON layer header + float64 parameter payload."""
    header = {
        "variant": model.variant,
        "input_shape": list(model.input_shape),
        "width_scale": model.width_scale,
        "layers": [layer.spec() for layer in model.layers],
    }
    hb = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(hb)))
        fh.write(hb)
        for arr in _param_arrays(model):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _layer_from_spec(spec: dict, rng):
    kind = spec["kind"]
    if kind == "conv":
        return Conv2d(spec["in_ch"], spec["out_ch"], spec["kernel"], spec["pad"], rng)
    if kind == "dense":
        return Dense(spec["in_features"], spec["out_features"], rng)
    if kind in ("relu", "maxpool", "softmax"):
        return _LAYER_KINDS[kind]()
    raise ValueError(f"unknown layer kind {kind!r}")


def _read_exactly(fh, size: int, path, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"{path}: truncated {what}")
    return raw


def load_model(path) -> CnnModel:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a model file")
        version, hlen = struct.unpack("<II", _read_exactly(fh, 8, path, "version and header length"))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        header = json.loads(_read_exactly(fh, hlen, path, "header"))
        rng = np.random.default_rng(0)
        layers = [_layer_from_spec(spec, rng) for spec in header["layers"]]
        model = CnnModel(
            header["variant"],
            tuple(header["input_shape"]),
            header["width_scale"],
            layers,
        )
        for arr in _param_arrays(model):
            raw = _read_exactly(fh, arr.size * 8, path, "parameter payload")
            arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    return model
