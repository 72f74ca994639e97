"""Frame warping and pyramid resampling for global motion estimation.

``warp_luma(luma, model)`` resamples a luminance plane so that pixel
``(x, y)`` of the output holds the input sampled at ``model(x, y)``
(bilinear interpolation, out-of-frame samples marked invalid).  The
estimator aligns the *current* frame to the *reference* by warping with
the current motion estimate; the validity mask keeps border pixels out
of the residual statistics.

The bits of a warped plane are part of the API.  The estimator's SADs,
hence its convergence and every Table 3 call count and modeled second,
depend on them, so the evaluation order is fixed: with
``(sx, sy) = model.apply(x, y)``, ``fx = sx - floor(sx)`` and ``p00``
to ``p11`` the four neighbours of ``(floor(sx), floor(sy))``, each
valid output sample is, in float64 and in this order,
``(p00 * (1 - fx) + p01 * fx) * (1 - fy)
+ (p10 * (1 - fx) + p11 * fx) * fy``.  A faster version must perform
the same operations on the same operands in the same order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np


@lru_cache(maxsize=16)
def coordinate_grid(height: int, width: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """The float64 pixel-coordinate planes ``(xs, ys)`` of a
    ``height x width`` image, built once per shape and shared.

    Both planes are read-only: callers index or broadcast them and
    never write to them.
    """
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    xs.flags.writeable = False
    ys.flags.writeable = False
    return xs, ys


#: Output rows per block of :func:`warp_luma`: a block's coordinate,
#: index and sample planes stay in cache from gather to blend.
WARP_BLOCK_ROWS = 32


def warp_luma(luma: np.ndarray, model, fill: float = 0.0,
              output_shape: Optional[Tuple[int, int]] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Warp a luminance plane through a motion model.

    Args:
        luma: Source plane (any numeric dtype; read as float64, and
            neither copied nor written when it already is float64).
        model: A motion model with an elementwise ``apply(xs, ys)``;
            maps *output* coordinates to *source* coordinates.
        fill: Value written where the source sample falls outside.
        output_shape: ``(height, width)`` of the result; defaults to the
            source shape.

    Returns:
        ``(warped, valid)`` -- the warped float64 plane and a boolean
        mask of pixels whose source sample was fully inside the frame.
        Source coordinates that are not finite (a NaN or infinite model
        parameter) are invalid.  Both arrays are fresh and writable.
    """
    src_height, src_width = luma.shape
    shape = tuple(output_shape or luma.shape)
    if src_width < 2 or src_height < 2:
        # No sample has four neighbours inside the frame.
        return np.full(shape, fill, dtype=np.float64), np.zeros(shape, bool)
    source = np.asarray(luma, dtype=np.float64).ravel()
    xs, ys = coordinate_grid(*shape)
    warped = np.empty(shape, dtype=np.float64)
    valid = np.empty(shape, dtype=bool)
    # Non-finite coordinates are invalid; the NaN and infinity they
    # spread through the arithmetic are masked below, not warned about.
    with np.errstate(all="ignore"):
        for start in range(0, shape[0], WARP_BLOCK_ROWS):
            rows = slice(start, start + WARP_BLOCK_ROWS)
            _warp_rows(source, src_width, src_height, model, xs[:1],
                       ys[rows, :1], fill, warped[rows], valid[rows])
    return warped, valid


def _warp_rows(source: np.ndarray, width: int, height: int, model,
               xs: np.ndarray, ys: np.ndarray, fill: float,
               warped: np.ndarray, valid: np.ndarray) -> None:
    """Warp one block of output rows into ``warped`` and ``valid``.

    ``xs`` is one row and ``ys`` one column of the output grid: the
    model is elementwise, so broadcasting applies the same operations
    to the same operands per pixel.  ``source`` is the flattened
    ``height x width`` source plane.
    """
    sx, sy = (np.broadcast_to(coordinate, warped.shape)
              for coordinate in model.apply(xs, ys))
    # For finite coordinates these compares equal the integer
    # ``0 <= floor(s) < size - 1``; NaN compares false.
    np.greater_equal(sx, 0, out=valid)
    valid &= sx < width - 1
    valid &= sy >= 0
    valid &= sy < height - 1
    invalid = ~valid
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    # One flat index per pixel; the other three neighbours are the same
    # index into the source shifted by 1, width and width + 1.
    index = y0 * width
    index += x0
    np.copyto(index, 0.0, where=invalid)
    index = index.astype(np.intp)
    # Every index is in range; "clip" lets ``take`` write ``out``
    # directly instead of through a buffer.
    source.take(index, out=warped, mode="clip")
    right = source[1:].take(index)
    below = source[width:].take(index)
    below_right = source[width + 1:].take(index)
    weight = 1 - fx
    warped *= weight
    right *= fx
    warped += right  # top row of the bilinear blend
    below *= weight
    below_right *= fx
    below += below_right  # bottom row
    np.subtract(1, fy, out=weight)
    warped *= weight
    below *= fy
    warped += below
    warped[invalid] = fill


def decimate2(luma: np.ndarray) -> np.ndarray:
    """Drop every second sample in both dimensions (after low-pass
    filtering via the AddressLib box filter)."""
    return luma[::2, ::2]


def pyramid_shapes(height: int, width: int, levels: int):
    """Shapes of a ``levels``-deep dyadic pyramid, finest first."""
    shapes = []
    h, w = height, width
    for _ in range(levels):
        shapes.append((h, w))
        h = -(-h // 2)
        w = -(-w // 2)
    return shapes


def sad(a: np.ndarray, b: np.ndarray, mask: np.ndarray = None) -> float:
    """Reference sum-of-absolute-differences (float), optionally masked.

    The production path computes SAD through an AddressLib inter call;
    this helper is the float golden used in tests.
    """
    diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
    if mask is not None:
        diff = diff[mask]
    return float(diff.sum())
