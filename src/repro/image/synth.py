"""Synthetic image content for tests, examples and benchmarks.

The paper evaluates on four MPEG-1 CIF clips we do not have (Singapore,
Dome, Pisa, Movie).  Per the substitution plan in DESIGN.md we generate
deterministic synthetic content instead: textured panoramas for the global
motion estimation workload and structured patterns for unit-level checks.
All generators are seeded and reproducible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .formats import ImageFormat
from .frame import Frame


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(0xADD2E55 if seed is None else seed)


def gradient_frame(fmt: ImageFormat, horizontal: bool = True) -> Frame:
    """A linear luminance ramp (neutral chroma).

    Useful for verifying scan orders and gradient operators: the luminance
    derivative is constant and known.
    """
    frame = Frame(fmt)
    if horizontal:
        ramp = np.linspace(0, 255, fmt.width).astype(np.uint8)
        frame.y[:] = np.tile(ramp, (fmt.height, 1))
    else:
        ramp = np.linspace(0, 255, fmt.height).astype(np.uint8)
        frame.y[:] = np.tile(ramp[:, None], (1, fmt.width))
    frame.u[:] = 128
    frame.v[:] = 128
    return frame


def checkerboard_frame(fmt: ImageFormat, cell: int = 8,
                       low: int = 32, high: int = 224) -> Frame:
    """A luminance checkerboard with ``cell``-pixel squares."""
    if cell <= 0:
        raise ValueError("cell size must be positive")
    frame = Frame(fmt)
    ys, xs = np.mgrid[0:fmt.height, 0:fmt.width]
    board = ((xs // cell + ys // cell) % 2).astype(np.uint8)
    frame.y[:] = np.where(board == 0, low, high).astype(np.uint8)
    frame.u[:] = 128
    frame.v[:] = 128
    return frame


def noise_frame(fmt: ImageFormat, seed: Optional[int] = None) -> Frame:
    """Uniform random content in all five channels (seeded)."""
    rng = _rng(seed)
    frame = Frame(fmt)
    frame.y[:] = rng.integers(0, 256, size=frame.y.shape, dtype=np.uint16)
    frame.u[:] = rng.integers(0, 256, size=frame.u.shape, dtype=np.uint16)
    frame.v[:] = rng.integers(0, 256, size=frame.v.shape, dtype=np.uint16)
    frame.alfa[:] = rng.integers(0, 1 << 16, size=frame.alfa.shape,
                                 dtype=np.uint32)
    frame.aux[:] = rng.integers(0, 1 << 16, size=frame.aux.shape,
                                dtype=np.uint32)
    return frame


#: Rows per block of :func:`textured_panorama`.  A block's canvas rows
#: and its two scratch rows stay in cache while all octaves are summed.
PANORAMA_BLOCK_ROWS = 16


def textured_panorama(width: int, height: int,
                      seed: Optional[int] = None,
                      octaves: int = 4) -> np.ndarray:
    """A smooth but feature-rich luminance panorama, as a float64 array.

    Built from summed band-limited noise (value-noise octaves): smooth
    enough that gradient-based motion estimation converges, textured enough
    that the SAD error surface has a clear minimum.  Used as the scene that
    synthetic camera paths pan across (see :mod:`repro.gme.sequences`).

    The bits of the result are part of the API: every GME frame is
    sampled from this panorama, and the Table 3 books (call counts and
    modeled seconds) depend on those samples.  Each octave's bilinear
    upsample of its coarse lattice ``c`` is, per pixel and in this order,
    ``((c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx)
    + c10 * fy * (1 - fx)) + c11 * fy * fx`` in float64; the octaves
    are accumulated as ``canvas += amplitude * layer`` from a zero
    canvas, then the canvas is divided by the total amplitude, shifted
    to a zero minimum and scaled to a peak of 255.  A faster version
    must perform the same operations on the same operands in the same
    order.  This one forms the row factors once per octave
    (``c[y0] * (1 - fy)``, ``c[y0 + 1] * fy``), then gathers their
    columns and sums all octaves one block of rows at a time, in cache.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    if octaves < 1:
        raise ValueError("need at least one octave")
    rng = _rng(seed)
    layers = []
    amplitude = 1.0
    total_amplitude = 0.0
    for octave in range(octaves):
        cells = 2 ** (octave + 2)
        coarse = rng.random((cells + 1, cells + 1))
        # Bilinear upsample of the coarse lattice onto the full canvas.
        ys = np.linspace(0, cells, height)
        xs = np.linspace(0, cells, width)
        y0 = np.clip(ys.astype(int), 0, cells - 1)
        x0 = np.clip(xs.astype(int), 0, cells - 1)
        fy = (ys - y0)[:, None]
        fx = xs - x0
        # Row factors, (height, cells + 1): top[i, k] is bit for bit
        # the ``c[y0, k] * (1 - fy)`` of every column that samples k.
        top = coarse[y0] * (1 - fy)
        bottom = coarse[y0 + 1] * fy
        layers.append((amplitude, top, bottom, x0, x0 + 1, 1 - fx, fx))
        total_amplitude += amplitude
        amplitude *= 0.55

    canvas = np.zeros((height, width), dtype=np.float64)
    term = np.empty((min(PANORAMA_BLOCK_ROWS, height), width))
    part = np.empty_like(term)
    for start in range(0, height, PANORAMA_BLOCK_ROWS):
        rows = canvas[start:start + PANORAMA_BLOCK_ROWS]
        count = rows.shape[0]
        layer, scratch = term[:count], part[:count]
        for amplitude, top, bottom, x0, x1, gx, fx in layers:
            top_rows = top[start:start + count]
            bottom_rows = bottom[start:start + count]
            np.take(top_rows, x0, axis=1, out=layer, mode="clip")
            layer *= gx
            np.take(top_rows, x1, axis=1, out=scratch, mode="clip")
            scratch *= fx
            layer += scratch
            np.take(bottom_rows, x0, axis=1, out=scratch, mode="clip")
            scratch *= gx
            layer += scratch
            np.take(bottom_rows, x1, axis=1, out=scratch, mode="clip")
            scratch *= fx
            layer += scratch
            layer *= amplitude
            rows += layer
        rows /= total_amplitude
    # Stretch to the full 8-bit range but keep float precision for sampling.
    canvas -= canvas.min()
    peak = canvas.max()
    if peak > 0:
        canvas *= 255.0 / peak
    return canvas


def frame_from_luma(fmt: ImageFormat, luma: np.ndarray) -> Frame:
    """Wrap a luminance array (any numeric dtype) into a neutral-chroma frame."""
    if luma.shape != (fmt.height, fmt.width):
        raise ValueError(
            f"luma shape {luma.shape} does not match {fmt.name} "
            f"({fmt.height}, {fmt.width})")
    frame = Frame(fmt)
    frame.y[:] = np.clip(np.round(luma), 0, 255).astype(np.uint8)
    frame.u[:] = 128
    frame.v[:] = 128
    return frame


def blob_frame(fmt: ImageFormat, centers, radius: int = 12,
               inside: int = 200, outside: int = 30) -> Frame:
    """Bright circular blobs on a dark background.

    Segmentation tests use this: each blob is one connected segment with a
    strong homogeneity boundary.  ``centers`` is an iterable of ``(x, y)``.
    """
    frame = Frame(fmt)
    frame.y[:] = outside
    frame.u[:] = 128
    frame.v[:] = 128
    ys, xs = np.mgrid[0:fmt.height, 0:fmt.width]
    for cx, cy in centers:
        mask = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2
        frame.y[mask] = inside
    return frame
