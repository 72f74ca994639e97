"""Named FIR kernel presets for the intra scheme.

The paper calls intra addressing "typically used for FIR filter like
operations"; this module is the kernel book: classic 3x3/5x5 filters
pre-wrapped as :class:`~repro.addresslib.ops.IntraOp` factories, plus a
registry for lookup by name.

All kernels are integer-weighted with a power-of-two normalisation
shift, exactly what the engine's stage-3 multiply-accumulate datapath
executes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Sequence, Tuple

from .addressing import CON_8, CON_24, Neighbourhood
from .ops import IntraOp, fir_op


def _grid_weights(neighbourhood: Neighbourhood,
                  rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Map a row-major weight grid onto the neighbourhood's offsets."""
    height = len(rows)
    width = len(rows[0])
    half_h, half_w = height // 2, width // 2
    table = {(dx - half_w, dy - half_h): rows[dy][dx]
             for dy in range(height) for dx in range(width)}
    return tuple(table.get(off, 0) for off in neighbourhood.offsets)


def gaussian3_op() -> IntraOp:
    """3x3 binomial smoothing (1-2-1 outer product, /16)."""
    weights = _grid_weights(CON_8, [[1, 2, 1],
                                    [2, 4, 2],
                                    [1, 2, 1]])
    return fir_op("kernel_gaussian3", CON_8, weights, shift=4)


def gaussian5_op() -> IntraOp:
    """5x5 binomial smoothing (1-4-6-4-1 outer product, /256)."""
    row = [1, 4, 6, 4, 1]
    grid = [[a * b for a in row] for b in row]
    weights = _grid_weights(CON_24, grid)
    return fir_op("kernel_gaussian5", CON_24, weights, shift=8)


def sharpen3_op() -> IntraOp:
    """3x3 sharpen: centre-boosted Laplacian complement (weights sum 8,
    /8 -- flat regions pass through unchanged)."""
    weights = _grid_weights(CON_8, [[0, -2, 0],
                                    [-2, 16, -2],
                                    [0, -2, 0]])
    return fir_op("kernel_sharpen3", CON_8, weights, shift=3)


def emboss3_op() -> IntraOp:
    """3x3 emboss: diagonal derivative biased into mid-gray.

    Implemented as a plain FIR with an extra centre weight of 8 (the
    +128 bias folded in as ``(acc + 8*v_c) >> 3`` cannot express a
    constant, so the op biases via the centre term on typical content).
    """
    weights = _grid_weights(CON_8, [[-2, -1, 0],
                                    [-1, 8, 1],
                                    [0, 1, 2]])
    return fir_op("kernel_emboss3", CON_8, weights, shift=3)


def motion_blur5_op() -> IntraOp:
    """Horizontal 5-tap motion blur (row average within CON_24, /4 via
    weights 1,1,0,1,1 plus centre 0 -> use 4 taps)."""
    grid = [[0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [1, 1, 0, 1, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0]]
    weights = _grid_weights(CON_24, grid)
    return fir_op("kernel_motion_blur5", CON_24, weights, shift=2)


#: The kernel book: name -> factory.
KERNEL_FACTORIES: Dict[str, Callable[[], IntraOp]] = {
    "gaussian3": gaussian3_op,
    "gaussian5": gaussian5_op,
    "sharpen3": sharpen3_op,
    "emboss3": emboss3_op,
    "motion_blur5": motion_blur5_op,
}


@lru_cache(maxsize=None)
def _kernel_instance(name: str) -> IntraOp:
    return KERNEL_FACTORIES[name]()


def kernel_by_name(name: str) -> IntraOp:
    """Look up a named kernel preset.

    Memoized: repeated lookups return the *same* :class:`IntraOp`
    instance instead of rebuilding the weight tables, so the registry
    is also an identity anchor -- the residency cache and the pool's
    worker-process dispatch both compare ops by identity.
    """
    try:
        return _kernel_instance(name.strip().lower())
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; known: "
            f"{', '.join(sorted(KERNEL_FACTORIES))}") from None
