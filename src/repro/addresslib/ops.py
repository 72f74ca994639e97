"""Pixel-level sub-functions (paper section 2.2).

AddressLib separates pixel work into basic sub-functions (add, sub, mult,
grad, ...) that compose into complex operations such as homogeneity checks
or morphological gradients.  This module defines the operation objects:

* :class:`InterOp` -- elementwise over two frames (inter addressing);
* :class:`IntraOp` -- over a neighbourhood within one frame (intra
  addressing).

Each operation carries three executable faces kept consistent by tests:

1. ``scalar`` -- per-pixel reference semantics (drives the counted
   software model of Table 2 and the cycle-level engine's stage 3);
2. ``vector`` -- numpy bulk semantics (drives the fast functional
   executors used by GME and the examples).  An intra op's vector face
   takes a sequence of equal-shape planes, one per neighbourhood
   offset (an ndarray stack ``(taps, H, W)`` qualifies): FIR ops
   shift-and-accumulate the nonzero taps, min/max ops fold pairwise;
3. ``cost`` -- per-pixel-per-channel processing instructions
   (:class:`~repro.addresslib.profiling.InstructionCost`; the executor
   adds the addressing cost on top).

All 8-bit channel math saturates to [0, 255].  Intermediates use the
narrowest signed integer type that holds the op's worst-case magnitude
(:func:`_accumulator`): int16 for sums, differences and the 3x3
derivatives, int32 for the box blur's scaled sum and the fixed-point
multiply, int64 for a FIR whose weights could overflow int32.  Integer
arithmetic that cannot overflow gives the same results at any width;
the narrow passes move fewer bytes and keep a wave's temporaries in
cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..checks import check_count
from .addressing import CON_0, CON_8, Neighbourhood
from .profiling import InstructionCost


class ChannelSet(Enum):
    """Which colour channels a call reads/writes (Table 2's channel column)."""

    Y = ("Y",)
    YUV = ("Y", "U", "V")

    def __init__(self, *names: str) -> None:
        self.channel_names: Tuple[str, ...] = names

    @property
    def count(self) -> int:
        return len(self.channel_names)


def _sat8(values: np.ndarray) -> np.ndarray:
    """Saturate an int array to the 8-bit channel range (clipping
    ``values`` in place: callers pass a scratch array)."""
    return np.clip(values, 0, 255, out=values).astype(np.uint8)


def _accumulator(bound: int) -> type:
    """The narrowest of int16/int32/int64 that holds ``[-bound, bound]``."""
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _tap_bound(weights: Sequence[int]) -> int:
    """Largest ``|sum(w * v)|`` over 8-bit values ``v``."""
    return sum(abs(w) for w in weights) * 255


def _weighted_sum(planes: Sequence[np.ndarray], weights: Sequence[int],
                  dtype: type) -> np.ndarray:
    """Shift-and-accumulate ``sum(w * plane)`` over the nonzero taps.

    Returns a fresh ``dtype`` accumulator, started from the first
    nonzero tap; unit weights add or subtract the plane directly, other
    weights go through one scratch product.
    """
    acc = None
    term = None
    for weight, plane in zip(weights, planes):
        if not weight:
            continue
        if acc is None:
            acc = np.multiply(plane, weight, dtype=dtype)
        elif weight == 1:
            np.add(acc, plane, out=acc)
        elif weight == -1:
            np.subtract(acc, plane, out=acc)
        else:
            if term is None:
                term = np.empty_like(acc)
            np.multiply(plane, weight, out=term, dtype=dtype)
            acc += term
    if acc is None:
        return np.zeros(planes[0].shape, dtype)
    return acc


def _fold(ufunc: np.ufunc, planes: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise ``ufunc`` fold (``np.minimum``/``np.maximum``) of the
    planes into one fresh array."""
    out = ufunc(planes[0], planes[-1])
    for plane in planes[1:-1]:
        ufunc(out, plane, out=out)
    return out


def _sat8_scalar(value: float) -> int:
    return int(min(max(round(value), 0), 255))


@dataclass(frozen=True)
class InterOp:
    """An elementwise operation over two frames: ``r = f(a, b)``."""

    name: str
    scalar: Callable[[int, int], int]
    vector: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cost: InstructionCost
    #: Stage-3 latency of the engine datapath, in engine cycles.
    engine_cycles: int = 1

    def __post_init__(self) -> None:
        # The engine's pipeline period divides by the latency; zero or a
        # negative one would otherwise run as if it were one.
        check_count(f"{self.name}.engine_cycles", self.engine_cycles)

    def apply_scalar(self, a: int, b: int) -> int:
        return self.scalar(a, b)

    def apply_vector(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.vector(a, b)


@dataclass(frozen=True)
class IntraOp:
    """A neighbourhood operation within one frame.

    ``scalar`` receives the neighbourhood values in the order of
    ``neighbourhood.offsets``; ``vector`` receives a sequence of
    ``len(offsets)`` equal-shape planes where plane ``i`` is the frame
    shifted by ``offsets[i]`` (border-clamped).  An ndarray stack shaped
    ``(len(offsets), height, width)`` qualifies; the vector executor
    passes zero-copy views.
    """

    name: str
    neighbourhood: Neighbourhood
    scalar: Callable[[Sequence[int]], int]
    vector: Callable[[Sequence[np.ndarray]], np.ndarray]
    cost: InstructionCost
    #: Stage-3 latency of the engine datapath, in engine cycles.
    engine_cycles: int = 1

    def __post_init__(self) -> None:
        # The engine's pipeline period divides by the latency; zero or a
        # negative one would otherwise run as if it were one.
        check_count(f"{self.name}.engine_cycles", self.engine_cycles)

    def apply_scalar(self, values: Sequence[int]) -> int:
        if len(values) != self.neighbourhood.size:
            raise ValueError(
                f"{self.name} expects {self.neighbourhood.size} "
                f"neighbourhood values, got {len(values)}")
        return self.scalar(values)

    def apply_vector(self, planes: Sequence[np.ndarray]) -> np.ndarray:
        if len(planes) != self.neighbourhood.size:
            raise ValueError(
                f"{self.name} expects {self.neighbourhood.size} "
                f"planes, got {len(planes)}")
        return self.vector(planes)


# ---------------------------------------------------------------------------
# Inter operations
# ---------------------------------------------------------------------------

def _absdiff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    difference = np.subtract(a, b, dtype=np.int16)
    return np.abs(difference, out=difference).astype(np.uint8)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    product = np.multiply(a, b, dtype=np.int32)
    product >>= 8
    return _sat8(product)


def _avg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    total = np.add(a, b, dtype=np.int16)
    total += 1
    total >>= 1
    return total.astype(np.uint8)


def _make_inter(name: str, scalar, vector, cost: InstructionCost,
                engine_cycles: int = 1) -> InterOp:
    return InterOp(name=name, scalar=scalar, vector=vector, cost=cost,
                   engine_cycles=engine_cycles)


#: Saturating addition of two frames.
INTER_ADD = _make_inter(
    "inter_add",
    lambda a, b: _sat8_scalar(a + b),
    lambda a, b: _sat8(np.add(a, b, dtype=np.int16)),
    InstructionCost(alu=2))

#: Saturating subtraction ``a - b``.
INTER_SUB = _make_inter(
    "inter_sub",
    lambda a, b: _sat8_scalar(a - b),
    lambda a, b: _sat8(np.subtract(a, b, dtype=np.int16)),
    InstructionCost(alu=2))

#: Absolute difference -- the difference-picture / SAD building block the
#: paper names as the canonical inter operation.
INTER_ABSDIFF = _make_inter(
    "inter_absdiff",
    lambda a, b: abs(int(a) - int(b)),
    lambda a, b: _absdiff(a, b),
    InstructionCost(alu=2, branch=1))

#: Fixed-point multiply: ``(a * b) >> 8`` (product scaled back to 8 bits).
INTER_MUL = _make_inter(
    "inter_mul",
    lambda a, b: _sat8_scalar((int(a) * int(b)) >> 8),
    lambda a, b: _mul(a, b),
    InstructionCost(mul=1, alu=1),
    engine_cycles=2)

#: Elementwise minimum.
INTER_MIN = _make_inter(
    "inter_min",
    lambda a, b: min(int(a), int(b)),
    lambda a, b: np.minimum(a, b),
    InstructionCost(alu=1, branch=1))

#: Elementwise maximum.
INTER_MAX = _make_inter(
    "inter_max",
    lambda a, b: max(int(a), int(b)),
    lambda a, b: np.maximum(a, b),
    InstructionCost(alu=1, branch=1))

#: Rounding average of two frames (temporal smoothing).
INTER_AVG = _make_inter(
    "inter_avg",
    lambda a, b: (int(a) + int(b) + 1) >> 1,
    lambda a, b: _avg(a, b),
    InstructionCost(alu=2))


# ---------------------------------------------------------------------------
# Intra operations
# ---------------------------------------------------------------------------

def copy_op() -> IntraOp:
    """CON_0 identity: the Table 2 ``Intra CON_0`` workload."""
    return IntraOp(
        name="intra_copy",
        neighbourhood=CON_0,
        scalar=lambda v: int(v[0]),
        vector=lambda s: s[0].astype(np.uint8),
        cost=InstructionCost(alu=1))


def threshold_op(threshold: int, low: int = 0, high: int = 255) -> IntraOp:
    """CON_0 binarisation: ``high`` where value >= threshold else ``low``."""
    return IntraOp(
        name=f"intra_threshold_{threshold}",
        neighbourhood=CON_0,
        scalar=lambda v: high if v[0] >= threshold else low,
        vector=lambda s: np.where(s[0] >= threshold, high, low)
        .astype(np.uint8),
        cost=InstructionCost(alu=1, branch=1))


def scale_offset_op(scale_num: int, scale_den: int, offset: int) -> IntraOp:
    """CON_0 affine remap: ``v * scale_num / scale_den + offset``, saturated."""
    if scale_den <= 0:
        raise ValueError("scale_den must be positive")

    def scalar(v: Sequence[int]) -> int:
        return _sat8_scalar(int(v[0]) * scale_num // scale_den + offset)

    def vector(s: Sequence[np.ndarray]) -> np.ndarray:
        return _sat8(s[0].astype(np.int64) * scale_num // scale_den + offset)

    return IntraOp(
        name=f"intra_scale_{scale_num}_{scale_den}_{offset}",
        neighbourhood=CON_0, scalar=scalar, vector=vector,
        cost=InstructionCost(mul=1, alu=2))


def fir_op(name: str, neighbourhood: Neighbourhood,
           weights: Sequence[int], shift: int = 0) -> IntraOp:
    """A FIR filter: weighted sum over the neighbourhood, ``>> shift``.

    ``weights`` follows ``neighbourhood.offsets`` order.  This is the
    paper's "FIR filter like operations" family (section 2.1: intra
    addressing is "typically used for FIR filter like operations").
    """
    if len(weights) != neighbourhood.size:
        raise ValueError(
            f"{name}: {len(weights)} weights for "
            f"{neighbourhood.size}-pixel neighbourhood")
    weights = tuple(int(w) for w in weights)
    dtype = _accumulator(_tap_bound(weights))

    def scalar(values: Sequence[int]) -> int:
        acc = sum(w * int(v) for w, v in zip(weights, values))
        return _sat8_scalar(acc >> shift if shift else acc)

    def vector(planes: Sequence[np.ndarray]) -> np.ndarray:
        acc = _weighted_sum(planes, weights, dtype)
        if shift:
            acc >>= shift
        return _sat8(acc)

    taps = sum(1 for w in weights if w)
    return IntraOp(
        name=name, neighbourhood=neighbourhood, scalar=scalar, vector=vector,
        cost=InstructionCost(mul=taps, alu=taps + 1),
        engine_cycles=2)


def box3_op() -> IntraOp:
    """3x3 box blur (sum / 9 approximated as ``* 57 >> 9``)."""
    nine = [1] * 9

    def scalar(values: Sequence[int]) -> int:
        return _sat8_scalar((sum(int(v) for v in values) * 57) >> 9)

    # The sum fits int16; scaled by 57 it needs int32.
    dtype = _accumulator(_tap_bound(nine))
    scaled_dtype = _accumulator(_tap_bound(nine) * 57)

    def vector(planes: Sequence[np.ndarray]) -> np.ndarray:
        acc = np.multiply(_weighted_sum(planes, nine, dtype), 57,
                          dtype=scaled_dtype)
        acc >>= 9
        return _sat8(acc)

    return IntraOp(
        name="intra_box3", neighbourhood=CON_8, scalar=scalar, vector=vector,
        cost=InstructionCost(mul=1, alu=len(nine) + 1), engine_cycles=2)


def _offset_weight_map(neighbourhood: Neighbourhood,
                       mapping: Dict[Tuple[int, int], int]) -> Tuple[int, ...]:
    return tuple(mapping.get(off, 0) for off in neighbourhood.offsets)


_SOBEL_X = _offset_weight_map(CON_8, {
    (-1, -1): -1, (1, -1): 1,
    (-1, 0): -2, (1, 0): 2,
    (-1, 1): -1, (1, 1): 1,
})
_SOBEL_Y = _offset_weight_map(CON_8, {
    (-1, -1): -1, (0, -1): -2, (1, -1): -1,
    (-1, 1): 1, (0, 1): 2, (1, 1): 1,
})


def _biased_derivative_op(name: str, weights: Tuple[int, ...],
                          cost: InstructionCost) -> IntraOp:
    """A signed 3x3 derivative ``(sum(w * v) >> 3) + 128``, saturated:
    the bias centres zero response in the 8-bit range."""
    dtype = _accumulator(_tap_bound(weights) + 128)

    def scalar(values: Sequence[int]) -> int:
        acc = sum(w * int(v) for w, v in zip(weights, values))
        return _sat8_scalar((acc >> 3) + 128)

    def vector(planes: Sequence[np.ndarray]) -> np.ndarray:
        acc = _weighted_sum(planes, weights, dtype)
        acc >>= 3
        acc += 128
        return _sat8(acc)

    return IntraOp(name=name, neighbourhood=CON_8, scalar=scalar,
                   vector=vector, cost=cost, engine_cycles=2)


def sobel_x_op() -> IntraOp:
    """Horizontal Sobel derivative, biased by +128 into the 8-bit range."""
    return _biased_derivative_op("intra_sobel_x", _SOBEL_X,
                                 InstructionCost(mul=6, alu=8))


def sobel_y_op() -> IntraOp:
    """Vertical Sobel derivative, biased by +128 into the 8-bit range."""
    return _biased_derivative_op("intra_sobel_y", _SOBEL_Y,
                                 InstructionCost(mul=6, alu=8))


def gradient_magnitude_op() -> IntraOp:
    """|Sobel_x| + |Sobel_y| over the 3x3 neighbourhood ("grad")."""
    def scalar(values: Sequence[int]) -> int:
        gx = sum(w * int(v) for w, v in zip(_SOBEL_X, values))
        gy = sum(w * int(v) for w, v in zip(_SOBEL_Y, values))
        return _sat8_scalar((abs(gx) + abs(gy)) >> 3)

    # |gx| + |gy| reaches twice one derivative's bound.
    dtype = _accumulator(_tap_bound(_SOBEL_X) + _tap_bound(_SOBEL_Y))

    def vector(planes: Sequence[np.ndarray]) -> np.ndarray:
        gx = _weighted_sum(planes, _SOBEL_X, dtype)
        gy = _weighted_sum(planes, _SOBEL_Y, dtype)
        np.abs(gx, out=gx)
        gx += np.abs(gy, out=gy)
        gx >>= 3
        return _sat8(gx)

    return IntraOp(name="intra_grad", neighbourhood=CON_8,
                   scalar=scalar, vector=vector,
                   cost=InstructionCost(mul=12, alu=18, branch=2),
                   engine_cycles=3)


def erode_op(neighbourhood: Neighbourhood = CON_8) -> IntraOp:
    """Morphological erosion: neighbourhood minimum."""
    return IntraOp(
        name=f"intra_erode_{neighbourhood.name}",
        neighbourhood=neighbourhood,
        scalar=lambda v: int(min(v)),
        vector=lambda s: _fold(np.minimum, s),
        cost=InstructionCost(alu=neighbourhood.size - 1,
                             branch=neighbourhood.size - 1))


def dilate_op(neighbourhood: Neighbourhood = CON_8) -> IntraOp:
    """Morphological dilation: neighbourhood maximum."""
    return IntraOp(
        name=f"intra_dilate_{neighbourhood.name}",
        neighbourhood=neighbourhood,
        scalar=lambda v: int(max(v)),
        vector=lambda s: _fold(np.maximum, s),
        cost=InstructionCost(alu=neighbourhood.size - 1,
                             branch=neighbourhood.size - 1))


def morph_gradient_op(neighbourhood: Neighbourhood = CON_8) -> IntraOp:
    """Morphological gradient: dilation minus erosion in one pass.

    The paper names "morphological gradient operations" as a canonical
    composition of basic sub-functions.
    """
    def vector(planes: Sequence[np.ndarray]) -> np.ndarray:
        high = _fold(np.maximum, planes)
        return np.subtract(high, _fold(np.minimum, planes), out=high)

    return IntraOp(
        name=f"intra_morph_grad_{neighbourhood.name}",
        neighbourhood=neighbourhood,
        scalar=lambda v: int(max(v)) - int(min(v)),
        vector=vector,
        cost=InstructionCost(alu=2 * neighbourhood.size - 1,
                             branch=2 * (neighbourhood.size - 1)),
        engine_cycles=2)


def median3_op() -> IntraOp:
    """3x3 median filter (rank filter; impulse noise removal)."""
    def scalar(values: Sequence[int]) -> int:
        ordered = sorted(int(v) for v in values)
        return ordered[len(ordered) // 2]

    def vector(planes: Sequence[np.ndarray]) -> np.ndarray:
        return np.median(np.asarray(planes), axis=0).astype(np.uint8)

    return IntraOp(name="intra_median3", neighbourhood=CON_8,
                   scalar=scalar, vector=vector,
                   cost=InstructionCost(alu=30, branch=19),
                   engine_cycles=4)


def laplace_op() -> IntraOp:
    """3x3 Laplacian (centre*8 - neighbours), biased by +128."""
    weights = _offset_weight_map(CON_8, {
        (0, 0): 8,
        (-1, -1): -1, (0, -1): -1, (1, -1): -1,
        (-1, 0): -1, (1, 0): -1,
        (-1, 1): -1, (0, 1): -1, (1, 1): -1,
    })
    return _biased_derivative_op("intra_laplace", weights,
                                 InstructionCost(mul=9, alu=10))


def homogeneity_op(neighbourhood: Neighbourhood = CON_8) -> IntraOp:
    """Maximum absolute difference between the centre and its neighbours.

    The paper's example composition: "luminance/chrominance difference
    between neighboring pixels for homogeneity check" -- low output means
    the centre sits inside a homogeneous region, high output marks a
    boundary.  Segment growing thresholds this value.
    """
    centre_index = neighbourhood.offsets.index((0, 0))

    def scalar(values: Sequence[int]) -> int:
        centre = int(values[centre_index])
        return max(abs(int(v) - centre) for v in values)

    def vector(planes: Sequence[np.ndarray]) -> np.ndarray:
        # The centre is one of the planes, so max |v - c| is the larger
        # of max(v) - c and c - min(v): both fit uint8 unwidened.
        centre = planes[centre_index]
        above = _fold(np.maximum, planes)
        above -= centre
        below = _fold(np.minimum, planes)
        np.subtract(centre, below, out=below)
        return np.maximum(above, below, out=above)

    return IntraOp(name=f"intra_homogeneity_{neighbourhood.name}",
                   neighbourhood=neighbourhood,
                   scalar=scalar, vector=vector,
                   cost=InstructionCost(alu=2 * neighbourhood.size,
                                        branch=neighbourhood.size))


#: Ready-made instances of the parameterless intra ops.
INTRA_COPY = copy_op()
INTRA_BOX3 = box3_op()
INTRA_SOBEL_X = sobel_x_op()
INTRA_SOBEL_Y = sobel_y_op()
INTRA_GRAD = gradient_magnitude_op()
INTRA_ERODE = erode_op()
INTRA_DILATE = dilate_op()
INTRA_MORPH_GRAD = morph_gradient_op()
INTRA_MEDIAN3 = median3_op()
INTRA_LAPLACE = laplace_op()
INTRA_HOMOGENEITY = homogeneity_op()

#: All named inter ops, by name.
INTER_OPS: Dict[str, InterOp] = {
    op.name: op for op in (
        INTER_ADD, INTER_SUB, INTER_ABSDIFF, INTER_MUL, INTER_MIN,
        INTER_MAX, INTER_AVG)
}

#: All parameterless intra ops, by name.
INTRA_OPS: Dict[str, IntraOp] = {
    op.name: op for op in (
        INTRA_COPY, INTRA_BOX3, INTRA_SOBEL_X, INTRA_SOBEL_Y, INTRA_GRAD,
        INTRA_ERODE, INTRA_DILATE, INTRA_MORPH_GRAD, INTRA_MEDIAN3,
        INTRA_LAPLACE, INTRA_HOMOGENEITY)
}
