"""Intra ops on zero-copy neighbourhood views.

:meth:`VectorExecutor.intra` hands each op a tuple of shifted views of
one padded plane instead of a ``(taps, H, W)`` stack, and the built-in
vector faces accumulate in int32 (FIR) or fold pairwise (min/max ops).
These tests pin that path bit-exact to the per-pixel scalar face over
the per-offset shifted reference, on degenerate and odd geometries, and
bound its memory so a materialized stack cannot quietly come back.
"""

import tracemalloc

import numpy as np
import pytest

from repro.addresslib import (COLUMN_9, CON_8, INTRA_MEDIAN3, INTRA_OPS,
                              KERNEL_FACTORIES, ChannelSet, VectorExecutor,
                              fir_op, neighbourhood_stack,
                              neighbourhood_stack_shifted,
                              neighbourhood_views)
from repro.image import QCIF, Channel, ImageFormat, noise_frame

GEOMETRIES = [(1, 1), (1, 7), (7, 1), (5, 3), (13, 9)]
YUV = (Channel.Y, Channel.U, Channel.V)

#: 2^24-scale weights: one tap times 255 already overflows int32.
BIG_WEIGHTS = [1 << 24, -(1 << 24) + 3, 5, -(1 << 23), 1 << 24,
               -7, (1 << 22) + 1, -(1 << 24), 11]
BIG_FIR = fir_op("fir_big", CON_8, BIG_WEIGHTS, shift=22)


def _all_ops():
    ops = dict(INTRA_OPS)
    ops.update({name: factory() for name, factory
                in KERNEL_FACTORIES.items()})
    ops["fir_column9"] = fir_op("fir_column9", COLUMN_9,
                                [1, -2, 3, -4, 16, -4, 3, -2, 1], shift=2)
    ops[BIG_FIR.name] = BIG_FIR
    return ops


ALL_OPS = _all_ops()


def _frame(width, height, seed, extremes=False):
    frame = noise_frame(ImageFormat(f"W{width}x{height}", width, height),
                        seed=seed)
    if extremes:  # saturating content: every pixel 0 or 255
        for channel in YUV:
            plane = frame.plane(channel)
            plane[:] = np.where(plane >= 128, 255, 0)
    return frame


def _scalar_reference(op, frame):
    """The per-pixel scalar face over the shifted-plane reference."""
    expected = frame.copy()
    for channel in YUV:
        stack = neighbourhood_stack_shifted(frame.plane(channel),
                                            op.neighbourhood)
        out = expected.plane(channel)
        for y in range(frame.height):
            for x in range(frame.width):
                out[y, x] = op.apply_scalar(
                    [int(v) for v in stack[:, y, x]])
    return expected


@pytest.mark.parametrize("extremes", [False, True],
                         ids=["noise", "extremes"])
@pytest.mark.parametrize("width,height", GEOMETRIES)
@pytest.mark.parametrize("name", sorted(ALL_OPS))
def test_vector_intra_matches_scalar_face(name, width, height, extremes):
    op = ALL_OPS[name]
    frame = _frame(width, height, seed=width * 100 + height,
                   extremes=extremes)
    result = VectorExecutor.intra(op, frame, ChannelSet.YUV)
    assert result.equals(_scalar_reference(op, frame))


@pytest.mark.parametrize("name", sorted(ALL_OPS))
def test_stack_and_views_give_identical_output(name):
    op = ALL_OPS[name]
    plane = _frame(13, 9, seed=91).y
    views = neighbourhood_views(plane, op.neighbourhood)
    assert isinstance(views, tuple)
    stack = neighbourhood_stack(plane, op.neighbourhood)
    via_stack = op.apply_vector(stack)
    via_views = op.apply_vector(views)
    assert via_views.dtype == via_stack.dtype == np.uint8
    assert np.array_equal(via_views, via_stack)
    # The views do not copy the plane: they all share one padded buffer.
    if len(views) > 1:
        assert all(np.shares_memory(views[0], view) for view in views)


def test_big_weight_fir_needs_int64():
    """The scalar-face tests above cover ``fir_big``; this proves their
    inputs really overflow int32, so they exercise the widening."""
    frame = _frame(13, 9, seed=5)
    stack = neighbourhood_stack(frame.y, CON_8).astype(np.int64)
    exact = sum(w * p for w, p in zip(BIG_WEIGHTS, stack))
    assert np.any(exact != exact.astype(np.int32))


def test_apply_vector_checks_plane_count():
    plane = _frame(5, 3, seed=1).y
    with pytest.raises(ValueError, match="expects 9 planes, got 2"):
        INTRA_OPS["intra_grad"].apply_vector((plane, plane))


#: Peak-allocation budget of one warm QCIF intra call, in uint8 planes
#: (includes the copied result frame's seven plane-equivalents).
PEAK_PLANES = 32


@pytest.mark.parametrize("op", [
    op for op in list(INTRA_OPS.values())
    + [factory() for factory in KERNEL_FACTORIES.values()]
    if op.neighbourhood is CON_8 and op is not INTRA_MEDIAN3
], ids=lambda op: op.name)
def test_warm_qcif_intra_peak_allocation(op):
    frame = noise_frame(QCIF, seed=12)
    VectorExecutor.intra(op, frame)  # warm up
    tracemalloc.start()
    try:
        VectorExecutor.intra(op, frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_PLANES * QCIF.width * QCIF.height, (
        f"{op.name} peaked at {peak / QCIF.pixels:.1f} uint8 planes")
