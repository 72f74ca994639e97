"""The stacked wave kernel reproduces the one-call executor bit for bit.

``VectorExecutor.wave`` computes a whole wave of same-op, same-format
calls as one ``(n, height, width)`` pass per written channel, and
``VectorExecutor.intra``/``inter``/``inter_reduce`` are its one-call
case.  The per-call bodies it replaced are kept below verbatim as
golden models (with the single-plane ``neighbourhood_views`` they
called).  Hypothesis varies the op (every registered intra and inter
op), the wave size, the frame shape -- down to one row or one column
-- and the channel set; every result must match its golden model to
the byte, the inputs must come back untouched, and no result may share
memory with an input or with a sibling result.
"""

from contextlib import contextmanager
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (INTER_OPS, INTRA_OPS, ChannelSet,
                              VectorExecutor)
from repro.addresslib import executor
from repro.addresslib.executor import channels_of
from repro.image import ImageFormat, noise_frame
from repro.image.frame import Frame
from repro.image.pixel import ALL_CHANNELS


# -- golden models (the per-call versions, kept verbatim) --------------------

def golden_neighbourhood_views(plane, neighbourhood):
    offsets = neighbourhood.offsets
    if offsets == ((0, 0),):  # CON_0: the plane itself
        return (plane,)
    height, width = plane.shape
    min_dx, min_dy, max_dx, max_dy = neighbourhood.bounding_box()
    pad_top = max(0, -min_dy)
    pad_left = max(0, -min_dx)
    # The edge pad by hand: np.pad's setup costs more than the copy.
    padded = np.empty((height + pad_top + max(0, max_dy),
                       width + pad_left + max(0, max_dx)), plane.dtype)
    body = padded[pad_top:pad_top + height]
    body[:, pad_left:pad_left + width] = plane
    body[:, :pad_left] = plane[:, :1]
    body[:, pad_left + width:] = plane[:, -1:]
    padded[:pad_top] = body[0]
    padded[pad_top + height:] = body[-1]
    return tuple(padded[pad_top + dy:pad_top + dy + height,
                        pad_left + dx:pad_left + dx + width]
                 for dx, dy in offsets)


def golden_inter(op, frame_a, frame_b, channels=ChannelSet.Y):
    if frame_a.format.pixels != frame_b.format.pixels or \
            frame_a.width != frame_b.width:
        raise ValueError(
            f"inter call needs equal formats, got {frame_a.format} "
            f"vs {frame_b.format}")
    result = frame_a.copy()
    for channel in channels_of(channels):
        result.plane(channel)[:] = op.apply_vector(
            frame_a.plane(channel), frame_b.plane(channel))
    return result


def golden_intra(op, frame, channels=ChannelSet.Y):
    result = frame.copy()
    for channel in channels_of(channels):
        planes = golden_neighbourhood_views(frame.plane(channel),
                                            op.neighbourhood)
        result.plane(channel)[:] = op.apply_vector(planes)
    return result


def golden_inter_reduce(op, frame_a, frame_b, channels=ChannelSet.Y):
    total = 0
    for channel in channels_of(channels):
        values = op.apply_vector(frame_a.plane(channel),
                                 frame_b.plane(channel))
        total += int(values.astype(np.int64).sum())
    return total


# -- helpers -----------------------------------------------------------------

_INTRA = sorted(INTRA_OPS)
_INTER = sorted(INTER_OPS)


def _frame_bytes(frame: Frame) -> Tuple[bytes, ...]:
    return tuple(frame.plane(channel).tobytes()
                 for channel in ALL_CHANNELS)


def _shape():
    """Frame shapes: general, one row, one column."""
    side = st.integers(min_value=1, max_value=24)
    return st.one_of(
        st.tuples(side, side),
        st.tuples(side, st.just(1)),
        st.tuples(st.just(1), side))


def _frames(fmt: ImageFormat, count: int, seed: int) -> List[Frame]:
    return [noise_frame(fmt, seed=seed + index) for index in range(count)]


def _assert_results_disjoint(results, inputs):
    """No result plane shares memory with an input plane or a sibling."""
    for index, result in enumerate(results):
        for channel in ALL_CHANNELS:
            plane = result.plane(channel)
            for frame in inputs:
                for source in ALL_CHANNELS:
                    assert not np.shares_memory(plane,
                                                frame.plane(source))
            for sibling in results[index + 1:]:
                for other in ALL_CHANNELS:
                    assert not np.shares_memory(plane,
                                                sibling.plane(other))


def _check_planes(result: Frame) -> None:
    for channel in ALL_CHANNELS:
        plane = result.plane(channel)
        assert plane.shape == (result.height, result.width)
        assert plane.dtype == Frame(result.format).plane(channel).dtype


_CHANNELS = st.sampled_from([ChannelSet.Y, ChannelSet.YUV])
#: Stack bounds: the default (whole waves of these small frames), and
#: bounds that split a wave into several stacks, down to one call each.
_STACK_PIXELS = st.sampled_from([executor.STACK_PIXELS, 300, 1])


@contextmanager
def _stack_pixels(bound):
    saved = executor.STACK_PIXELS
    executor.STACK_PIXELS = bound
    try:
        yield
    finally:
        executor.STACK_PIXELS = saved


class TestWaveKernelGolden:
    @settings(max_examples=120, deadline=None)
    @given(op_name=st.sampled_from(_INTRA), shape=_shape(),
           count=st.integers(min_value=1, max_value=8),
           channels=_CHANNELS, seed=st.integers(0, 10_000),
           bound=_STACK_PIXELS)
    def test_intra_wave_matches_per_call_golden(self, op_name, shape,
                                                count, channels, seed,
                                                bound):
        op = INTRA_OPS[op_name]
        fmt = ImageFormat("W", *shape)
        frames = _frames(fmt, count, seed)
        before = [_frame_bytes(frame) for frame in frames]
        with _stack_pixels(bound):
            results = VectorExecutor.wave(op, [(f,) for f in frames],
                                          channels)
        assert [_frame_bytes(f) for f in frames] == before
        assert len(results) == count
        for frame, result in zip(frames, results):
            _check_planes(result)
            assert (_frame_bytes(result)
                    == _frame_bytes(golden_intra(op, frame, channels)))
        _assert_results_disjoint(results, frames)
        single = VectorExecutor.intra(op, frames[0], channels)
        assert _frame_bytes(single) == _frame_bytes(results[0])
        _assert_results_disjoint([single], frames)

    @settings(max_examples=120, deadline=None)
    @given(op_name=st.sampled_from(_INTER), shape=_shape(),
           count=st.integers(min_value=1, max_value=8),
           channels=_CHANNELS, seed=st.integers(0, 10_000),
           bound=_STACK_PIXELS)
    def test_inter_wave_matches_per_call_golden(self, op_name, shape,
                                                count, channels, seed,
                                                bound):
        op = INTER_OPS[op_name]
        fmt = ImageFormat("W", *shape)
        firsts = _frames(fmt, count, seed)
        seconds = _frames(fmt, count, seed + 50_000)
        inputs = firsts + seconds
        before = [_frame_bytes(frame) for frame in inputs]
        pairs = list(zip(firsts, seconds))
        with _stack_pixels(bound):
            results = VectorExecutor.wave(op, pairs, channels)
            sums = VectorExecutor.wave(op, pairs, channels,
                                       reduce_to_scalar=True)
        assert [_frame_bytes(f) for f in inputs] == before
        for (a, b), result, total in zip(pairs, results, sums):
            _check_planes(result)
            assert (_frame_bytes(result)
                    == _frame_bytes(golden_inter(op, a, b, channels)))
            assert type(total) is int
            assert total == golden_inter_reduce(op, a, b, channels)
        _assert_results_disjoint(results, inputs)
        a, b = pairs[0]
        single = VectorExecutor.inter(op, a, b, channels)
        assert _frame_bytes(single) == _frame_bytes(results[0])
        _assert_results_disjoint([single], inputs)
        assert VectorExecutor.inter_reduce(op, a, b, channels) == sums[0]

    def test_an_op_returning_its_operand_never_aliases_the_input(self):
        """A one-call wave stacks its operand as a view; an op that
        hands that view back still yields a result of its own."""
        from dataclasses import replace
        passthrough = replace(INTER_OPS["inter_min"],
                              vector=lambda a, b: a)
        fmt = ImageFormat("W", 5, 3)
        a, b = noise_frame(fmt, seed=1), noise_frame(fmt, seed=2)
        result = VectorExecutor.inter(passthrough, a, b)
        assert result.y.tobytes() == a.y.tobytes()
        _assert_results_disjoint([result], [a, b])

    def test_mixed_formats_are_refused(self):
        a = noise_frame(ImageFormat("A", 4, 4), seed=1)
        b = noise_frame(ImageFormat("B", 4, 5), seed=2)
        try:
            VectorExecutor.wave(INTRA_OPS["intra_box3"], [(a,), (b,)])
        except ValueError as error:
            assert "equal formats" in str(error)
        else:
            raise AssertionError("a mixed-format wave must raise")

    def test_qcif_wave_spans_several_stacks(self):
        """Eight QCIF calls at three per stack: stacks of 3, 3 and 2."""
        fmt = ImageFormat("QCIF", 176, 144)
        frames = _frames(fmt, 8, 7)
        op = INTRA_OPS["intra_grad"]
        with _stack_pixels(3 * fmt.pixels):
            results = VectorExecutor.wave(op, [(f,) for f in frames])
        for frame, result in zip(frames, results):
            assert _frame_bytes(result) == _frame_bytes(
                golden_intra(op, frame))
        _assert_results_disjoint(results, frames)

    def test_empty_wave(self):
        assert VectorExecutor.wave(INTRA_OPS["intra_box3"], []) == []
