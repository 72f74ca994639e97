"""Packed frames: channel planes, pixel access, ZBT word views, strips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.image import (ALL_CHANNELS, Channel, Frame, ImageFormat, Pixel,
                         STRIP_LINES, noise_frame)


@pytest.fixture
def fmt():
    return ImageFormat("T8x6", 8, 6)


class TestPixelAccess:
    def test_set_then_get(self, fmt):
        frame = Frame(fmt)
        pixel = Pixel(y=10, u=20, v=30, alfa=40000, aux=50000)
        frame.set_pixel(3, 2, pixel)
        assert frame.get_pixel(3, 2) == pixel

    def test_out_of_range_raises(self, fmt):
        frame = Frame(fmt)
        with pytest.raises(IndexError):
            frame.get_pixel(8, 0)
        with pytest.raises(IndexError):
            frame.set_pixel(0, 6, Pixel())

    def test_fill(self, fmt):
        frame = Frame(fmt)
        frame.fill(Pixel(y=7, u=8, v=9, alfa=10, aux=11))
        assert frame.get_pixel(0, 0) == frame.get_pixel(7, 5)
        assert int(frame.y.sum()) == 7 * fmt.pixels

    def test_plane_dtype_widths(self, fmt):
        frame = Frame(fmt)
        assert frame.y.dtype == np.uint8
        assert frame.alfa.dtype == np.uint16
        assert frame.aux.dtype == np.uint16


class TestWordView:
    def test_words_match_pixel_packing(self, fmt):
        frame = noise_frame(fmt, seed=3)
        lower, upper = frame.to_words()
        for y in (0, 3, 5):
            for x in (0, 4, 7):
                expected = frame.get_pixel(x, y).pack()
                assert (int(lower[y, x]), int(upper[y, x])) == expected

    def test_roundtrip(self, fmt):
        frame = noise_frame(fmt, seed=4)
        lower, upper = frame.to_words()
        rebuilt = Frame.from_words(fmt, lower, upper)
        assert rebuilt.equals(frame)

    def test_from_words_shape_check(self, fmt):
        with pytest.raises(ValueError):
            Frame.from_words(fmt, np.zeros((2, 2), np.uint32),
                             np.zeros((2, 2), np.uint32))


class TestStrips:
    def test_strip_bounds_cover_frame_exactly(self):
        fmt = ImageFormat("T8x40", 8, 40)
        frame = Frame(fmt)
        bounds = list(frame.strip_bounds())
        assert bounds[0] == (0, STRIP_LINES)
        assert bounds[-1][1] == 40
        covered = sum(bottom - top for top, bottom in bounds)
        assert covered == 40

    def test_strip_extraction_copies_content(self):
        fmt = ImageFormat("T8x32", 8, 32)
        frame = noise_frame(fmt, seed=5)
        strip = frame.strip(1)
        assert strip.height == STRIP_LINES
        assert np.array_equal(strip.y, frame.y[16:32])
        strip.y[:] = 0  # mutating the copy leaves the source intact
        assert frame.y[16:32].any()

    def test_strip_index_bounds(self, fmt):
        frame = Frame(fmt)
        with pytest.raises(IndexError):
            frame.strip(1)


class TestCopyEquality:
    def test_copy_is_deep(self, fmt):
        frame = noise_frame(fmt, seed=6)
        duplicate = frame.copy()
        assert duplicate.equals(frame)
        duplicate.aux[0, 0] += 1
        assert not duplicate.equals(frame)

    def test_copy_of_attached_views_owns_contiguous_planes(self, fmt):
        """A frame wrapping borrowed, strided, read-only buffers (the
        shared-memory attach path) copies into owned C-contiguous
        planes of the canonical dtypes."""
        source = noise_frame(fmt, seed=7)
        views = {}
        for channel in ALL_CHANNELS:
            wide = np.repeat(source.plane(channel), 2, axis=1)[:, ::2]
            wide.flags.writeable = False
            views[channel] = wide
        attached = Frame.from_plane_views(fmt, views)
        duplicate = attached.copy()
        assert duplicate.equals(source)
        for channel in ALL_CHANNELS:
            plane = duplicate.plane(channel)
            assert plane.flags.c_contiguous and plane.flags.owndata
            assert plane.flags.writeable
            assert plane.dtype == source.plane(channel).dtype
            assert not np.shares_memory(plane, views[channel])

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_word_roundtrip_property(self, seed):
        fmt = ImageFormat("TP", 5, 4)
        frame = noise_frame(fmt, seed=seed)
        lower, upper = frame.to_words()
        assert Frame.from_words(fmt, lower, upper).equals(frame)
