"""The GME host kernels reproduce their golden models bit for bit.

``textured_panorama`` and ``warp_luma`` are the two pure-numpy host
routines every Table 3 frame passes through.  Their outputs feed the
estimator's SADs, so the Table 3 books (call counts and modeled
seconds) hang on their exact bits.  The straightforward versions they
replaced are kept below verbatim as golden models; Hypothesis varies
sizes, seeds, octaves, models, source dtypes, output shapes and fill
values, and every output and mask must match to the byte.
"""

import math
import warnings
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gme import (DOME, MOVIE, SINGAPORE, TABLE3_SEQUENCES,
                       AffineModel, PerspectiveModel, TranslationalModel,
                       evaluate_sequence_dual, warp_luma)
from repro.gme.warp import coordinate_grid
from repro.image import textured_panorama


# -- golden models (the straightforward versions, kept verbatim) -------------

def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(0xADD2E55 if seed is None else seed)


def golden_textured_panorama(width: int, height: int,
                             seed: Optional[int] = None,
                             octaves: int = 4) -> np.ndarray:
    if octaves < 1:
        raise ValueError("need at least one octave")
    rng = _rng(seed)
    canvas = np.zeros((height, width), dtype=np.float64)
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
        fx = (xs - x0)[None, :]
        c00 = coarse[np.ix_(y0, x0)]
        c01 = coarse[np.ix_(y0, x0 + 1)]
        c10 = coarse[np.ix_(y0 + 1, x0)]
        c11 = coarse[np.ix_(y0 + 1, x0 + 1)]
        layer = (c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx
                 + c10 * fy * (1 - fx) + c11 * fy * fx)
        canvas += amplitude * layer
        total_amplitude += amplitude
        amplitude *= 0.55
    canvas /= total_amplitude
    # Stretch to the full 8-bit range but keep float precision for sampling.
    canvas -= canvas.min()
    peak = canvas.max()
    if peak > 0:
        canvas *= 255.0 / peak
    return canvas


def golden_warp_luma(luma: np.ndarray, model, fill: float = 0.0,
                     output_shape: Tuple[int, int] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    src_height, src_width = luma.shape
    out_height, out_width = output_shape or luma.shape
    source = luma.astype(np.float64)
    ys, xs = np.mgrid[0:out_height, 0:out_width].astype(np.float64)
    width, height = src_width, src_height
    sx, sy = model.apply(xs, ys)

    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    valid = (x0 >= 0) & (y0 >= 0) & (x0 < width - 1) & (y0 < height - 1)

    x0c = np.clip(x0, 0, width - 2)
    y0c = np.clip(y0, 0, height - 2)
    top = (source[y0c, x0c] * (1 - fx)
           + source[y0c, x0c + 1] * fx)
    bottom = (source[y0c + 1, x0c] * (1 - fx)
              + source[y0c + 1, x0c + 1] * fx)
    warped = top * (1 - fy) + bottom * fy
    warped = np.where(valid, warped, fill)
    return warped, valid


# -- strategies ---------------------------------------------------------------

def _finite(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False,
                     allow_infinity=False)


affine_models = st.builds(
    AffineModel, a=_finite(0.5, 1.5), b=_finite(-0.5, 0.5),
    tx=_finite(-20, 20), c=_finite(-0.5, 0.5), d=_finite(0.5, 1.5),
    ty=_finite(-20, 20))
translational_models = st.builds(
    TranslationalModel, tx=_finite(-20, 20), ty=_finite(-20, 20))
#: Perspective terms small enough that the denominator stays positive
#: over every output grid drawn here (at most 40 x 40).
perspective_models = st.builds(
    PerspectiveModel, a=_finite(0.5, 1.5), b=_finite(-0.5, 0.5),
    tx=_finite(-20, 20), c=_finite(-0.5, 0.5), d=_finite(0.5, 1.5),
    ty=_finite(-20, 20), px=_finite(-0.01, 0.01), py=_finite(-0.01, 0.01))
models = st.one_of(affine_models, translational_models, perspective_models)
sizes = st.integers(min_value=1, max_value=40)


@st.composite
def sources(draw):
    """uint8 or float64 planes, including one-row and one-column ones;
    float64 ones are sometimes in Fortran order."""
    height, width = draw(sizes), draw(sizes)
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        return rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    plane = rng.random((height, width)) * 255.0
    if draw(st.booleans()):
        plane = np.ascontiguousarray(plane.T).T  # Fortran order
    return plane


output_shapes = st.one_of(st.none(), st.tuples(sizes, sizes))
fills = _finite(-300, 300)


def _golden_warp(luma, model, fill, output_shape):
    with warnings.catch_warnings():
        # The golden model casts out-of-range floors to int64.
        warnings.simplefilter("ignore", RuntimeWarning)
        return golden_warp_luma(luma, model, fill, output_shape)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- textured_panorama --------------------------------------------------------

class TestPanoramaGolden:
    @given(width=st.integers(1, 90), height=st.integers(1, 70),
           seed=st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)),
           octaves=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_bit_exact(self, width, height, seed, octaves):
        _assert_same_bits(textured_panorama(width, height, seed, octaves),
                          golden_textured_panorama(width, height, seed,
                                                   octaves))

    @pytest.mark.parametrize("spec", TABLE3_SEQUENCES,
                             ids=lambda spec: spec.name)
    def test_table3_panoramas_bit_exact(self, spec):
        """The full-size scenes the Table 3 sequences pan across."""
        args = (spec.panorama_width, spec.panorama_height, spec.seed)
        _assert_same_bits(textured_panorama(*args),
                          golden_textured_panorama(*args))

    def test_result_is_fresh_and_writable(self):
        first = textured_panorama(40, 30, seed=3)
        second = textured_panorama(40, 30, seed=3)
        assert first.flags.writeable and first.flags.c_contiguous
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("width, height, bad", [
        (0, 16, "width"), (-4, 16, "width"),
        (16, 0, "height"), (16, -1, "height")])
    def test_rejects_empty_or_negative_size(self, width, height, bad):
        with pytest.raises(ValueError, match=bad):
            textured_panorama(width, height, seed=1)


# -- warp_luma ----------------------------------------------------------------

class TestWarpGolden:
    @given(luma=sources(), model=models, fill=fills,
           output_shape=output_shapes)
    @settings(max_examples=200, deadline=None)
    def test_bit_exact(self, luma, model, fill, output_shape):
        before = luma.copy()
        warped, valid = warp_luma(luma, model, fill=fill,
                                  output_shape=output_shape)
        want_warped, want_valid = _golden_warp(luma, model, fill,
                                               output_shape)
        _assert_same_bits(warped, want_warped)
        _assert_same_bits(valid, want_valid)
        # The source is read, never written.
        assert luma.tobytes() == before.tobytes()
        # Fresh, writable results that alias neither the source nor the
        # shared coordinate grid.
        xs, ys = coordinate_grid(*warped.shape)
        for result in (warped, valid):
            assert result.flags.writeable
            for other in (luma, xs, ys):
                assert not np.shares_memory(result, other)
        assert not np.shares_memory(warped, valid)

    def test_table3_render_bit_exact(self):
        """A CIF frame rendered from the full Singapore panorama."""
        panorama = golden_textured_panorama(
            SINGAPORE.panorama_width, SINGAPORE.panorama_height,
            SINGAPORE.seed)
        for index in (0, 4, 8):
            args = (panorama, SINGAPORE.pose(index), 96.0, (288, 352))
            for got, want in zip(warp_luma(*args), _golden_warp(*args)):
                _assert_same_bits(got, want)

    def test_float64_source_is_not_copied_or_written(self):
        luma = np.random.default_rng(5).random((24, 32)) * 255.0
        luma.flags.writeable = False  # any write would raise
        warped, valid = warp_luma(luma, AffineModel(tx=0.5, ty=0.25))
        assert valid.any()
        _assert_same_bits(warped, _golden_warp(
            luma, AffineModel(tx=0.5, ty=0.25), 0.0, None)[0])

    def test_in_place_updates_do_not_corrupt_later_warps(self):
        """``Mosaic.accumulate`` does ``valid &= ...`` on returned masks:
        no result may alias state a later call reads."""
        luma = np.random.default_rng(6).random((30, 40)) * 255.0
        first_model = AffineModel(a=1.02, b=0.01, tx=1.5, ty=-0.5)
        second_model = TranslationalModel(3.25, 2.5)
        warped_a, valid_a = warp_luma(luma, first_model, fill=9.0)
        warped_b, valid_b = warp_luma(luma, second_model, fill=9.0)
        valid_a &= valid_b
        valid_a[:] = False
        valid_b[:] = True
        warped_a *= -1.0
        warped_b[:] = np.nan
        for model in (first_model, second_model):
            got = warp_luma(luma, model, fill=9.0)
            want = _golden_warp(luma, model, 9.0, None)
            for result, golden in zip(got, want):
                _assert_same_bits(result, golden)
        xs, ys = coordinate_grid(30, 40)
        grid_ys, grid_xs = np.mgrid[0:30, 0:40].astype(np.float64)
        assert np.array_equal(xs, grid_xs) and np.array_equal(ys, grid_ys)

    def test_coordinate_grid_is_read_only(self):
        xs, ys = coordinate_grid(4, 5)
        with pytest.raises(ValueError):
            xs[0, 0] = 1.0
        with pytest.raises(ValueError):
            ys[0, 0] = 1.0


class TestWarpNonFinite:
    """A NaN or infinite parameter marks its samples invalid: they get
    ``fill`` and no warning is raised."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "b", "tx", "c", "d", "ty"])
    def test_affine_parameter(self, field, value):
        luma = np.random.default_rng(7).random((12, 16)) * 255.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warped, valid = warp_luma(luma, AffineModel(**{field: value}),
                                      fill=5.0)
        assert not valid.any()
        assert (warped == 5.0).all()

    @pytest.mark.parametrize("field", ["px", "py"])
    def test_perspective_parameter(self, field):
        luma = np.random.default_rng(8).random((12, 16)) * 255.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warped, valid = warp_luma(
                luma, PerspectiveModel(**{field: math.nan}), fill=-1.0)
        assert not valid.any()
        assert (warped == -1.0).all()


# -- the Table 3 books --------------------------------------------------------

#: Books of the 9-frame Table 3 runs: (intra calls, inter calls,
#: Pentium M seconds, FPGA seconds).
PINNED_BOOKS = {
    "Singapore": (74, 53, 4.3526787014999995, 1.0191035089696976),
    "Dome": (74, 52, 4.359808093875, 1.0185468957878796),
    "Movie": (74, 67, 4.4775610215000015, 1.0899714898181827),
}


@pytest.mark.parametrize("spec", [SINGAPORE, DOME, MOVIE],
                         ids=lambda spec: spec.name)
def test_evaluate_sequence_dual_books_pinned(spec):
    intra, inter, pm_seconds, fpga_seconds = PINNED_BOOKS[spec.name]
    row = evaluate_sequence_dual(spec, scale=9 / spec.frames)
    assert row.frames_run == 9
    assert (row.intra_calls, row.inter_calls) == (intra, inter)
    assert row.pm_seconds == pytest.approx(pm_seconds, rel=1e-12)
    assert row.fpga_seconds == pytest.approx(fpga_seconds, rel=1e-12)
