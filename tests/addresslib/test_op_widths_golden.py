"""Narrow accumulators compute the same bits as the int32 op faces.

The vector faces of the arithmetic ops accumulate in the narrowest
integer type that holds their worst case (int16 for sums, differences
and the 3x3 derivatives).  The int32 versions they replaced are kept
below verbatim as golden models.  Inter ops are checked on every pair
of 8-bit values; intra ops on Hypothesis planes (full-range noise and
0/255 patterns, which reach the accumulators' extremes), one frame or a
stack, down to one row or one column.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import INTER_OPS, INTRA_OPS, fir_op
from repro.addresslib.addressing import CON_8
from repro.addresslib.executor import neighbourhood_views
from repro.addresslib.ops import _SOBEL_X, _SOBEL_Y, _accumulator


# -- golden models (the int32 versions, kept verbatim) -----------------------

def golden_sat8(values):
    return np.clip(values, 0, 255, out=values).astype(np.uint8)


def golden_weighted_sum(planes, weights, dtype=np.int32):
    acc = np.zeros(planes[0].shape, dtype)
    term = None
    for weight, plane in zip(weights, planes):
        if weight == 1:
            np.add(acc, plane, out=acc)
        elif weight == -1:
            np.subtract(acc, plane, out=acc)
        elif weight:
            if term is None:
                term = np.empty_like(acc)
            np.multiply(plane, weight, out=term, dtype=dtype)
            acc += term
    return acc


GOLDEN_INTER = {
    "inter_add": lambda a, b: golden_sat8(a.astype(np.int32)
                                          + b.astype(np.int32)),
    "inter_sub": lambda a, b: golden_sat8(a.astype(np.int32)
                                          - b.astype(np.int32)),
    "inter_absdiff": lambda a, b: np.abs(a.astype(np.int32)
                                         - b.astype(np.int32))
    .astype(np.uint8),
    "inter_mul": lambda a, b: golden_sat8((a.astype(np.int32)
                                           * b.astype(np.int32)) >> 8),
    "inter_avg": lambda a, b: ((a.astype(np.int32) + b.astype(np.int32)
                                + 1) >> 1).astype(np.uint8),
}


def golden_box3(planes):
    acc = golden_weighted_sum(planes, [1] * 9)
    acc *= 57
    acc >>= 9
    return golden_sat8(acc)


def golden_biased(weights):
    def vector(planes):
        acc = golden_weighted_sum(planes, weights)
        acc >>= 3
        acc += 128
        return golden_sat8(acc)
    return vector


def golden_grad(planes):
    gx = golden_weighted_sum(planes, _SOBEL_X)
    gy = golden_weighted_sum(planes, _SOBEL_Y)
    np.abs(gx, out=gx)
    gx += np.abs(gy, out=gy)
    gx >>= 3
    return golden_sat8(gx)


def golden_fir(weights, shift):
    bound = sum(abs(w) for w in weights) * 255
    dtype = np.int32 if bound <= np.iinfo(np.int32).max else np.int64

    def vector(planes):
        acc = golden_weighted_sum(planes, weights, dtype)
        if shift:
            acc >>= shift
        return golden_sat8(acc)
    return vector


_LAPLACE = tuple(8 if offset == (0, 0) else -1 for offset in CON_8.offsets)

GOLDEN_INTRA = {
    "intra_box3": golden_box3,
    "intra_sobel_x": golden_biased(_SOBEL_X),
    "intra_sobel_y": golden_biased(_SOBEL_Y),
    "intra_laplace": golden_biased(_LAPLACE),
    "intra_grad": golden_grad,
}


# -- strategies --------------------------------------------------------------

@st.composite
def _planes(draw):
    """A uint8 plane or stack: full-range noise or a 0/255 pattern."""
    count = draw(st.integers(1, 3))
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    shape = (height, width) if count == 1 else (count, height, width)
    if draw(st.booleans()):
        return rng.integers(0, 256, shape).astype(np.uint8)
    return (rng.integers(0, 2, shape) * 255).astype(np.uint8)


class TestAccumulatorWidth:
    def test_narrowest_type_holding_the_bound(self):
        assert _accumulator(32767) is np.int16
        assert _accumulator(32768) is np.int32
        assert _accumulator(2 ** 31 - 1) is np.int32
        assert _accumulator(2 ** 31) is np.int64


class TestInterOpsEveryPair:
    def test_every_value_pair_matches_the_int32_face(self):
        a, b = np.meshgrid(np.arange(256, dtype=np.uint8),
                           np.arange(256, dtype=np.uint8), indexing="ij")
        for name, golden in GOLDEN_INTER.items():
            op = INTER_OPS[name]
            for shape in ((256, 256), (4, 128, 128)):
                left, right = a.reshape(shape), b.reshape(shape)
                expected = golden(left, right)
                actual = op.apply_vector(left, right)
                assert actual.dtype == np.uint8, name
                assert actual.tobytes() == expected.tobytes(), name


class TestIntraOpsMatchInt32:
    @settings(max_examples=150, deadline=None)
    @given(planes=_planes(), name=st.sampled_from(sorted(GOLDEN_INTRA)))
    def test_registered_ops(self, planes, name):
        op = INTRA_OPS[name]
        views = neighbourhood_views(planes, op.neighbourhood)
        expected = GOLDEN_INTRA[name](views)
        actual = op.apply_vector(views)
        assert actual.dtype == np.uint8
        assert actual.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(planes=_planes(),
           weights=st.lists(st.integers(-300, 300), min_size=9,
                            max_size=9),
           huge=st.booleans(), shift=st.integers(0, 12))
    def test_fir_ops_of_every_width(self, planes, weights, huge, shift):
        # ``huge`` pushes the bound past int16 and int32 alike.
        if huge:
            weights[0] = 2 ** 24
        op = fir_op("fir", CON_8, weights, shift)
        views = neighbourhood_views(planes, op.neighbourhood)
        expected = golden_fir(tuple(weights), shift)(views)
        assert op.apply_vector(views).tobytes() == expected.tobytes()

    def test_extreme_edges_reach_the_bounds(self):
        """Steps of 0/255 drive every derivative to its extreme."""
        step = np.zeros((6, 6), np.uint8)
        step[:, 3:] = 255
        for plane in (step, step.T.copy(), 255 - step, np.tril(
                np.full((6, 6), 255, np.uint8))):
            for name, golden in GOLDEN_INTRA.items():
                op = INTRA_OPS[name]
                views = neighbourhood_views(plane, op.neighbourhood)
                assert (op.apply_vector(views).tobytes()
                        == golden(views).tobytes()), name
