"""``TransportParams`` refuses junk at construction.

NaN fails every comparison, so the plain ``boards < 1`` style checks let
``boards=nan`` through; ``cache_capacity=inf``, a negative
``fail_wave`` and a negative ``close_after_wave`` were accepted too and
produced wave plans for deployments that cannot exist.  Hypothesis
drives each numeric field with junk.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import TransportParams

#: NaN, the infinities and negative numbers.
junk = st.one_of(st.just(math.nan), st.just(math.inf),
                 st.just(-math.inf), st.integers(max_value=-1),
                 st.floats(max_value=-1e-9, allow_infinity=False))


@pytest.mark.parametrize("field", ["boards", "cache_capacity"])
@given(value=st.one_of(junk, st.just(0)))
@settings(max_examples=30, deadline=None)
def test_counts_reject_junk(field, value):
    with pytest.raises(ValueError, match=field):
        TransportParams(**{field: value})


@pytest.mark.parametrize("field", ["fail_wave", "close_after_wave"])
@given(value=junk)
@settings(max_examples=30, deadline=None)
def test_wave_indices_reject_junk(field, value):
    extra = {"boards": 2} if field == "fail_wave" else {}
    with pytest.raises(ValueError, match=field):
        TransportParams(**{field: value}, **extra)


@given(boards=st.integers(2, 8), capacity=st.integers(1, 256),
       wave=st.integers(0, 16))
@settings(max_examples=20, deadline=None)
def test_sane_values_accepted(boards, capacity, wave):
    params = TransportParams(boards=boards, cache_capacity=capacity,
                             fail_wave=wave, close_after_wave=wave)
    assert (params.boards, params.cache_capacity, params.fail_wave,
            params.close_after_wave) == (boards, capacity, wave, wave)
