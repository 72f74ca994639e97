"""``AddressEngine`` refuses a clock or DMA overhead that is not finite.

Before the check, ``AddressEngine(clock_hz=nan)`` ran every call and
reported ``seconds = nan``.  The tick rates are deliberately left
unchecked: the analyzer's liveness rules (LIV002/LIV003) report a zeroed
rate on a constructible engine.  Hypothesis drives each field with junk.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AddressEngine

#: NaN, the infinities and negative numbers.
junk = st.one_of(st.just(math.nan), st.just(math.inf),
                 st.just(-math.inf), st.integers(max_value=-1),
                 st.floats(max_value=-1e-9, allow_infinity=False))


@given(value=st.one_of(junk, st.just(0), st.just(0.0)))
@settings(max_examples=30, deadline=None)
def test_clock_rejects_junk(value):
    with pytest.raises(ValueError, match="clock_hz"):
        AddressEngine(clock_hz=value)


@given(value=junk)
@settings(max_examples=30, deadline=None)
def test_dma_overhead_rejects_junk(value):
    with pytest.raises(ValueError, match="dma_overhead_cycles"):
        AddressEngine(dma_overhead_cycles=value)


@given(clock=st.floats(1.0, 1e10), overhead=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_sane_values_accepted(clock, overhead):
    engine = AddressEngine(clock_hz=clock, dma_overhead_cycles=overhead)
    assert (engine.clock_hz, engine.dma_overhead_cycles) == (clock,
                                                             overhead)


def test_zeroed_tick_rates_stay_constructible():
    engine = AddressEngine(plc_ticks_per_cycle=0,
                           input_txu_ticks_per_cycle=0)
    assert engine.plc_ticks_per_cycle == 0
