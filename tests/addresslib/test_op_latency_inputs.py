"""``IntraOp``/``InterOp`` refuse a stage-3 latency that is not a whole
number of cycles >= 1.

Before the check, ``engine_cycles=0`` and ``-1`` both ran on the engine,
reported the same cycle count as a one-cycle op and claimed the fast
path; the batched stepper's pipeline period divides by the latency.
``True`` is an ``int`` in Python but not a latency.  Hypothesis drives
the field with junk, through the constructors and ``dataclasses.replace``.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import INTER_ABSDIFF, INTRA_GRAD

OPS = (INTRA_GRAD, INTER_ABSDIFF)

#: Integers below one, bools, non-integral and non-finite numbers,
#: numeric strings and None.
junk_latencies = st.one_of(
    st.integers(max_value=0), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(math.nan), st.just(2.0), st.just("3"), st.none())


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
@given(value=junk_latencies)
@settings(max_examples=40, deadline=None)
def test_engine_cycles_rejects_junk(op, value):
    with pytest.raises(ValueError, match="engine_cycles"):
        replace(op, engine_cycles=value)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
@given(value=st.integers(1, 64))
@settings(max_examples=20, deadline=None)
def test_whole_latencies_accepted(op, value):
    assert replace(op, engine_cycles=value).engine_cycles == value
