"""``GmeSettings`` refuses junk at construction.

Before the checks, each of these was accepted and silently produced a
wrong Table 3 row or crashed deep inside the estimator: zero or
negative ``levels`` and zero ``max_iterations_per_level`` made no inter
calls (reported as a speedup), a NaN ``convergence_tol`` disabled the
early stop, and ``gn_subsample=0`` was a zero slice step inside the
Gauss-Newton solve.  Hypothesis drives each field with junk.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gme import GmeSettings

INTEGER_FIELDS = ("levels", "max_iterations_per_level", "gn_subsample")

#: Integers below one, non-integral numbers and NaN.
junk_counts = st.one_of(
    st.integers(max_value=0),
    st.floats(allow_nan=False).filter(lambda v: not float(v).is_integer()),
    st.just(math.nan), st.just(math.inf), st.just(2.0))
#: NaN, the infinities, and negative floats.
junk_tolerances = st.one_of(
    st.just(math.nan), st.just(math.inf), st.just(-math.inf),
    st.floats(max_value=-1e-12, allow_infinity=False))


@pytest.mark.parametrize("field", INTEGER_FIELDS)
@given(value=junk_counts)
@settings(max_examples=40, deadline=None)
def test_counts_reject_junk(field, value):
    with pytest.raises(ValueError, match=field):
        GmeSettings(**{field: value})


@given(value=junk_tolerances)
@settings(max_examples=40, deadline=None)
def test_convergence_tol_rejects_junk(value):
    with pytest.raises(ValueError, match="convergence_tol"):
        GmeSettings(convergence_tol=value)


@given(levels=st.integers(1, 6), iterations=st.integers(1, 20),
       subsample=st.integers(1, 8),
       tol=st.floats(min_value=0.0, max_value=1e3))
@settings(max_examples=30, deadline=None)
def test_sane_values_accepted(levels, iterations, subsample, tol):
    chosen = GmeSettings(levels=levels,
                         max_iterations_per_level=iterations,
                         gn_subsample=subsample, convergence_tol=tol)
    assert (chosen.levels, chosen.max_iterations_per_level,
            chosen.gn_subsample, chosen.convergence_tol) == (
        levels, iterations, subsample, tol)


def test_defaults_accepted():
    assert GmeSettings() == GmeSettings(
        levels=3, max_iterations_per_level=6, convergence_tol=0.01,
        affine_at_finest=True, gn_subsample=2)
