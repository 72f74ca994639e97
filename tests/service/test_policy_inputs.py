"""Service policies refuse junk at construction.

Each record's time, weight and fraction fields must be finite and in
range; the chained ``0 <= v < inf`` check of :func:`repro.checks.
check_finite` is the one place that says so.  Before it, a NaN passed
every ``<= 0`` guard: ``AdmissionPolicy(deadline_budget_seconds=nan)``
silently turned shedding off, and NaN weights, p95 targets and rate
constants were accepted.  Hypothesis drives each config with junk.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SubmitOptions
from repro.service import (AdmissionPolicy, Priority, ServicePolicy,
                           TenantPolicy)

#: NaN, the infinities, and negative floats.
junk = st.one_of(st.just(math.nan), st.just(math.inf),
                 st.just(-math.inf),
                 st.floats(max_value=-1e-12, allow_infinity=False))
#: Junk plus zero, for fields that must be strictly positive.
junk_or_zero = st.one_of(junk, st.just(0.0))
#: Finite, positive values every field accepts.
sane = st.floats(min_value=1e-9, max_value=1e9)


class TestAdmissionPolicy:
    @given(budget=junk)
    @settings(max_examples=40, deadline=None)
    def test_budget_rejects_junk(self, budget):
        with pytest.raises(ValueError, match="deadline_budget_seconds"):
            AdmissionPolicy(deadline_budget_seconds=budget)

    @given(fraction=junk, priority=st.sampled_from(list(Priority)))
    @settings(max_examples=40, deadline=None)
    def test_fractions_reject_junk(self, fraction, priority):
        with pytest.raises(ValueError, match="budget_fractions"):
            AdmissionPolicy(0.05, budget_fractions={priority: fraction})

    @given(budget=sane, fraction=sane)
    @settings(max_examples=20, deadline=None)
    def test_finite_values_accepted(self, budget, fraction):
        policy = AdmissionPolicy(budget, {Priority.BULK: fraction})
        assert policy.budget_for(Priority.BULK) == budget * fraction

    def test_zero_budget_and_none_accepted(self):
        assert AdmissionPolicy(0.0).budget_for(Priority.INTERACTIVE) == 0.0
        assert AdmissionPolicy().budget_for(Priority.BULK) is None


class TestTenantPolicy:
    @given(weight=junk_or_zero)
    @settings(max_examples=40, deadline=None)
    def test_weight_rejects_junk(self, weight):
        with pytest.raises(ValueError, match="weight"):
            TenantPolicy(weight=weight)

    @given(target=junk_or_zero)
    @settings(max_examples=40, deadline=None)
    def test_p95_target_rejects_junk(self, target):
        with pytest.raises(ValueError, match="p95_target_seconds"):
            TenantPolicy(p95_target_seconds=target)

    @pytest.mark.parametrize("field", ["max_queued", "max_in_flight"])
    @pytest.mark.parametrize("value", [0, -3, math.nan])
    def test_quotas_reject_junk(self, field, value):
        with pytest.raises(ValueError, match=field):
            TenantPolicy(**{field: value})

    @given(weight=sane, target=sane)
    @settings(max_examples=20, deadline=None)
    def test_finite_values_accepted(self, weight, target):
        policy = TenantPolicy(weight=weight, p95_target_seconds=target)
        assert policy.weight == weight


class TestServicePolicy:
    @given(tau=junk_or_zero)
    @settings(max_examples=40, deadline=None)
    def test_rate_tau_rejects_junk(self, tau):
        with pytest.raises(ValueError, match="rate_tau_seconds"):
            ServicePolicy(rate_tau_seconds=tau)

    @pytest.mark.parametrize("field", ["queue_depth", "max_batch"])
    @pytest.mark.parametrize("value", [0, math.nan])
    def test_sizes_reject_junk(self, field, value):
        with pytest.raises(ValueError):
            ServicePolicy(**{field: value})

    @given(tau=sane)
    @settings(max_examples=20, deadline=None)
    def test_finite_tau_accepted(self, tau):
        assert ServicePolicy(rate_tau_seconds=tau).rate_tau_seconds == tau


class TestSubmitOptions:
    @pytest.mark.parametrize("field",
                             ["deadline_seconds", "arrival_seconds"])
    @given(value=junk)
    @settings(max_examples=20, deadline=None)
    def test_times_reject_junk(self, field, value):
        with pytest.raises(ValueError, match=field):
            SubmitOptions(**{field: value})
