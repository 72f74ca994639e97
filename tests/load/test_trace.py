"""Arrival-trace synthesis: determinism, round trip, re-timing.

A load result is only citable if its arrival process is replayable:
the same :class:`TraceSpec` must synthesize the identical trace on any
machine, the JSON form must round-trip bit-exactly, and ``scaled()``
must change offered load without changing the request sequence.
"""

import json

import pytest

from repro.load import ArrivalTrace, CallFactory, TenantSpec, TraceSpec
from repro.service import Priority


def _spec(**overrides):
    base = dict(requests=500, rate_per_s=400.0, seed=0xBEEF)
    base.update(overrides)
    return TraceSpec(**base)


class TestSynthesis:
    def test_same_spec_same_trace(self):
        """Seeded synthesis is bit-deterministic, entry for entry."""
        first = ArrivalTrace.synthesize(_spec())
        second = ArrivalTrace.synthesize(_spec())
        assert first.entries == second.entries

    def test_seed_changes_trace(self):
        first = ArrivalTrace.synthesize(_spec())
        second = ArrivalTrace.synthesize(_spec(seed=0xBEE0))
        assert first.entries != second.entries

    def test_arrivals_are_sorted_and_sized(self):
        trace = ArrivalTrace.synthesize(_spec())
        assert len(trace) == 500
        arrivals = [e.arrival_seconds for e in trace.entries]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0.0

    def test_tenant_weights_shape_the_mix(self):
        """A weight-3 tenant sends more than a weight-1 tenant; every
        tenant appears (statistical, generous margins)."""
        spec = _spec(requests=3000, tenants=(
            TenantSpec("light", weight=1.0),
            TenantSpec("heavy", weight=3.0)))
        trace = ArrivalTrace.synthesize(spec)
        counts = [0, 0]
        for entry in trace.entries:
            counts[entry.tenant_index] += 1
        assert counts[0] > 0 and counts[1] > 0
        assert counts[1] > counts[0] * 1.5

    def test_burst_tenant_keeps_long_run_share(self):
        """Bursts modulate variance, not the offered total: the bursty
        tenant's share stays near its weight over a long trace."""
        spec = _spec(requests=20_000, rate_per_s=2000.0, tenants=(
            TenantSpec("smooth", weight=1.0),
            TenantSpec("bursty", weight=1.0, burst_factor=6.0,
                       burst_cycle_requests=32.0)))
        trace = ArrivalTrace.synthesize(spec)
        bursty = sum(1 for e in trace.entries if e.tenant_index == 1)
        assert 0.35 < bursty / len(trace) < 0.65

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("bad", weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec("bad", burst_factor=0.5)
        with pytest.raises(ValueError):
            _spec(requests=0)
        with pytest.raises(ValueError):
            _spec(intra_ops=("no_such_op",))
        with pytest.raises(ValueError):
            _spec(inter_ops=("also_missing",))


class TestRoundTrip:
    def test_json_round_trip_is_exact(self):
        trace = ArrivalTrace.synthesize(_spec())
        payload = json.loads(json.dumps(trace.to_dict()))
        back = ArrivalTrace.from_dict(payload)
        assert back.entries == trace.entries
        assert back.rate_per_s == trace.rate_per_s
        assert [t.name for t in back.tenants] == [
            t.name for t in trace.tenants]
        assert [t.priority for t in back.tenants] == [
            t.priority for t in trace.tenants]

    def test_save_load_file(self, tmp_path):
        trace = ArrivalTrace.synthesize(_spec(requests=50))
        path = tmp_path / "trace.json"
        trace.save(str(path))
        back = ArrivalTrace.load(str(path))
        assert back.entries == trace.entries

    def test_version_gate(self):
        trace = ArrivalTrace.synthesize(_spec(requests=5))
        payload = trace.to_dict()
        payload["version"] = 999
        with pytest.raises(ValueError):
            ArrivalTrace.from_dict(payload)
        with pytest.raises(ValueError):
            ArrivalTrace.from_dict({"kind": "something_else"})


class TestDerivation:
    def test_scaled_retimes_without_resequencing(self):
        trace = ArrivalTrace.synthesize(_spec())
        fast = trace.scaled(2.0)
        assert len(fast) == len(trace)
        assert fast.rate_per_s == pytest.approx(2 * trace.rate_per_s)
        for slow_e, fast_e in zip(trace.entries, fast.entries):
            assert fast_e.arrival_seconds == pytest.approx(
                slow_e.arrival_seconds / 2.0)
            assert (fast_e.tenant_index, fast_e.op, fast_e.seed_a,
                    fast_e.seed_b) == (slow_e.tenant_index, slow_e.op,
                                       slow_e.seed_a, slow_e.seed_b)
        with pytest.raises(ValueError):
            trace.scaled(0.0)

    def test_head_truncates(self):
        trace = ArrivalTrace.synthesize(_spec())
        head = trace.head(10)
        assert head.entries == trace.entries[:10]
        assert head.rate_per_s == trace.rate_per_s


class TestCallFactory:
    def test_frames_are_shared_identities(self):
        """Entries naming the same pool seed get the *same* Frame
        object -- residency caches need identity, not equality."""
        trace = ArrivalTrace.synthesize(_spec())
        factory = CallFactory(trace)
        by_seed = {}
        for entry in trace.entries:
            frame = factory.call(entry).frames[0]
            if entry.seed_a in by_seed:
                assert frame is by_seed[entry.seed_a]
            by_seed[entry.seed_a] = frame

    def test_calls_and_options_match_entries(self):
        spec = _spec(requests=200, inter_fraction=0.5,
                     tenants=(TenantSpec(
                         "vf", priority=Priority.INTERACTIVE,
                         deadline_seconds=0.05, max_retries=1),))
        trace = ArrivalTrace.synthesize(spec)
        factory = CallFactory(trace)
        saw_intra = saw_inter = saw_reduce = False
        for entry in trace.entries:
            call = factory.call(entry)
            options = factory.options(entry)
            assert call.op.name == entry.op
            assert options.tenant == "vf"
            assert options.priority is Priority.INTERACTIVE
            assert options.deadline_seconds == 0.05
            assert options.max_retries == 1
            assert options.arrival_seconds == entry.arrival_seconds
            if entry.seed_b is None:
                saw_intra = True
                assert len(call.frames) == 1
            else:
                saw_inter = True
                assert len(call.frames) == 2
                saw_reduce = saw_reduce or call.reduce_to_scalar
        assert saw_intra and saw_inter and saw_reduce


#: Values no rate, weight or time may take: each must be refused.
JUNK = [float("nan"), float("inf"), float("-inf"), -1.0, 0.0]


class TestJunkInputsRejected:
    """Non-finite and out-of-range inputs fail at construction: a NaN
    rate used to pass the ``<= 0`` check and hang ``synthesize``, an
    infinite one divided by zero inside it."""

    @pytest.mark.parametrize("rate", JUNK)
    def test_trace_rate(self, rate):
        with pytest.raises(ValueError, match="rate_per_s"):
            _spec(rate_per_s=rate)

    @pytest.mark.parametrize("weight", JUNK)
    def test_tenant_weight(self, weight):
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("t", weight=weight)

    @pytest.mark.parametrize("field, value", [
        ("deadline_seconds", float("nan")),
        ("deadline_seconds", -0.5),
        ("burst_factor", float("inf")),
        ("burst_factor", float("nan")),
        ("burst_fraction", float("nan")),
        ("burst_cycle_requests", float("nan")),
        ("burst_cycle_requests", 0.0),
        ("max_retries", -1),
    ])
    def test_tenant_shape(self, field, value):
        with pytest.raises(ValueError, match=field):
            TenantSpec("t", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("requests", 0),
        ("width", 0),
        ("frame_pool", 0),
        ("inter_fraction", float("nan")),
        ("reduce_fraction", 1.5),
    ])
    def test_trace_shape(self, field, value):
        with pytest.raises(ValueError, match=field):
            _spec(**{field: value})

    @pytest.mark.parametrize("factor", JUNK)
    def test_scaled_load_factor(self, factor):
        trace = ArrivalTrace.synthesize(_spec(requests=5))
        with pytest.raises(ValueError, match="load_factor"):
            trace.scaled(factor)
