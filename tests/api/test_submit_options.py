"""The unified submission surface: SubmitOptions, and nothing else.

One frozen options record carries every piece of serving metadata
(priority, deadline, retries, tenant, placement, arrival) across all
three submission layers -- ``EngineService.submit``,
``AddressLib.run_batch`` and ``AddressEngineDriver.submit`` -- and one
:class:`~repro.api.ServicePolicy` carries every serving knob.  Every
older per-layer spelling is a :class:`TypeError`.
"""

import dataclasses
import warnings

import pytest

from repro.addresslib import AddressLib, BatchCall, INTRA_GRAD
from repro.api import (AdmissionController, AdmissionPolicy, EnginePool,
                       EngineService, Priority, SubmitOptions)
from repro.core import intra_config
from repro.host import AddressEngineDriver, EngineBackend
from repro.image import ImageFormat, noise_frame
from repro.service import MicroBatcher, RequestQueue

QCIF = ImageFormat("QCIF", 176, 144)
SMALL = ImageFormat("P16x16", 16, 16)


def _call(seed=0):
    return BatchCall.intra(INTRA_GRAD, noise_frame(QCIF, seed=seed))


def _drain_one(service, *args):
    ticket = service.submit(_call(), *args)
    service.drain()
    return ticket


class TestSubmitOptionsRecord:
    def test_defaults(self):
        options = SubmitOptions()
        assert options.priority is Priority.STANDARD
        assert options.deadline_seconds is None
        assert options.max_retries == 0
        assert options.tenant is None
        assert options.placement is None
        assert options.arrival_seconds is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SubmitOptions().max_retries = 3

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            SubmitOptions(max_retries=-1)

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            SubmitOptions(deadline_seconds=-0.5)

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_non_finite_deadline_rejected(self, deadline):
        with pytest.raises(ValueError, match="deadline_seconds"):
            SubmitOptions(deadline_seconds=deadline)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, arrival):
        with pytest.raises(ValueError, match="arrival_seconds"):
            SubmitOptions(arrival_seconds=arrival)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival_seconds"):
            SubmitOptions(arrival_seconds=-0.001)

    def test_zero_arrival_and_deadline_accepted(self):
        options = SubmitOptions(deadline_seconds=0.0, arrival_seconds=0.0)
        assert options.arrival_seconds == 0.0


class TestServiceShim:
    def test_new_signature_does_not_warn(self):
        service = EngineService()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ticket = _drain_one(service, SubmitOptions(
                priority=Priority.INTERACTIVE, max_retries=1))
        assert ticket.result() is not None

    def test_bare_submit_does_not_warn(self):
        service = EngineService()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _drain_one(service)

    def test_mixing_options_and_legacy_is_a_type_error(self):
        service = EngineService()
        with pytest.raises(TypeError):
            service.submit(_call(), SubmitOptions(),
                           priority=Priority.BULK)

    def test_tenant_lands_in_the_service_books(self):
        service = EngineService(pool=EnginePool.of_engines(2))
        for seed in range(3):
            service.submit(_call(seed),
                           SubmitOptions(tenant="cam-north"))
        service.submit(_call(9), SubmitOptions(tenant="cam-south"))
        report = service.drain()
        assert report.calls_by_tenant == {"cam-north": 3,
                                          "cam-south": 1}

    def test_placement_hint_routes_the_wave(self):
        service = EngineService(pool=EnginePool.of_engines(3))
        _drain_one(service, SubmitOptions(placement=2))
        report = service.report()
        assert report.pool is not None
        assert report.pool.hinted_waves == 1
        assert report.pool.workers[2].calls_routed == 1


class TestLayerTenantBooks:
    def test_tenant_tallied_in_the_call_log(self):
        lib = AddressLib()
        lib.run_batch([_call(0), _call(1)],
                      options=SubmitOptions(tenant="edge-7"))
        lib.run_batch([_call(2)])
        assert lib.log.by_tenant == {"edge-7": 2}
        lib.log.clear()
        assert lib.log.by_tenant == {}

    def test_tenant_tallied_per_driver(self):
        config = intra_config(INTRA_GRAD, SMALL)
        frame = noise_frame(SMALL, seed=5)
        driver = AddressEngineDriver()
        driver.submit(config, frame,
                      options=SubmitOptions(tenant="lab"))
        driver.submit(config, frame)
        assert driver.calls_by_tenant == {"lab": 1}


def _driver_call(*args):
    config = intra_config(INTRA_GRAD, SMALL)
    frame = noise_frame(SMALL, seed=4)
    return AddressEngineDriver().submit(config, frame, *args)


#: Every spelling the retired deprecation shims used to accept, by the
#: lint rule that policed it (R1 positional scheduler, R2 loose
#: metadata keywords, R3 extra positionals, R5 loose service knobs),
#: plus the pre-policy queue/batcher knobs and the single-worker
#: ``lib=``/``scheduler=``/``virtual_engines=`` service shape.
REMOVED_SPELLINGS = [
    pytest.param(lambda: AddressLib().run_batch([_call()], None),
                 id="R1-run_batch-positional-scheduler"),
    pytest.param(lambda: AddressLib().run_batch([_call()], None,
                                                scheduler=None),
                 id="R1-run_batch-scheduler-twice"),
    pytest.param(lambda: EngineService().submit(
        _call(), priority=Priority.BULK), id="R2-submit-priority"),
    pytest.param(lambda: EngineService().submit(
        _call(), deadline_seconds=1.0), id="R2-submit-deadline"),
    pytest.param(lambda: EngineService().submit(
        _call(), max_retries=1), id="R2-submit-max_retries"),
    pytest.param(lambda: EngineService().submit(
        _call(), arrival_seconds=0.0), id="R2-submit-arrival"),
    pytest.param(lambda: AddressLib().run_batch(
        [_call()], priority=Priority.BULK), id="R2-run_batch-priority"),
    pytest.param(lambda: EngineService().submit(
        _call(), Priority.BULK, 1.0), id="R3-submit-positionals"),
    pytest.param(lambda: _driver_call(None, (False,)),
                 id="R3-driver-positional-resident"),
    pytest.param(lambda: _driver_call(None, (False,), 0),
                 id="R3-driver-positional-copy-cycles"),
    pytest.param(lambda: EngineService(queue_depth=8),
                 id="R5-service-queue_depth"),
    pytest.param(lambda: EngineService(max_batch=2),
                 id="R5-service-max_batch"),
    pytest.param(lambda: EngineService(policy=AdmissionPolicy(0.05)),
                 id="R5-service-admission-policy"),
    pytest.param(lambda: AdmissionController(
        policy=AdmissionPolicy(0.05)), id="R5-admission-policy"),
    pytest.param(lambda: RequestQueue(max_depth=8),
                 id="queue-max_depth"),
    pytest.param(lambda: MicroBatcher(max_batch=2),
                 id="batcher-max_batch"),
    pytest.param(lambda: EngineService(lib=AddressLib()),
                 id="service-lib"),
    pytest.param(lambda: EngineService(scheduler=None),
                 id="service-scheduler"),
    pytest.param(lambda: EngineService(virtual_engines=4),
                 id="service-virtual_engines"),
    pytest.param(lambda: EngineService(EnginePool.of_engines(1)),
                 id="service-positional-pool"),
]


class TestRemovedSpellings:
    @pytest.mark.parametrize("spell", REMOVED_SPELLINGS)
    def test_raises(self, spell):
        with pytest.raises(TypeError):
            spell()

    def test_positional_priority_is_refused_at_entry(self):
        """``submit(call, Priority.X)`` used to be read as a legacy
        positional priority; it is refused before anything is priced,
        queued or counted."""
        service = EngineService()
        with pytest.raises(TypeError, match="SubmitOptions"):
            service.submit(_call(), Priority.INTERACTIVE)
        assert service.report().submitted == 0


class TestFacadeExports:
    def test_one_import_surface_covers_the_stack(self):
        import repro.api as api
        for name in ("AddressLib", "AddressEngineDriver", "BatchCall",
                     "EnginePool", "EngineService", "EngineWorker",
                     "Priority", "ServiceReport", "SubmitOptions"):
            assert hasattr(api, name), name

    def test_backend_shim_sees_tenant_through_run_batch(self):
        lib = AddressLib(EngineBackend())
        lib.run_batch([_call(6)], options=SubmitOptions(tenant="t0"))
        assert lib.log.by_tenant == {"t0": 1}
