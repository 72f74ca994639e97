"""The unified submission surface: SubmitOptions and its legacy shims.

One frozen options record carries every piece of serving metadata
(priority, deadline, retries, tenant, placement, arrival) across all
three submission layers -- ``EngineService.submit``,
``AddressLib.run_batch`` and ``AddressEngineDriver.submit``.  The old
per-layer signatures still run bit-identically, but each warns with
:class:`DeprecationWarning`; mixing old and new in one call is a
:class:`TypeError`.
"""

import dataclasses
import warnings

import pytest

from repro.addresslib import AddressLib, BatchCall, INTRA_GRAD
from repro.api import (EnginePool, EngineService, Priority,
                       SubmitOptions)
from repro.core import intra_config
from repro.host import AddressEngineDriver, CallScheduler, EngineBackend
from repro.image import ImageFormat, noise_frame

QCIF = ImageFormat("QCIF", 176, 144)
SMALL = ImageFormat("P16x16", 16, 16)


def _call(seed=0):
    return BatchCall.intra(INTRA_GRAD, noise_frame(QCIF, seed=seed))


def _drain_one(service, *args, **kwargs):
    ticket = service.submit(_call(), *args, **kwargs)
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

    def test_legacy_keywords_warn_once_per_call(self):
        service = EngineService()
        with pytest.warns(DeprecationWarning) as caught:
            _drain_one(service, priority=Priority.BULK,
                       deadline_seconds=1.0)
        assert len(caught) == 1

    def test_legacy_positional_priority_warns(self):
        service = EngineService()
        with pytest.warns(DeprecationWarning):
            ticket = _drain_one(service, Priority.INTERACTIVE)
        assert ticket.priority is Priority.INTERACTIVE

    def test_legacy_and_new_results_agree(self):
        old_service, new_service = EngineService(), EngineService()
        with pytest.warns(DeprecationWarning):
            old = _drain_one(old_service, priority=Priority.BULK)
        new = _drain_one(new_service,
                         SubmitOptions(priority=Priority.BULK))
        assert old.result().equals(new.result())

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


class TestRunBatchShim:
    def test_positional_scheduler_warns_and_still_runs(self):
        calls = [_call(seed) for seed in range(3)]
        with CallScheduler(max_workers=2) as scheduler:
            keyword_lib = AddressLib()
            want = keyword_lib.run_batch(calls, scheduler=scheduler)
            legacy_lib = AddressLib()
            with pytest.warns(DeprecationWarning):
                got = legacy_lib.run_batch(calls, scheduler)
        for got_frame, want_frame in zip(got, want):
            assert got_frame.equals(want_frame)

    def test_positional_scheduler_plus_keyword_is_a_type_error(self):
        with CallScheduler(max_workers=2) as scheduler:
            with pytest.raises(TypeError):
                AddressLib().run_batch([_call()], scheduler,
                                       scheduler=scheduler)

    def test_tenant_tallied_in_the_call_log(self):
        lib = AddressLib()
        lib.run_batch([_call(0), _call(1)],
                      options=SubmitOptions(tenant="edge-7"))
        lib.run_batch([_call(2)])
        assert lib.log.by_tenant == {"edge-7": 2}
        lib.log.clear()
        assert lib.log.by_tenant == {}


class TestDriverShim:
    def test_positional_resident_warns_and_matches_keyword(self):
        config = intra_config(INTRA_GRAD, SMALL)
        frame = noise_frame(SMALL, seed=3)
        keyword = AddressEngineDriver().submit(config, frame,
                                               resident=(False,))
        with pytest.warns(DeprecationWarning):
            legacy = AddressEngineDriver().submit(config, frame, None,
                                                  (False,))
        assert legacy.call_seconds == keyword.call_seconds

    def test_positional_plus_keyword_is_a_type_error(self):
        config = intra_config(INTRA_GRAD, SMALL)
        frame = noise_frame(SMALL, seed=4)
        with pytest.raises(TypeError):
            AddressEngineDriver().submit(config, frame, None, (False,),
                                         resident=(False,))

    def test_tenant_tallied_per_driver(self):
        config = intra_config(INTRA_GRAD, SMALL)
        frame = noise_frame(SMALL, seed=5)
        driver = AddressEngineDriver()
        driver.submit(config, frame,
                      options=SubmitOptions(tenant="lab"))
        driver.submit(config, frame)
        assert driver.calls_by_tenant == {"lab": 1}


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
