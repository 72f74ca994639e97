"""Each request is priced once, and the carried price books like a re-price.

``EngineService.submit`` prices a call once -- (serial, overlapped) --
and carries both on the request: admission, the queue books, the
serial-model books and the pool's wave cost all read that one price.
The pool books a wave from the carried prices only on a board that
prices exactly like the pool (same ``timing`` and ``special_inter_ops``);
any other board prices the calls itself.  The oracle for the books is
the pre-change dispatch, where every board priced every wave on its own.
"""

import json

import pytest

from repro.addresslib import AddressLib
from repro.host import AddressEngineDriver, EngineBackend
from repro.load import ArrivalTrace, TenantSpec, TraceSpec, replay_serial
from repro.perf.timing import EngineTimingModel
from repro.pool import EnginePool, EngineWorker
from repro.service import (AdmissionController, AdmissionPolicy,
                           EngineService, Priority, ServicePolicy)


def _trace():
    # 32x32 frames span two strips, which full-frame inter ops need;
    # deadlines with a retry budget exercise the requeue path.
    return ArrivalTrace.synthesize(TraceSpec(
        requests=400, rate_per_s=4000.0, seed=11, width=32, height=32,
        inter_fraction=0.5, reduce_fraction=0.4,
        tenants=(TenantSpec("live", priority=Priority.INTERACTIVE,
                            deadline_seconds=0.004, max_retries=1),
                 TenantSpec("batch", weight=2.0,
                            priority=Priority.STANDARD))))


def _policy():
    return ServicePolicy(queue_depth=48, max_batch=6,
                         admission=AdmissionPolicy(
                             deadline_budget_seconds=0.02),
                         deadline_aware_batching=True)


def _board(worker_id, timing, special=()):
    backend = EngineBackend(driver=AddressEngineDriver(timing=timing),
                            special_inter_ops=special, chain_frames=True)
    return EngineWorker(worker_id, lib=AddressLib(backend), timing=timing)


def _heterogeneous_pool():
    base = EngineTimingModel()
    slower = EngineTimingModel(host_call_overhead_s=0.8e-3,
                               host_interrupt_service_s=260e-6)
    return EnginePool([_board(0, base), _board(1, slower),
                       _board(2, base, ("inter_absdiff",)),
                       _board(3, base)])


def _books(pool_factory, monkeypatch=None, reprice=False):
    if reprice:
        # The pre-change dispatch: every board prices its own wave.
        monkeypatch.setattr(EnginePool, "_prices_like_pool",
                            lambda self, worker: False)
    service = EngineService(pool=pool_factory(), policy=_policy())
    report = replay_serial(_trace(), service)
    if reprice:
        monkeypatch.undo()
    service_books = service.report().to_dict()
    load_books = report.to_dict()
    for key in ("wall_latency", "wall_elapsed_seconds",
                "requests_per_wall_s", "backpressure_wall_seconds"):
        load_books.pop(key, None)
    return service, json.dumps([service_books, load_books],
                               sort_keys=True)


class TestPricedOnce:
    def test_one_admission_price_and_no_board_price_per_request(
            self, monkeypatch):
        counts = {"admission": 0, "board": 0}
        admission_price = AdmissionController.price
        board_price = EngineWorker.price

        def count_admission(self, call):
            counts["admission"] += 1
            return admission_price(self, call)

        def count_board(self, call):
            counts["board"] += 1
            return board_price(self, call)

        monkeypatch.setattr(AdmissionController, "price", count_admission)
        monkeypatch.setattr(EngineWorker, "price", count_board)
        service = EngineService(pool=EnginePool.of_engines(3),
                                policy=_policy())
        replay_serial(_trace(), service)
        report = service.report()
        assert report.submitted == 400
        assert report.rejected > 0 and report.retried > 0
        assert counts == {"admission": report.submitted, "board": 0}


class TestCarriedPricesBookLikeARePrice:
    def test_homogeneous_pool(self, monkeypatch):
        def factory():
            return EnginePool.of_engines(3)

        _, carried = _books(factory)
        _, repriced = _books(factory, monkeypatch, reprice=True)
        assert carried == repriced

    def test_heterogeneous_pool(self, monkeypatch):
        service, carried = _books(_heterogeneous_pool)
        _, repriced = _books(_heterogeneous_pool, monkeypatch,
                             reprice=True)
        assert carried == repriced
        pool = service.pool
        # Only the board that prices like the pool books carried
        # prices, and every board served waves.
        assert [pool._prices_like_pool(w) for w in pool.workers] == [
            False, False, True, False]
        assert all(w.calls_routed > 0 for w in pool.workers)

    def test_heterogeneous_boards_really_price_differently(self):
        pool = _heterogeneous_pool()
        admission = AdmissionController(
            timing=pool.timing, special_inter_ops=pool.special_inter_ops)
        calls = _trace()
        from repro.load import CallFactory
        factory = CallFactory(calls)
        inter = next(factory.call(entry) for entry in calls.entries
                     if entry.seed_b is not None)
        carried = admission.price(inter)
        assert pool.workers[1].price(inter) != carried  # timing
        assert pool.workers[0].price(inter) != carried  # special ops
        assert pool.workers[2].price(inter) == carried


@pytest.mark.parametrize("count", [1, 4])
def test_of_engines_pools_price_like_themselves(count):
    pool = EnginePool.of_engines(count, special_inter_ops=("inter_add",))
    assert all(pool._prices_like_pool(worker) for worker in pool.workers)
