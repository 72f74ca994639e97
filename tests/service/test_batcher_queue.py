"""Unit tests: the bounded priority queue and the micro-batcher."""

import pytest

from repro.addresslib import (BatchCall, INTER_ABSDIFF, INTRA_BOX3,
                              INTRA_GRAD, threshold_op)
from repro.image import ImageFormat, noise_frame
from repro.service import (BatchKey, EngineService, MicroBatcher,
                           Priority, RejectReason, RequestQueue,
                           ServicePolicy, ServiceRequest)

QCIF = ImageFormat("QCIF", 176, 144)
CIF = ImageFormat("CIF", 352, 288)


def _request(request_id, call, priority=Priority.STANDARD):
    return ServiceRequest(request_id=request_id, call=call,
                          priority=priority, arrival_seconds=0.0,
                          deadline_seconds=None)


def _grad(seed=1, fmt=QCIF):
    return BatchCall.intra(INTRA_GRAD, noise_frame(fmt, seed=seed))


class TestBatchKey:
    def test_same_configuration_shares_a_key(self):
        # Different frame *content* is irrelevant: the key is the
        # engine configuration, not the data.
        assert BatchKey.of(_grad(seed=1)) == BatchKey.of(_grad(seed=2))

    def test_distinct_ops_formats_and_modes_split(self):
        frame = noise_frame(QCIF, seed=1)
        grad = BatchCall.intra(INTRA_GRAD, frame)
        box = BatchCall.intra(INTRA_BOX3, frame)
        cif = _grad(fmt=CIF)
        inter = BatchCall.inter(INTER_ABSDIFF, frame,
                                noise_frame(QCIF, seed=2))
        reduce_ = BatchCall.inter_reduce(INTER_ABSDIFF, frame,
                                         noise_frame(QCIF, seed=2))
        keys = {BatchKey.of(c) for c in (grad, box, cif, inter, reduce_)}
        assert len(keys) == 5

    def test_parameterized_ops_never_coalesce_by_name(self):
        # Two threshold_op(100) instances share a name but are distinct
        # objects: identical names must not merge distinct code.
        frame = noise_frame(QCIF, seed=1)
        a = BatchCall.intra(threshold_op(100), frame)
        b = BatchCall.intra(threshold_op(100), frame)
        assert BatchKey.of(a) != BatchKey.of(b)


class TestRequestQueue:
    def test_strict_priority_then_fifo(self):
        queue = RequestQueue()
        queue.offer(_request(0, _grad(), Priority.BULK))
        queue.offer(_request(1, _grad(), Priority.STANDARD))
        queue.offer(_request(2, _grad(), Priority.INTERACTIVE))
        queue.offer(_request(3, _grad(), Priority.INTERACTIVE))
        order = [queue.pop_next().request_id for _ in range(4)]
        assert order == [2, 3, 1, 0]

    def test_depth_bound_and_high_water(self):
        queue = RequestQueue(policy=ServicePolicy(queue_depth=2))
        assert queue.offer(_request(0, _grad())) is None
        assert queue.offer(_request(1, _grad())) is None
        assert (queue.offer(_request(2, _grad()))
                is RejectReason.QUEUE_FULL)
        assert len(queue) == 2 and queue.high_water == 2
        queue.pop_next()
        assert queue.offer(_request(3, _grad())) is None

    def test_requeue_front_overtakes_class(self):
        queue = RequestQueue()
        queue.offer(_request(0, _grad()))
        retried = _request(1, _grad())
        queue.requeue_front(retried)
        assert queue.pop_next().request_id == 1

    def test_pop_compatible_preserves_order_and_remainder(self):
        # Even ids are grad calls and odd ids box calls: two keys.
        queue = RequestQueue()
        frame = noise_frame(QCIF, seed=1)
        requests = [_request(i, BatchCall.intra(
            INTRA_BOX3 if i % 2 else INTRA_GRAD, frame))
            for i in range(5)]
        for request in requests:
            queue.offer(request)
        evens = queue.pop_compatible(requests[0].coalescing_key, limit=2)
        assert [r.request_id for r in evens] == [0, 2]
        assert [r.request_id for r in queue] == [1, 3, 4]

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            RequestQueue(policy=ServicePolicy(queue_depth=0))


class TestMicroBatcher:
    def test_wave_coalesces_compatible_head_run(self):
        queue = RequestQueue()
        for i in range(3):
            queue.offer(_request(i, _grad(seed=i)))
        queue.offer(_request(3, BatchCall.intra(
            INTRA_BOX3, noise_frame(QCIF, seed=9))))
        batcher = MicroBatcher(policy=ServicePolicy(max_batch=8))
        wave = batcher.form_wave(queue)
        assert [r.request_id for r in wave] == [0, 1, 2]
        assert batcher.coalesced_requests == 3
        assert [r.request_id for r in batcher.form_wave(queue)] == [3]
        assert batcher.waves == 2

    def test_max_batch_caps_the_wave(self):
        queue = RequestQueue()
        for i in range(5):
            queue.offer(_request(i, _grad(seed=i)))
        batcher = MicroBatcher(policy=ServicePolicy(max_batch=2))
        assert len(batcher.form_wave(queue)) == 2
        assert len(queue) == 3

    def test_max_batch_one_disables_coalescing(self):
        queue = RequestQueue()
        for i in range(3):
            queue.offer(_request(i, _grad(seed=i)))
        batcher = MicroBatcher(policy=ServicePolicy(max_batch=1))
        while queue:
            assert len(batcher.form_wave(queue)) == 1
        assert batcher.coalesced_requests == 0

    def test_lower_priority_joins_but_never_leads(self):
        """A compatible STANDARD request may ride an INTERACTIVE wave,
        but the head is always the strict-priority next request."""
        queue = RequestQueue()
        queue.offer(_request(0, _grad(seed=0), Priority.STANDARD))
        queue.offer(_request(1, BatchCall.intra(
            INTRA_BOX3, noise_frame(QCIF, seed=1)),
            Priority.INTERACTIVE))
        queue.offer(_request(2, BatchCall.intra(
            INTRA_BOX3, noise_frame(QCIF, seed=2)),
            Priority.STANDARD))
        batcher = MicroBatcher(policy=ServicePolicy(max_batch=8))
        wave = batcher.form_wave(queue)
        # Head is the INTERACTIVE box call; the compatible STANDARD box
        # call joins it, overtaking the incompatible earlier grad.
        assert [r.request_id for r in wave] == [1, 2]
        assert [r.request_id for r in batcher.form_wave(queue)] == [0]

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(policy=ServicePolicy(max_batch=0))


class TestServiceWiring:
    def test_report_mirrors_batcher_counters(self):
        service = EngineService(policy=ServicePolicy(max_batch=4))
        for seed in range(6):
            service.submit(_grad(seed=seed))
        report = service.drain()
        assert report.waves == service.batcher.waves == 2
        assert (report.coalesced_requests
                == service.batcher.coalesced_requests == 6)
