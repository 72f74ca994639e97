"""RequestQueue at depth: reject stability, FIFO, and the wake path.

The bounded queue is the backpressure primitive both front ends build
on: the synchronous path needs the full-queue reject reason to be
stable (``QUEUE_FULL``, every time, no matter how often it is hit),
and the asyncio facade needs the space-listener wake path to fire on
exactly the full-to-space transitions.  FIFO-within-priority must hold
under concurrent producers racing through backpressure suspensions.
"""

import asyncio

from repro.addresslib import BatchCall, INTRA_OPS
from repro.aio import AsyncEngineClient
from repro.api import (EngineService, Priority, RejectReason,
                       ServicePolicy, SubmitOptions)
from repro.image import ImageFormat, noise_frame
from repro.service.queue import RequestQueue
from repro.service.request import ServiceRequest

FMT = ImageFormat("T16", 16, 16)
OP = INTRA_OPS["intra_grad"]


def _request(request_id, priority=Priority.STANDARD):
    call = BatchCall.intra(OP, noise_frame(FMT, seed=request_id))
    return ServiceRequest(request_id=request_id, call=call,
                          priority=priority, arrival_seconds=0.0,
                          deadline_seconds=None)


class TestRejectStability:
    def test_full_queue_rejects_queue_full_every_time(self):
        """The marginal offer's reason is stable across repeated hits
        and across fill/drain cycles -- clients key retry policy on
        it."""
        queue = RequestQueue(policy=ServicePolicy(queue_depth=2))
        assert queue.offer(_request(0)) is None
        assert queue.offer(_request(1)) is None
        for attempt in range(5):
            assert queue.offer(_request(10 + attempt)) is (
                RejectReason.QUEUE_FULL)
        queue.pop_next()
        assert queue.offer(_request(20)) is None
        assert queue.offer(_request(21)) is RejectReason.QUEUE_FULL

    def test_has_space_tracks_depth(self):
        queue = RequestQueue(policy=ServicePolicy(queue_depth=2))
        assert queue.has_space
        queue.offer(_request(0))
        assert queue.has_space
        queue.offer(_request(1))
        assert not queue.has_space
        queue.pop_next()
        assert queue.has_space


class TestSpaceListeners:
    def test_fires_only_on_full_to_space_transition(self):
        """Pops below the bound are silent; the pop that reopens a
        full queue wakes every registered listener once."""
        queue = RequestQueue(policy=ServicePolicy(queue_depth=2))
        fired = []
        queue.add_space_listener(lambda: fired.append("a"))
        queue.add_space_listener(lambda: fired.append("b"))
        queue.offer(_request(0))
        queue.pop_next()
        assert fired == []  # never was full
        queue.offer(_request(1))
        queue.offer(_request(2))
        queue.pop_next()
        assert fired == ["a", "b"]  # full -> space: both woken once
        queue.pop_next()
        assert fired == ["a", "b"]  # already had space: silent

    def test_pop_compatible_fires_once_for_a_batch(self):
        queue = RequestQueue(policy=ServicePolicy(queue_depth=3))
        fired = []
        queue.add_space_listener(lambda: fired.append(1))
        requests = [_request(request_id) for request_id in range(3)]
        for request in requests:
            queue.offer(request)
        popped = queue.pop_compatible(requests[0].coalescing_key,
                                      limit=3)
        assert len(popped) == 3
        assert fired == [1]

    def test_remove_listener_and_unknown_removal(self):
        queue = RequestQueue(policy=ServicePolicy(queue_depth=1))
        fired = []
        listener = lambda: fired.append(1)  # noqa: E731
        queue.add_space_listener(listener)
        queue.remove_space_listener(listener)
        queue.remove_space_listener(listener)  # unknown: no-op
        queue.offer(_request(0))
        queue.pop_next()
        assert fired == []


class TestFifoUnderConcurrentProducers:
    def test_fifo_within_priority_across_backpressure(self):
        """Two producer tasks race through a depth-2 queue; within
        each producer's priority class, completions keep submission
        order -- backpressure wake order must never reorder a class."""
        per_producer = 10

        async def run():
            service = EngineService(
                policy=ServicePolicy(queue_depth=2, max_batch=1))
            completion_order = {"hi": [], "lo": []}
            notes = []
            async with AsyncEngineClient(service) as client:

                async def produce(label, priority):
                    for n in range(per_producer):
                        ticket = await client.submit(
                            BatchCall.intra(OP, noise_frame(
                                FMT, seed=n)),
                            SubmitOptions(priority=priority,
                                          tenant=label))
                        async def note(t=ticket, label=label, n=n):
                            await t.wait()
                            completion_order[label].append(n)
                        notes.append(asyncio.ensure_future(note()))

                await asyncio.gather(
                    produce("hi", Priority.INTERACTIVE),
                    produce("lo", Priority.BULK))
                report = await client.drain()
                await asyncio.gather(*notes)
            return completion_order, report

        order, report = asyncio.run(run())
        assert report.completed == 2 * per_producer
        assert report.rejected == 0
        assert order["hi"] == sorted(order["hi"])
        assert order["lo"] == sorted(order["lo"])
