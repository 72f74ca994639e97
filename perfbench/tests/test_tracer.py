"""Span arithmetic: self times and the unattributed remainder."""

import asyncio

import pytest

from tracer import Span, Tracer, resolve_requests, self_times, unattributed


def _span(index, name, start, end, parent=-1, paused=0.0, request=None):
    span = Span(index, name, start, parent)
    span.end = end
    span.paused = paused
    span.request = request
    return span


def test_self_times_on_a_synthetic_tree():
    # wall 0..20; root A 1..15 with children B 2..6 (child D 3..4) and
    # C 8..12 (paused 1 s); root E 16..18.
    spans = [
        _span(0, "A", 1.0, 15.0, request=7),
        _span(1, "B", 2.0, 6.0, parent=0),
        _span(2, "D", 3.0, 4.0, parent=1),
        _span(3, "C", 8.0, 12.0, parent=0, paused=1.0),
        _span(4, "E", 16.0, 18.0, request=(8, 9)),
    ]
    own = self_times(spans)
    assert own == pytest.approx([14.0 - 4.0 - 3.0, 3.0, 1.0, 3.0, 2.0])
    rest = unattributed(spans, 20.0)
    assert rest == pytest.approx(20.0 - 14.0 - 2.0)
    assert sum(own) + rest == pytest.approx(20.0)
    assert resolve_requests(spans) == [7, 7, 7, 7, (8, 9)]


class _Clock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_live_wrappers_partition_the_wall_time():
    clock = _Clock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 1.0

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_outer = tracer.wrap("outer", outer)
    clock.now += 5.0  # before any span: unattributed
    wrapped_outer()
    own = dict((s.name, t) for s, t in zip(tracer.spans,
                                            self_times(tracer.spans)))
    assert own == {"outer": pytest.approx(2.0), "leaf": pytest.approx(2.0)}
    assert unattributed(tracer.spans, clock.now) == pytest.approx(5.0)


def test_suspended_coroutine_is_not_charged_while_others_run():
    clock = _Clock()
    tracer = Tracer(clock)
    gate = []

    async def producer():
        clock.now += 1.0
        await asyncio.sleep(0)  # suspends; the other task runs
        clock.now += 1.0
        return "done"

    def busy():
        clock.now += 10.0

    traced_producer = tracer.wrap_async("producer", producer)
    traced_busy = tracer.wrap("busy", busy)

    async def other():
        traced_busy()
        gate.append(True)

    async def main():
        task = asyncio.ensure_future(other())
        result = await traced_producer()
        await task
        return result

    assert asyncio.run(main()) == "done"
    assert gate == [True]
    by_name = {s.name: s for s in tracer.spans}
    producer_span, busy_span = by_name["producer"], by_name["busy"]
    assert busy_span.parent == -1  # not nested under the paused span
    assert producer_span.paused == pytest.approx(10.0)
    assert producer_span.active == pytest.approx(2.0)
    wall = clock.now
    assert (sum(self_times(tracer.spans)) + unattributed(tracer.spans, wall)
            == pytest.approx(wall))


def test_exceptions_still_close_spans():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer._stack == []
    assert tracer.spans[0].end >= tracer.spans[0].start
