"""The keyed queue index pops exactly what the class scan popped.

``RequestQueue`` keeps each priority class's entries indexed by
coalescing key in drain order, so a wave's followers come off one key
list instead of a sorted scan of the whole class.  The scan it replaced
is kept below verbatim as the oracle (``ScanQueue``; the space
listeners are left out).  Hypothesis drives both queues through the
same random sequences of ``offer``, ``requeue_front``, ``pop_next`` and
``pop_compatible`` (with and without the deadline ``prefer`` ranking),
with fair queueing on and off, tenant weights and quotas, and a small
depth bound; every answer and every observable of the two queues must
agree after every step.
"""

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import INTER_ABSDIFF, INTRA_BOX3, INTRA_GRAD
from repro.addresslib.library import BatchCall
from repro.image import ImageFormat, noise_frame
from repro.service import (Priority, RejectReason, RequestQueue,
                           ServicePolicy, ServiceRequest, TenantPolicy)
from repro.service.policy import check_policy

_Entry = Tuple[float, int, ServiceRequest]


class ScanQueue:
    """The pre-index ``RequestQueue`` (tenant buckets, scanned pops)."""

    def __init__(self, policy: Optional[ServicePolicy] = None) -> None:
        self.policy = check_policy(policy, "RequestQueue")
        self.max_depth = self.policy.queue_depth
        self._classes: Dict[Priority,
                            Dict[Optional[str], Deque[_Entry]]] = {
            priority: {} for priority in Priority}
        self._vtime: Dict[Priority, float] = {
            priority: 0.0 for priority in Priority}
        self._finish: Dict[Priority, Dict[Optional[str], float]] = {
            priority: {} for priority in Priority}
        self._size = 0
        self._seq = 0
        self._front_seq = -1
        self._queued_by_tenant: Dict[Optional[str], int] = {}
        self.high_water = 0

    def __len__(self) -> int:
        return self._size

    def depth_of(self, priority: Priority) -> int:
        return sum(len(bucket)
                   for bucket in self._classes[priority].values())

    def queued_of(self, tenant: Optional[str]) -> int:
        return self._queued_by_tenant.get(tenant, 0)

    def _bucket_key(self, request: ServiceRequest) -> Optional[str]:
        if not self.policy.fair_queueing:
            return None
        return request.tenant

    def offer(self, request: ServiceRequest) -> Optional[RejectReason]:
        if self._size >= self.max_depth:
            return RejectReason.QUEUE_FULL
        cap = self.policy.tenant(request.tenant).max_queued
        if (cap is not None
                and self._queued_by_tenant.get(request.tenant, 0) >= cap):
            return RejectReason.TENANT_QUOTA
        priority = request.priority
        bucket = self._bucket_key(request)
        weight = (self.policy.weight(request.tenant)
                  if self.policy.fair_queueing else 1.0)
        start = max(self._vtime[priority],
                    self._finish[priority].get(bucket, 0.0))
        finish = start + 1.0 / weight
        self._finish[priority][bucket] = finish
        self._classes[priority].setdefault(bucket, deque()).append(
            (finish, self._seq, request))
        self._seq += 1
        self._account_add(request)
        return None

    def requeue_front(self, request: ServiceRequest) -> None:
        bucket = self._bucket_key(request)
        self._classes[request.priority].setdefault(
            bucket, deque()).appendleft(
                (float("-inf"), self._front_seq, request))
        self._front_seq -= 1
        self._account_add(request)

    def _account_add(self, request: ServiceRequest) -> None:
        self._size += 1
        self._queued_by_tenant[request.tenant] = (
            self._queued_by_tenant.get(request.tenant, 0) + 1)
        self.high_water = max(self.high_water, self._size)

    def _account_remove(self, request: ServiceRequest) -> None:
        self._size -= 1
        remaining = self._queued_by_tenant.get(request.tenant, 0) - 1
        if remaining > 0:
            self._queued_by_tenant[request.tenant] = remaining
        else:
            self._queued_by_tenant.pop(request.tenant, None)

    def pop_next(self) -> ServiceRequest:
        for priority in Priority:
            buckets = self._classes[priority]
            if not buckets:
                continue
            best: Optional[Optional[str]] = None
            best_key: Optional[Tuple[float, int]] = None
            for bucket, entries in buckets.items():
                head = entries[0]
                key = (head[0], head[1])
                if best_key is None or key < best_key:
                    best_key, best = key, bucket
            assert best_key is not None
            finish, _, request = buckets[best].popleft()
            if not buckets[best]:
                del buckets[best]
            self._vtime[priority] = max(self._vtime[priority], finish)
            self._account_remove(request)
            return request
        raise IndexError("pop from an empty RequestQueue")

    def _class_entries(self, priority: Priority) -> List[_Entry]:
        merged: List[_Entry] = []
        for entries in self._classes[priority].values():
            merged.extend(entries)
        merged.sort(key=lambda entry: (entry[0], entry[1]))
        return merged

    def pop_compatible(
            self, matches: Callable[[ServiceRequest], bool], limit: int,
            prefer: Optional[Callable[[ServiceRequest], float]] = None,
    ) -> List[ServiceRequest]:
        popped: List[ServiceRequest] = []
        if limit <= 0:
            return popped
        for priority in Priority:
            if not self._classes[priority]:
                continue
            candidates = [entry for entry in
                          self._class_entries(priority)
                          if matches(entry[2])]
            if prefer is not None:
                candidates.sort(key=lambda entry: prefer(entry[2]))
            taken = candidates[:limit - len(popped)]
            if taken:
                self._remove_entries(priority, taken)
                popped.extend(entry[2] for entry in taken)
            if len(popped) >= limit:
                break
        return popped

    def _remove_entries(self, priority: Priority,
                        taken: List[_Entry]) -> None:
        chosen = {id(entry[2]) for entry in taken}
        buckets = self._classes[priority]
        for bucket in list(buckets):
            entries = buckets[bucket]
            if not any(id(entry[2]) in chosen for entry in entries):
                continue
            kept = deque(entry for entry in entries
                         if id(entry[2]) not in chosen)
            if kept:
                buckets[bucket] = kept
            else:
                del buckets[bucket]
        for entry in taken:
            self._account_remove(entry[2])

    def __iter__(self):
        for priority in Priority:
            for entry in self._class_entries(priority):
                yield entry[2]


# -- the random sequences ----------------------------------------------------

FMT = ImageFormat("T8", 8, 8)
_FRAMES = [noise_frame(FMT, seed=seed) for seed in range(2)]
#: Three coalescing configurations (two intra ops and one inter).
_CALLS = [BatchCall.intra(INTRA_GRAD, _FRAMES[0]),
          BatchCall.intra(INTRA_BOX3, _FRAMES[0]),
          BatchCall.inter(INTER_ABSDIFF, _FRAMES[0], _FRAMES[1])]
_TENANTS = (None, "a", "b", "c")


def _deadline_rank(request: ServiceRequest) -> float:
    deadline = request.absolute_deadline
    return float("inf") if deadline is None else deadline


_offer = st.tuples(
    st.just("offer"), st.sampled_from(_TENANTS),
    st.sampled_from(list(Priority)), st.integers(0, len(_CALLS) - 1),
    st.sampled_from([None, None, 0, 1]),
    st.sampled_from([None, 0.01, 0.02, 0.03]))
_requeue = st.tuples(st.just("requeue"), st.integers(0, 1 << 16))
_pop_next = st.tuples(st.just("pop_next"))
_pop_compatible = st.tuples(
    st.just("pop_compatible"), st.integers(0, 1 << 16),
    st.integers(0, 9), st.booleans())
_operations = st.lists(
    st.one_of(_offer, _offer, _requeue, _pop_next, _pop_compatible),
    min_size=1, max_size=80)


@st.composite
def _policies(draw):
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                            min_size=3, max_size=3))
    caps = draw(st.lists(st.sampled_from([None, None, 2, 5]),
                         min_size=3, max_size=3))
    return ServicePolicy(
        queue_depth=draw(st.sampled_from([4, 12, 256])),
        fair_queueing=draw(st.booleans()),
        tenants={name: TenantPolicy(weight=weight, max_queued=cap)
                 for name, weight, cap in zip(("a", "b", "c"), weights,
                                              caps)})


def _observables(queue) -> tuple:
    return (len(queue), [request.request_id for request in queue],
            [queue.depth_of(priority) for priority in Priority],
            [queue.queued_of(tenant) for tenant in _TENANTS],
            queue.high_water)


class TestKeyedIndexMatchesTheScan:
    @settings(max_examples=300, deadline=None)
    @given(policy=_policies(), operations=_operations)
    def test_random_sequences(self, policy, operations):
        indexed = RequestQueue(policy=policy)
        scanned = ScanQueue(policy=policy)
        made: List[ServiceRequest] = []
        out: List[ServiceRequest] = []  # popped, free to requeue
        for operation in operations:
            kind = operation[0]
            if kind == "offer":
                _, tenant, priority, call, placement, deadline = operation
                request = ServiceRequest(
                    request_id=len(made), call=_CALLS[call],
                    priority=priority, arrival_seconds=0.0,
                    deadline_seconds=deadline, tenant=tenant,
                    placement=placement)
                made.append(request)
                assert indexed.offer(request) is scanned.offer(request)
            elif kind == "requeue":
                if not out:
                    continue
                request = out.pop(operation[1] % len(out))
                indexed.requeue_front(request)
                scanned.requeue_front(request)
            elif kind == "pop_next":
                if not len(scanned):
                    continue
                request = scanned.pop_next()
                assert indexed.pop_next() is request
                out.append(request)
            else:
                _, pick, limit, prefer = operation
                if not made:
                    continue
                key = made[pick % len(made)].coalescing_key
                rank = _deadline_rank if prefer else None
                expected = scanned.pop_compatible(
                    lambda request: request.coalescing_key == key, limit,
                    prefer=rank)
                actual = indexed.pop_compatible(key, limit, prefer=rank)
                assert ([r.request_id for r in actual]
                        == [r.request_id for r in expected])
                out.extend(expected)
            assert _observables(indexed) == _observables(scanned)
        while len(scanned):
            assert indexed.pop_next() is scanned.pop_next()
        assert not indexed
