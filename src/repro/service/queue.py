"""The bounded, tenant-fair, priority-classed request queue.

The queue is deliberately small and explicit: strict priority across
classes, one global depth bound, and *reject-with-reason* when full --
never unbounded growth.  An overloaded service that queues without
bound converts overload into unbounded latency for everyone; a bounded
queue converts it into fast, explicit backpressure for the marginal
request, which is the behaviour the admission controller builds on.

Within one priority class the drain order is **weighted fair
queueing** over tenants (start-time fair queueing): every offer is
stamped with a virtual finish tag ``max(class vtime, tenant's last
finish) + 1/weight`` and pops take the smallest tag.  Tenants at equal
weight interleave one-for-one however unevenly they arrive; a weight-2
tenant drains two for a neighbour's one; and a queue whose requests
are all untagged collapses to a single bucket whose tags increase with
every offer -- exact FIFO, bit-identical to the pre-tenancy order.
Per-tenant ``max_queued`` quotas ride the same bookkeeping: a tenant
at its cap is answered ``TENANT_QUOTA`` while everyone else still has
the whole remaining depth.  All knobs come from one
:class:`~repro.service.policy.ServicePolicy`.

Each class keeps its entries indexed by the requests' coalescing key
(:attr:`~repro.service.request.ServiceRequest.coalescing_key`), every
key's entries sorted in drain order ``(finish tag, seq)``.  The next
request is the smallest head over the class's keys, and a wave's
followers (:meth:`RequestQueue.pop_compatible`) come off the head's
own key list -- O(wave), never a scan of the class.

The synchronous front end surfaces a full queue as an immediate
``QUEUE_FULL`` rejection; the asyncio facade (:mod:`repro.aio`)
instead *suspends* the producer until a slot frees.  The wake signal
lives here: :meth:`RequestQueue.add_space_listener` registers a
zero-argument callback fired whenever a pop reopens space in a queue
that was at depth.  Listeners are notification-only -- they must
re-check :attr:`has_space` themselves (several producers may race for
one freed slot) and must not mutate the queue reentrantly.  Quota
rejections deliberately do not ride the listener path: a tenant at its
own cap is shed explicitly, not suspended against space it may never
be allowed to take.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .policy import ServicePolicy, check_policy
from .request import (CoalescingKey, Priority, RejectReason,
                      ServiceRequest)

#: One queued entry: (virtual finish tag, offer sequence, request).
#: Sequence numbers are unique, so entries order by their first two
#: fields and a comparison never reaches the request.
_Entry = Tuple[float, int, ServiceRequest]


class RequestQueue:
    """Weighted-fair within a class, strict priority across classes."""

    def __init__(self, policy: Optional[ServicePolicy] = None) -> None:
        self.policy = check_policy(policy, "RequestQueue")
        self.max_depth = self.policy.queue_depth
        #: priority -> coalescing key -> entries in drain order.
        self._classes: Dict[Priority,
                            Dict[CoalescingKey, List[_Entry]]] = {
            priority: {} for priority in Priority}
        #: Per-class virtual time (advances with every head pop).
        self._vtime: Dict[Priority, float] = {
            priority: 0.0 for priority in Priority}
        #: Per-class, per-bucket last assigned finish tag.
        self._finish: Dict[Priority, Dict[Optional[str], float]] = {
            priority: {} for priority in Priority}
        self._size = 0
        self._seq = 0
        #: Decreasing stamp so later requeues sort *ahead* of earlier
        #: ones -- the appendleft semantics of the pre-tenancy queue.
        self._front_seq = -1
        #: Queued requests per tenant label (the max_queued quota book).
        self._queued_by_tenant: Dict[Optional[str], int] = {}
        #: Deepest the queue ever got (capacity-planning signal).
        self.high_water = 0
        self._space_listeners: List[Callable[[], None]] = []

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def depth_of(self, priority: Priority) -> int:
        return sum(len(entries)
                   for entries in self._classes[priority].values())

    def queued_of(self, tenant: Optional[str]) -> int:
        """Requests ``tenant`` currently holds queued."""
        return self._queued_by_tenant.get(tenant, 0)

    @property
    def has_space(self) -> bool:
        """Whether :meth:`offer` would currently accept a request."""
        return self._size < self.max_depth

    def _bucket_key(self, request: ServiceRequest) -> Optional[str]:
        if not self.policy.fair_queueing:
            return None
        return request.tenant

    # -- backpressure signaling -----------------------------------------------

    def add_space_listener(self, listener: Callable[[], None]) -> None:
        """Register a wake callback for the full-to-space transition.

        Fired after any pop that takes a queue *at depth* back below
        its bound -- the moment a suspended producer could offer again.
        The callback carries no payload: a woken producer re-checks
        :attr:`has_space` (another producer may have claimed the slot
        first) and goes back to waiting if it lost the race.
        """
        self._space_listeners.append(listener)

    def remove_space_listener(self,
                              listener: Callable[[], None]) -> None:
        """Unregister ``listener``; unknown listeners are a no-op."""
        try:
            self._space_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_space(self, depth_before: int) -> None:
        """Wake listeners when a pop reopened space at the bound."""
        if (self._space_listeners and depth_before >= self.max_depth
                and self._size < self.max_depth):
            for listener in tuple(self._space_listeners):
                listener()

    # -- offering -------------------------------------------------------------

    def offer(self, request: ServiceRequest) -> Optional[RejectReason]:
        """Enqueue, or explain why not (``None`` means accepted)."""
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
        insort(self._classes[priority].setdefault(
            request.coalescing_key, []), (finish, self._seq, request))
        self._seq += 1
        self._account_add(request)
        return None

    def requeue_front(self, request: ServiceRequest) -> None:
        """Put a retried request at the *front* of its class.

        A deadline retry has already waited one full queue pass; sending
        it to the back would starve it behind younger work.  The depth
        bound and tenant quota are not re-checked: the request held its
        slot until a moment ago and nothing else can have claimed it
        mid-dispatch.  The entry carries a ``-inf`` finish tag, so it
        sorts ahead of every fair-queued entry without dragging the
        class's virtual time backwards.
        """
        insort(self._classes[request.priority].setdefault(
            request.coalescing_key, []),
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

    # -- popping --------------------------------------------------------------

    def pop_next(self) -> ServiceRequest:
        """Smallest finish tag in the highest non-empty class; raises
        IndexError when empty."""
        depth_before = self._size
        for priority in Priority:
            index = self._classes[priority]
            if not index:
                continue
            head_key = next(iter(index))
            head = index[head_key]
            for key, entries in index.items():
                if entries[0] < head[0]:
                    head_key, head = key, entries
            finish, _, request = head.pop(0)
            if not head:
                del index[head_key]
            self._vtime[priority] = max(self._vtime[priority], finish)
            self._account_remove(request)
            self._notify_space(depth_before)
            return request
        raise IndexError("pop from an empty RequestQueue")

    def pop_compatible(
            self, key: CoalescingKey, limit: int,
            prefer: Optional[Callable[[ServiceRequest], float]] = None,
    ) -> List[ServiceRequest]:
        """Remove up to ``limit`` queued requests whose coalescing key
        is ``key``.

        Takes classes in priority order and each class's ``key``
        entries in drain order, so the relative order of the popped
        requests is the order :meth:`pop_next` would have produced.
        With ``prefer`` a class's entries are instead ranked by the
        given key (stably, so ties keep drain order) before truncation
        -- how the batcher pulls near-deadline work forward.  Requests
        are independent by contract, so pulling compatible ones forward
        changes neither their results nor any other request's.  Costs
        O(entries under ``key``), whatever else is queued.
        """
        popped: List[ServiceRequest] = []
        if limit <= 0:
            return popped
        depth_before = self._size
        for priority in Priority:
            index = self._classes[priority]
            entries = index.get(key)
            if not entries:
                continue
            wanted = limit - len(popped)
            if prefer is None:
                taken = entries[:wanted]
                del entries[:wanted]
            else:
                taken = sorted(entries,
                               key=lambda entry: prefer(entry[2]))[:wanted]
                chosen = {entry[1] for entry in taken}
                entries[:] = [entry for entry in entries
                              if entry[1] not in chosen]
            if not entries:
                del index[key]
            for entry in taken:
                self._account_remove(entry[2])
                popped.append(entry[2])
            if len(popped) >= limit:
                break
        if popped:
            self._notify_space(depth_before)
        return popped

    def __iter__(self) -> Iterator[ServiceRequest]:
        """Every queued request in the order :meth:`pop_next` would
        drain them."""
        for priority in Priority:
            merged = [entry for entries in self._classes[priority].values()
                      for entry in entries]
            merged.sort(key=lambda entry: (entry[0], entry[1]))
            for entry in merged:
                yield entry[2]
