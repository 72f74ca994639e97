"""repro.api: the one import an application needs.

The stack grew layer by layer (addresslib -> host -> pool -> service),
and each layer's submission entry point grew its own keyword set.  This
facade is the redesign that stops that: one
:class:`SubmitOptions` dataclass carries every piece of serving
metadata -- priority class, relative deadline, retry budget, tenant
label, placement hint, modeled arrival time -- and is accepted,
keyword-only, by all three submission APIs:

* ``EngineService.submit(call, options=...)``
* ``AddressLib.run_batch(calls, options=...)``
* ``AddressEngineDriver.submit(config, frame, options=...)``

Each layer reads the fields it understands and ignores the rest (a
driver has no priority queue; a library has no placement policy), so
one options object can ride a request all the way down.  Passing the
same metadata any other way (loose keywords, extra positionals) is a
:class:`TypeError`.

Typical serving setup::

    from repro.api import (EngineService, EnginePool, SubmitOptions,
                           Priority, AdmissionPolicy, BatchCall,
                           ServicePolicy, TenantPolicy)

    pool = EnginePool.of_engines(4)
    service = EngineService(pool=pool, policy=ServicePolicy(
        admission=AdmissionPolicy(0.050),
        tenants={"viewfinder": TenantPolicy(weight=2.0,
                                            p95_target_seconds=0.040)}))
    ticket = service.submit(call, options=SubmitOptions(
        priority=Priority.INTERACTIVE, deadline_seconds=0.030,
        tenant="viewfinder"))

Async serving (:mod:`repro.aio`) rides the same options object::

    async with AsyncEngineClient(service) as client:
        ticket = await client.submit(call, options)
        frame = await ticket
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from .addresslib.library import (AddressLib, BatchCall, CallLog,
                                 SoftwareBackend)
from .aio import AsyncEngineClient, AsyncTicket, CompletionStream
from .checks import check_finite
from .host.backend import EngineBackend
from .host.driver import AddressEngineDriver, FrameResidencyCache
from .pool import (EnginePool, EngineWorker, LeastLoadedPlacement,
                   PlacementPolicy, PoolReport, ResidencyAffinityPlacement,
                   RoundRobinPlacement, WaveDispatch)
from .service.admission import AdmissionController, AdmissionPolicy
from .service.engine_service import EngineService, ServiceReport
from .service.policy import ServicePolicy, TenantPolicy
from .service.request import (Priority, RejectReason, RequestState,
                              ServiceError, ServiceTicket)


@dataclass(frozen=True)
class SubmitOptions:
    """Everything a caller may say about one submission, in one place.

    All fields default to "no preference", so ``SubmitOptions()`` is
    the neutral submission a bare ``submit(call)`` gets.  The object
    is frozen: build one per request (or share one across requests with
    identical metadata -- it carries no per-request state).
    """

    #: Priority class (drains strictly lower-value-first).
    priority: Priority = Priority.STANDARD
    #: Relative completion budget in modeled seconds (finite, >= 0);
    #: ``None``: none.
    deadline_seconds: Optional[float] = None
    #: Deadline-miss re-enqueues allowed before timing out.
    max_retries: int = 0
    #: Tenant label the per-layer books tally this work under.
    tenant: Optional[str] = None
    #: Preferred pool worker id.  A *hint*: the pool honours it while
    #: the board is alive, and falls back to the placement policy
    #: otherwise -- it never changes results, only routing.
    placement: Optional[int] = None
    #: Where the request sits on the modeled clock (open-loop traces);
    #: ``None`` means "now".  Finite and >= 0; never moves the clock
    #: backwards.
    arrival_seconds: Optional[float] = None
    #: Transport-sanitizer domains to arm while this work runs
    #: (``"transport"``, ``"residency"``, ``"pool"``, or ``"all"``);
    #: ``None`` leaves the sanitizer as configured (the
    #: ``REPRO_SANITIZE`` env var still applies).  Diagnostics land on
    #: :func:`repro.analysis.sanitize.active_sanitizer`'s findings;
    #: results are never changed.
    sanitize: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        check_finite("deadline_seconds", self.deadline_seconds)
        check_finite("arrival_seconds", self.arrival_seconds)
        if self.sanitize is not None:
            domains = _normalize_sanitize(self.sanitize)
            object.__setattr__(self, "sanitize", domains)


def _normalize_sanitize(
        sanitize: Union[str, Sequence[str]]) -> Tuple[str, ...]:
    """Validate and canonicalise a sanitizer-domain spec.

    Accepts a single domain name or a sequence of them; defers to
    :func:`repro.analysis.sanitize.normalize_domains` (lazy import, so
    building options never touches host transport) for the actual
    vocabulary -- unknown domains raise :class:`ValueError`.
    """
    from .analysis.sanitize import normalize_domains
    if isinstance(sanitize, str):
        sanitize = (sanitize,)
    return normalize_domains(sanitize)


__all__ = [
    "AddressEngineDriver",
    "AddressLib",
    "AdmissionController",
    "AdmissionPolicy",
    "AsyncEngineClient",
    "AsyncTicket",
    "BatchCall",
    "CallLog",
    "CompletionStream",
    "EngineBackend",
    "EnginePool",
    "EngineService",
    "EngineWorker",
    "FrameResidencyCache",
    "LeastLoadedPlacement",
    "PlacementPolicy",
    "PoolReport",
    "Priority",
    "RejectReason",
    "RequestState",
    "ResidencyAffinityPlacement",
    "RoundRobinPlacement",
    "ServiceError",
    "ServicePolicy",
    "ServiceReport",
    "ServiceTicket",
    "TenantPolicy",
    "SoftwareBackend",
    "SubmitOptions",
    "WaveDispatch",
]
