"""ServicePolicy: every serving knob of the front end, in one record.

One frozen :class:`ServicePolicy` carries the queue bound, the wave
width, the admission budget, and the per-tenant SLO contract
(:class:`TenantPolicy`: fair-queueing weight, queued/in-flight quotas,
p95 deadline target), and is the only configuration
``EngineService``, ``RequestQueue``, ``MicroBatcher`` and
``AdmissionController`` accept -- the same move
:class:`~repro.api.SubmitOptions` made for per-request metadata.
Anything else passed as ``policy=`` is a :class:`TypeError`.

Every field is range-checked at construction: NaN, infinity and
negative times raise :class:`ValueError` through the shared
:func:`repro.checks.check_finite`.

Deliberately light: this module imports nothing beyond
:mod:`repro.service.request` and :mod:`repro.checks`, so the static
analyzer
(:mod:`repro.analysis`, rule SVC003) can inspect a policy without
dragging in the pool or the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..checks import check_finite
from .request import Priority

__all__ = [
    "AdmissionPolicy",
    "ServicePolicy",
    "TenantPolicy",
]


def _default_budget_fractions() -> Dict[Priority, float]:
    return {Priority.INTERACTIVE: 1.0,
            Priority.STANDARD: 0.75,
            Priority.BULK: 0.5}


@dataclass
class AdmissionPolicy:
    """The knobs of the load-shedding decision."""

    #: Modeled backlog (busy tail + queued cost) a newly admitted
    #: INTERACTIVE request may face; ``None`` disables shedding.
    deadline_budget_seconds: Optional[float] = None
    #: Per-class fraction of the budget (BULK sheds first).
    budget_fractions: Dict[Priority, float] = field(
        default_factory=_default_budget_fractions)

    def __post_init__(self) -> None:
        check_finite("deadline_budget_seconds",
                     self.deadline_budget_seconds)
        for priority, fraction in self.budget_fractions.items():
            check_finite(f"budget_fractions[{priority}]", fraction)

    def budget_for(self, priority: Priority) -> Optional[float]:
        if self.deadline_budget_seconds is None:
            return None
        return (self.deadline_budget_seconds
                * self.budget_fractions.get(priority, 1.0))


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's SLO contract with the service.

    ``weight`` is the tenant's fair-queueing share *within* each
    priority class: at equal weights tenants interleave one-for-one;
    a weight-2 tenant drains two requests for every one of a weight-1
    neighbour.  The quotas are hard per-tenant caps enforced before
    admission pricing (``TENANT_QUOTA`` rejects); the p95 target makes
    admission shade that tenant's backlog budget so its modeled
    completion tail stays inside the target even while another tenant
    floods.
    """

    #: Fair-queueing weight within each priority class (> 0).
    weight: float = 1.0
    #: Most requests this tenant may hold queued at once; ``None``
    #: leaves only the global depth bound.
    max_queued: Optional[int] = None
    #: Most accepted-but-unresolved requests at once; ``None``: no cap.
    max_in_flight: Optional[int] = None
    #: Modeled p95 completion target admission protects; ``None``: no
    #: target (the tenant rides the plain class budget).
    p95_target_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        check_finite("tenant weight", self.weight, positive=True)
        if self.max_queued is not None and not self.max_queued >= 1:
            raise ValueError(
                f"max_queued must be >= 1, got {self.max_queued}")
        if self.max_in_flight is not None and not self.max_in_flight >= 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}")
        check_finite("p95_target_seconds", self.p95_target_seconds,
                     positive=True)


#: The neutral contract untagged (and unconfigured) tenants serve under.
DEFAULT_TENANT_POLICY = TenantPolicy()


@dataclass(frozen=True)
class ServicePolicy:
    """Every constructor knob of the service stack, in one record.

    ``ServicePolicy()`` reproduces the historical defaults exactly
    (depth 64, waves of 8, no shedding, no tenants), so threading a
    default policy through the stack changes nothing -- the property
    the 208-case bit-exactness corpus holds with fairness enabled.
    """

    #: Global request-queue depth bound.
    queue_depth: int = 64
    #: Widest wave the micro-batcher may form.
    max_batch: int = 8
    #: The load-shedding budget (``None`` budget disables shedding).
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: Per-tenant SLO contracts, by tenant label.
    tenants: Mapping[str, TenantPolicy] = field(default_factory=dict)
    #: The contract for untagged requests and unlisted tenants.
    default_tenant: TenantPolicy = DEFAULT_TENANT_POLICY
    #: Weighted fair interleave across tenants within each class
    #: (``False``: plain FIFO within class, the pre-tenancy order).
    fair_queueing: bool = True
    #: Prefer near-deadline compatible followers when forming waves.
    deadline_aware_batching: bool = True
    #: Decay constant of the per-tenant arrival-rate estimator, in
    #: modeled seconds (admission's noisy-neighbour detector).
    rate_tau_seconds: float = 0.5

    def __post_init__(self) -> None:
        if not self.queue_depth >= 1:
            raise ValueError(
                f"queue depth must be >= 1, got {self.queue_depth}")
        if not self.max_batch >= 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}")
        check_finite("rate_tau_seconds", self.rate_tau_seconds,
                     positive=True)

    def tenant(self, name: Optional[str]) -> TenantPolicy:
        """The contract ``name`` serves under (default when unlisted)."""
        if name is None:
            return self.default_tenant
        return self.tenants.get(name, self.default_tenant)

    def weight(self, name: Optional[str]) -> float:
        return self.tenant(name).weight


def check_policy(policy: Optional[ServicePolicy],
                 owner: str) -> ServicePolicy:
    """``policy``, or the default one when ``None``; any other type is a
    :class:`TypeError` raised at the constructor that received it."""
    if policy is None:
        return ServicePolicy()
    if not isinstance(policy, ServicePolicy):
        raise TypeError(f"{owner} policy must be a ServicePolicy, got "
                        f"{type(policy).__name__}")
    return policy
