"""Synthetic multi-tenant arrival traces: seeded, replayable, scalable.

An open-loop load test is only as good as its arrival process.  This
module synthesizes the one the MPSoC serving literature judges
multimedia systems by -- independent per-tenant Poisson streams, with
optional Markov-modulated on/off *bursts* for the tenants that do not
arrive smoothly -- and freezes it into an :class:`ArrivalTrace`: a
plain list of (arrival time, tenant, op, frame seeds) rows that can be
saved to JSON, reloaded bit-identically, re-timed to a different
offered load (:meth:`ArrivalTrace.scaled`), and replayed against any
service configuration (:mod:`repro.load.runner`).

Everything is seeded and closed over ``random.Random`` streams keyed by
``"{seed}:{tenant}"`` strings, so a trace synthesized from the same
:class:`TraceSpec` is identical on any machine and any Python hash
seed -- the property the determinism gates in ``BENCH_async.json``
stand on.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..addresslib.library import BatchCall
from ..addresslib.ops import INTER_OPS, INTRA_OPS
from ..checks import check_finite
from ..image.formats import ImageFormat
from ..image.frame import Frame
from ..image.synth import noise_frame
from ..service.request import Priority

#: Trace JSON schema version (bump on incompatible format changes).
TRACE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share and shape of the offered load.

    ``weight`` is the tenant's fraction of the aggregate arrival rate
    (normalised over all tenants).  A smooth tenant leaves
    ``burst_factor`` at 1.0; a bursty one alternates quiet and burst
    phases (exponentially distributed durations) where the burst phase
    multiplies the instantaneous rate by ``burst_factor`` while the
    quiet phase is thinned so the *long-run mean* rate still honours
    ``weight`` -- bursts change variance, never the offered totals.
    """

    name: str
    weight: float = 1.0
    priority: Priority = Priority.STANDARD
    #: Per-request relative deadline carried into ``SubmitOptions``.
    deadline_seconds: Optional[float] = None
    max_retries: int = 0
    #: Rate multiplier during burst phases (1.0 = pure Poisson).
    burst_factor: float = 1.0
    #: Long-run fraction of time spent in the burst phase.
    burst_fraction: float = 0.25
    #: Mean quiet+burst cycle length, in *nominal* requests.
    burst_cycle_requests: float = 64.0

    def __post_init__(self) -> None:
        check_finite("tenant weight", self.weight, positive=True)
        check_finite("deadline_seconds", self.deadline_seconds)
        if not self.max_retries >= 0:
            raise ValueError(
                f"max_retries must be >= 0: {self.max_retries}")
        check_finite("burst_factor", self.burst_factor)
        if not self.burst_factor >= 1.0:
            raise ValueError(
                f"burst_factor must be >= 1.0: {self.burst_factor}")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError(
                f"burst_fraction must be in (0, 1): "
                f"{self.burst_fraction}")
        check_finite("burst_cycle_requests", self.burst_cycle_requests,
                     positive=True)


def _default_tenants() -> Tuple[TenantSpec, ...]:
    return (TenantSpec("viewfinder", weight=1.0,
                       priority=Priority.INTERACTIVE),
            TenantSpec("pipeline", weight=2.0,
                       priority=Priority.STANDARD),
            TenantSpec("reprocess", weight=1.0, priority=Priority.BULK,
                       burst_factor=4.0))


@dataclass(frozen=True)
class TraceSpec:
    """Everything :meth:`ArrivalTrace.synthesize` needs, in one place."""

    #: Total requests across all tenants.
    requests: int = 10_000
    #: Aggregate offered arrival rate, requests per modeled second.
    rate_per_s: float = 1000.0
    tenants: Tuple[TenantSpec, ...] = field(
        default_factory=_default_tenants)
    seed: int = 0x10AD
    #: Frame geometry every call in the trace uses.
    width: int = 32
    height: int = 24
    #: Distinct noise frames the trace draws inputs from (shared
    #: objects at replay time, so residency affinity has state to hit).
    frame_pool: int = 32
    #: Fraction of calls using inter addressing (two frames).
    inter_fraction: float = 0.25
    #: Of the inter calls, the fraction reduced to a scalar.
    reduce_fraction: float = 0.3
    intra_ops: Tuple[str, ...] = ("intra_grad", "intra_box3")
    inter_ops: Tuple[str, ...] = ("inter_absdiff",)

    def __post_init__(self) -> None:
        if not self.requests >= 1:
            raise ValueError(f"requests must be >= 1: {self.requests}")
        check_finite("rate_per_s", self.rate_per_s, positive=True)
        if not self.tenants:
            raise ValueError("a trace needs at least one tenant")
        for name in ("width", "height", "frame_pool"):
            if not getattr(self, name) >= 1:
                raise ValueError(
                    f"{name} must be >= 1: {getattr(self, name)}")
        for name in ("inter_fraction", "reduce_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1]: {getattr(self, name)}")
        for name in self.intra_ops:
            if name not in INTRA_OPS:
                raise ValueError(f"unknown intra op {name!r}")
        for name in self.inter_ops:
            if name not in INTER_OPS:
                raise ValueError(f"unknown inter op {name!r}")


@dataclass(frozen=True)
class TraceEntry:
    """One arrival: when, who, and which call to build."""

    __slots__ = ("arrival_seconds", "tenant_index", "op", "seed_a",
                 "seed_b", "reduce_to_scalar")

    arrival_seconds: float
    tenant_index: int
    #: Registry op name (``INTRA_OPS`` / ``INTER_OPS`` key).
    op: str
    seed_a: int
    #: Second input's seed for inter calls; ``None`` for intra.
    seed_b: Optional[int]
    reduce_to_scalar: bool


class _TenantStream:
    """Lazy per-tenant arrival generator (heapq-merge friendly).

    Owns a private ``random.Random`` seeded from a stable string key,
    so per-tenant streams are independent and machine-independent.
    Burst modulation is a two-state Markov chain over exponential
    phase durations; the quiet rate is deflated so the long-run mean
    matches the tenant's nominal share.
    """

    def __init__(self, spec: TraceSpec, index: int) -> None:
        tenant = spec.tenants[index]
        total_weight = sum(t.weight for t in spec.tenants)
        self.index = index
        self.tenant = tenant
        self.rng = random.Random(f"{spec.seed}:{tenant.name}")
        self.nominal_rate = (spec.rate_per_s
                             * tenant.weight / total_weight)
        factor, fraction = tenant.burst_factor, tenant.burst_fraction
        # Mean of the modulated rate must equal the nominal rate:
        #   quiet*(1-f) + quiet*factor*f == nominal.
        self.quiet_rate = self.nominal_rate / (
            (1.0 - fraction) + factor * fraction)
        self.burst_rate = self.quiet_rate * factor
        cycle_seconds = (tenant.burst_cycle_requests
                         / self.nominal_rate)
        self.mean_burst_seconds = fraction * cycle_seconds
        self.mean_quiet_seconds = (1.0 - fraction) * cycle_seconds
        self.bursting = False
        self.phase_ends = self.rng.expovariate(
            1.0 / self.mean_quiet_seconds) if factor > 1.0 else None
        self.clock = 0.0

    def _rate(self) -> float:
        return self.burst_rate if self.bursting else self.quiet_rate

    def next_arrival(self) -> float:
        """Advance this tenant's clock to its next arrival."""
        while True:
            gap = self.rng.expovariate(self._rate())
            if self.phase_ends is None or (self.clock + gap
                                           <= self.phase_ends):
                self.clock += gap
                return self.clock
            # Crossed a phase boundary: discard the tail of the gap
            # (memorylessness makes the re-draw exact) and flip phase.
            self.clock = self.phase_ends
            self.bursting = not self.bursting
            mean = (self.mean_burst_seconds if self.bursting
                    else self.mean_quiet_seconds)
            self.phase_ends = self.clock + self.rng.expovariate(
                1.0 / mean)

    def make_entry(self, arrival: float, spec: TraceSpec) -> TraceEntry:
        rng = self.rng
        if rng.random() < spec.inter_fraction and spec.inter_ops:
            return TraceEntry(
                arrival_seconds=arrival, tenant_index=self.index,
                op=rng.choice(spec.inter_ops),
                seed_a=rng.randrange(spec.frame_pool),
                seed_b=rng.randrange(spec.frame_pool),
                reduce_to_scalar=rng.random() < spec.reduce_fraction)
        return TraceEntry(
            arrival_seconds=arrival, tenant_index=self.index,
            op=rng.choice(spec.intra_ops),
            seed_a=rng.randrange(spec.frame_pool), seed_b=None,
            reduce_to_scalar=False)


class ArrivalTrace:
    """A frozen multi-tenant arrival sequence plus its metadata."""

    def __init__(self, entries: Sequence[TraceEntry],
                 tenants: Tuple[TenantSpec, ...], seed: int,
                 rate_per_s: float, width: int, height: int,
                 frame_pool: int) -> None:
        self.entries: List[TraceEntry] = list(entries)
        self.tenants = tenants
        self.seed = seed
        #: Nominal aggregate offered rate (requests per modeled second).
        self.rate_per_s = rate_per_s
        self.width = width
        self.height = height
        self.frame_pool = frame_pool

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def format(self) -> ImageFormat:
        return ImageFormat(f"P{self.width}x{self.height}",
                           self.width, self.height)

    @property
    def duration_seconds(self) -> float:
        """Span of the arrival process (last arrival time)."""
        if not self.entries:
            return 0.0
        return self.entries[-1].arrival_seconds

    # -- synthesis ------------------------------------------------------------

    @classmethod
    def synthesize(cls, spec: TraceSpec) -> "ArrivalTrace":
        """Generate ``spec.requests`` arrivals by merging the
        per-tenant streams in time order (a k-way heap merge, so a
        million-request trace synthesizes in one pass)."""
        streams = [_TenantStream(spec, index)
                   for index in range(len(spec.tenants))]
        heap = [(stream.next_arrival(), stream.index)
                for stream in streams]
        heapq.heapify(heap)
        entries: List[TraceEntry] = []
        while len(entries) < spec.requests:
            arrival, index = heap[0]
            stream = streams[index]
            entries.append(stream.make_entry(arrival, spec))
            heapq.heapreplace(heap, (stream.next_arrival(), index))
        return cls(entries, tenants=spec.tenants, seed=spec.seed,
                   rate_per_s=spec.rate_per_s, width=spec.width,
                   height=spec.height, frame_pool=spec.frame_pool)

    # -- derivation -----------------------------------------------------------

    def scaled(self, load_factor: float) -> "ArrivalTrace":
        """The same request sequence offered ``load_factor`` times
        faster (arrival times divided, rate multiplied) -- one trace
        sweeps a whole latency/goodput curve."""
        check_finite("load_factor", load_factor, positive=True)
        entries = [replace(e, arrival_seconds=(e.arrival_seconds
                                               / load_factor))
                   for e in self.entries]
        return ArrivalTrace(entries, tenants=self.tenants,
                            seed=self.seed,
                            rate_per_s=self.rate_per_s * load_factor,
                            width=self.width, height=self.height,
                            frame_pool=self.frame_pool)

    def head(self, requests: int) -> "ArrivalTrace":
        """The first ``requests`` arrivals (for scaled-down smokes)."""
        return ArrivalTrace(self.entries[:requests],
                            tenants=self.tenants, seed=self.seed,
                            rate_per_s=self.rate_per_s,
                            width=self.width, height=self.height,
                            frame_pool=self.frame_pool)

    # -- JSON round trip ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Compact JSON payload (entries as rows, tenants by index)."""
        return {
            "kind": "arrival_trace",
            "version": TRACE_FORMAT_VERSION,
            "seed": self.seed,
            "rate_per_s": self.rate_per_s,
            "format": {"width": self.width, "height": self.height},
            "frame_pool": self.frame_pool,
            "tenants": [{
                "name": t.name,
                "weight": t.weight,
                "priority": str(t.priority),
                "deadline_seconds": t.deadline_seconds,
                "max_retries": t.max_retries,
            } for t in self.tenants],
            "entries": [[e.arrival_seconds, e.tenant_index, e.op,
                         e.seed_a, e.seed_b,
                         int(e.reduce_to_scalar)]
                        for e in self.entries],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ArrivalTrace":
        if payload.get("kind") != "arrival_trace":
            raise ValueError("not an arrival-trace payload")
        if payload.get("version") != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"trace format version {payload.get('version')!r} "
                f"unsupported (expected {TRACE_FORMAT_VERSION})")
        tenants = tuple(
            TenantSpec(name=t["name"], weight=t["weight"],
                       priority=Priority[t["priority"].upper()],
                       deadline_seconds=t["deadline_seconds"],
                       max_retries=t["max_retries"])
            for t in payload["tenants"])  # type: ignore[index]
        fmt = payload["format"]
        entries = [TraceEntry(arrival_seconds=row[0],
                              tenant_index=row[1], op=row[2],
                              seed_a=row[3], seed_b=row[4],
                              reduce_to_scalar=bool(row[5]))
                   for row in payload["entries"]]  # type: ignore[union-attr]
        return cls(
            entries, tenants=tenants,
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            rate_per_s=float(
                payload["rate_per_s"]),  # type: ignore[arg-type]
            width=fmt["width"],  # type: ignore[index]
            height=fmt["height"],  # type: ignore[index]
            frame_pool=int(
                payload["frame_pool"]))  # type: ignore[arg-type]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, separators=(",", ":"))
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ArrivalTrace":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


class CallFactory:
    """Materializes trace entries into calls and submit options.

    Frames are synthesized once per (pool) seed and shared across every
    entry that names them -- identity sharing is what gives the
    residency caches and the affinity placement real state to work
    with, exactly like a camera pipeline resubmitting live buffers.
    """

    def __init__(self, trace: ArrivalTrace) -> None:
        self.trace = trace
        fmt = trace.format
        self._frames: Dict[int, Frame] = {
            seed: noise_frame(fmt, seed=seed)
            for seed in range(trace.frame_pool)}
        # One frozen options prototype per tenant; per-entry options
        # only swap the arrival stamp.
        from ..api import SubmitOptions
        self._prototypes = [
            SubmitOptions(priority=t.priority,
                          deadline_seconds=t.deadline_seconds,
                          max_retries=t.max_retries, tenant=t.name)
            for t in trace.tenants]

    def frame(self, seed: int) -> Frame:
        return self._frames[seed]

    def call(self, entry: TraceEntry) -> BatchCall:
        if entry.seed_b is None:
            return BatchCall.intra(INTRA_OPS[entry.op],
                                   self._frames[entry.seed_a])
        if entry.reduce_to_scalar:
            return BatchCall.inter_reduce(INTER_OPS[entry.op],
                                          self._frames[entry.seed_a],
                                          self._frames[entry.seed_b])
        return BatchCall.inter(INTER_OPS[entry.op],
                               self._frames[entry.seed_a],
                               self._frames[entry.seed_b])

    def options(self, entry: TraceEntry) -> "object":
        return replace(self._prototypes[entry.tenant_index],
                       arrival_seconds=entry.arrival_seconds)
