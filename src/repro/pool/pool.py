"""EnginePool: N modelled boards behind one dispatch interface.

The paper's outlook scales by putting more AddressEngines on the bus;
this module models that deployment.  An :class:`EnginePool` owns N
:class:`~repro.pool.worker.EngineWorker` boards -- each with its own
:class:`~repro.addresslib.library.AddressLib`, driver books, and
ZBT-bank residency state -- and routes each micro-batched wave to one
board through a pluggable :class:`~repro.pool.placement.PlacementPolicy`.

Routing never changes results: every board executes through the same
vector executor, and a wave runs whole on one board, so the outputs are
bit-exact with serial submission for any pool size or policy.  What the
pool *does* change is the modeled clock -- waves land on boards whose
backlogs overlap -- and the per-board books the service report
aggregates.

Failure semantics: a board that raises
:class:`~repro.core.errors.EngineDeadlock` mid-wave is marked failed
and taken out of rotation; its wave re-places among the surviving
boards and re-runs whole (no partial results are kept, so a failover is
invisible in the outputs).  A pool with no surviving board re-raises.

Offline work takes the other shape: :meth:`EnginePool.compute_batch`
spreads one batch of independent calls over *every* alive board, and a
board's share may run in a worker process (:mod:`repro.pool.processes`).
Only that path ever starts a process; :meth:`EnginePool.close` (or the
context manager) shuts the processes down and unlinks their
shared-memory segments.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import (Dict, FrozenSet, List, Optional, Sequence, Tuple,
                    Union)

from ..addresslib.library import AddressLib, BatchCall
from ..addresslib.program import (CallProgram, ProgramStep,
                                  dependency_levels)
from ..core.errors import EngineDeadlock
from ..host import shm
from ..host.backend import EngineBackend
from ..host.driver import AddressEngineDriver
from ..image.frame import Frame
from ..perf.report import base_report_dict
from ..perf.timing import EngineTimingModel
from .placement import (LeastLoadedPlacement, PlacementPolicy,
                        ResidencyAffinityPlacement)
from .processes import ProgramOutcome, TransportBooks, WorkerProcesses
from .worker import EngineWorker, WorkerReport


@dataclass(frozen=True)
class WaveDispatch:
    """What one routed wave came back with."""

    #: Functional results, in the wave's submission order.
    results: Tuple[Union[Frame, int], ...]
    #: The board that ran the wave (after any failovers).
    worker_id: int
    #: Modeled wave start/end on that board's clock.
    start_seconds: float
    end_seconds: float
    #: Boards that failed out from under this wave before it ran.
    failovers: int = 0


@dataclass
class PoolReport:
    """Aggregated books of every board in the pool."""

    placement: str
    workers: List[WorkerReport] = field(default_factory=list)
    waves: int = 0
    #: Waves routed by an explicit placement hint, not the policy.
    hinted_waves: int = 0
    failovers: int = 0
    calls_requeued: int = 0
    calls_shed: int = 0
    clock_hz: float = 0.0
    #: Books of the offline path (:meth:`EnginePool.compute_batch`).
    transport: TransportBooks = field(default_factory=TransportBooks)

    @property
    def calls_routed(self) -> int:
        return sum(w.calls_routed for w in self.workers)

    @property
    def busy_seconds(self) -> float:
        """Total board-busy time summed across the pool."""
        return sum(w.busy_seconds for w in self.workers)

    @property
    def residency(self) -> Dict[str, int]:
        """Residency counters summed across every board's banks."""
        total: Dict[str, int] = {}
        for worker in self.workers:
            for key, value in worker.residency.items():
                total[key] = total.get(key, 0) + value
        return total

    @property
    def residency_hit_rate(self) -> Optional[float]:
        """Pool-wide hit rate; ``None`` when no board looked one up."""
        counters = self.residency
        hits = counters.get("hits", 0) + counters.get("result_reuses", 0)
        total = hits + counters.get("misses", 0)
        if total == 0:
            return None
        return hits / total

    def to_dict(self) -> Dict[str, object]:
        """Schema-conforming books (see ``perf.report``)."""
        return base_report_dict(
            "pool",
            calls=self.calls_routed,
            cycles=self.busy_seconds * self.clock_hz,
            cache=self.residency,
            shed=self.calls_shed,
            placement=self.placement,
            waves=self.waves,
            hinted_waves=self.hinted_waves,
            failovers=self.failovers,
            calls_requeued=self.calls_requeued,
            residency_hit_rate=self.residency_hit_rate,
            workers=[w.to_dict(self.clock_hz) for w in self.workers],
            transport=asdict(self.transport),
        )


class EnginePool:
    """Owns N engine workers and routes waves onto them.

    Construct with :meth:`of_engines` for an N-board pool.
    """

    def __init__(self, workers: Sequence[EngineWorker],
                 placement: Optional[PlacementPolicy] = None) -> None:
        if not workers:
            raise ValueError("a pool needs at least one worker")
        self.workers: List[EngineWorker] = list(workers)
        self.placement = placement or ResidencyAffinityPlacement()
        self.timing = self.workers[0].timing
        self.waves_dispatched = 0
        self.hinted_waves = 0
        self.failovers = 0
        self.calls_requeued = 0
        self.calls_shed = 0
        self._least_loaded = LeastLoadedPlacement()
        self._processes = WorkerProcesses(len(self.workers))

    # -- construction ---------------------------------------------------------

    @classmethod
    def of_engines(cls, count: int,
                   placement: Optional[PlacementPolicy] = None,
                   timing: Optional[EngineTimingModel] = None,
                   chain_frames: bool = True,
                   special_inter_ops: Tuple[str, ...] = ()
                   ) -> "EnginePool":
        """A pool of ``count`` engine-backed boards, one driver each.

        Workers run their waves serially on their own board, so each
        board's residency chaining stays live and the affinity policy
        has real bank state to route on.
        """
        if count < 1:
            raise ValueError(f"pool size {count} < 1")
        timing = timing or EngineTimingModel()
        workers = []
        for worker_id in range(count):
            backend = EngineBackend(
                driver=AddressEngineDriver(timing=timing),
                special_inter_ops=special_inter_ops,
                chain_frames=chain_frames)
            workers.append(EngineWorker(
                worker_id, lib=AddressLib(backend), timing=timing))
        return cls(workers, placement=placement)

    def close(self) -> None:
        """Shut down the worker processes and unlink their shm segments.

        Idempotent; a closed pool still serves and still computes
        batches, inline in the parent.
        """
        self._processes.close()

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- pool state -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.workers)

    def alive(self) -> List[EngineWorker]:
        """Boards still in rotation."""
        return [w for w in self.workers if not w.failed]

    def min_busy_until(self) -> float:
        """Earliest modeled time any alive board comes free.

        This is when the service can start its next wave; a dead pool
        answers the latest board clock so time never runs backwards.
        """
        alive = self.alive()
        if not alive:
            return max(w.busy_until for w in self.workers)
        return min(w.busy_until for w in alive)

    @property
    def special_inter_ops(self) -> FrozenSet[str]:
        """Union across boards (pools are normally homogeneous)."""
        ops: FrozenSet[str] = frozenset()
        for worker in self.workers:
            ops = ops | worker.special_inter_ops
        return ops

    # -- routing and dispatch -------------------------------------------------

    def _prices_like_pool(self, worker: EngineWorker) -> bool:
        """Whether ``worker`` prices every call exactly as the pool's
        ``timing`` and ``special_inter_ops`` do (true on every
        :meth:`of_engines` pool)."""
        return (worker.timing == self.timing
                and worker.special_inter_ops == self.special_inter_ops)

    def place(self, calls: Sequence[BatchCall],
              hint: Optional[int] = None) -> EngineWorker:
        """The board the next wave goes to.

        ``hint`` pins the wave to a worker id when that board is alive;
        a hint naming a dead or unknown board falls back to the policy
        (a hint is a preference, not a correctness constraint).
        """
        alive = self.alive()
        if not alive:
            raise EngineDeadlock("engine pool has no surviving workers")
        if hint is not None:
            for worker in alive:
                if worker.worker_id == hint:
                    self.hinted_waves += 1
                    return worker
        return self.placement.choose(calls, alive)

    def dispatch(self, calls: Sequence[BatchCall],
                 not_before: float = 0.0,
                 hint: Optional[int] = None,
                 costs: Optional[Sequence[float]] = None) -> WaveDispatch:
        """Route one wave to a board, run it, and book the clock.

        The wave starts at ``max(board free time, not_before)`` and
        costs the sum of its calls' modeled costs on that board.
        ``costs`` are the calls' overlap-model prices under the pool's
        own pricing (``timing`` and ``special_inter_ops``), as the
        service computed them at admission: a board that prices like
        the pool books them as they are, any other board prices the
        calls itself.  On :class:`EngineDeadlock` the board is failed
        out and the whole wave re-places among survivors (results never
        mix boards, and the replayed wave is priced afresh); with no
        survivors the deadlock propagates.
        """
        failovers = 0
        while True:
            worker = self.place(calls, hint)
            try:
                results = worker.run_wave(calls)
            except EngineDeadlock:
                worker.failed = True
                worker.calls_requeued += len(calls)
                self.failovers += 1
                self.calls_requeued += len(calls)
                failovers += 1
                hint = None
                if not self.alive():
                    raise
                requeued = self._requeue(calls)
                observer = shm.get_transport_observer()
                if observer is not None:
                    observer.pool_requeued(calls, requeued)
                calls = requeued
                costs = None
                continue
            observer = shm.get_transport_observer()
            if observer is not None:
                observer.pool_wave(worker.worker_id, calls, results)
            start = max(worker.busy_until, not_before)
            end = start + worker.wave_cost_seconds(
                calls, costs if self._prices_like_pool(worker) else None)
            worker.book_wave(calls, start, end)
            self.waves_dispatched += 1
            return WaveDispatch(
                results=tuple(results), worker_id=worker.worker_id,
                start_seconds=start, end_seconds=end,
                failovers=failovers)

    def _requeue(self, calls: Sequence[BatchCall]) -> List[BatchCall]:
        """The calls a failed-out wave re-runs with.

        The contract is *verbatim replay*: the same calls, same order,
        re-placed whole on a survivor.  This seam exists so the
        sanitizer selftests can model a buggy override (reordering or
        merging on requeue -- the POOL001 hazard) against the real
        dispatch loop; production code must not override it.
        """
        return list(calls)

    def account_shed(self, calls: int = 1) -> None:
        """Book shed calls against the pool and one board's driver.

        Shed work never picked a board, so it lands on the least-loaded
        survivor's driver -- the board that *would* have run it next.
        """
        if calls < 0:
            raise ValueError(f"cannot shed {calls} calls")
        self.calls_shed += calls
        alive = self.alive() or self.workers
        worker = self._least_loaded.choose((), alive)
        driver = worker.driver
        if driver is not None:
            driver.account_shed(calls)

    # -- offline batches ------------------------------------------------------

    def spread(self, calls: Sequence[BatchCall]
               ) -> List[Tuple[EngineWorker, List[int], float]]:
        """One LPT pass of ``calls`` over the alive boards.

        Each call is priced once (its overlap-model cost), ranked
        largest first with ties on submission index, and placed on the
        least-loaded board (ties on the lower board).  Answers each
        board with a non-empty share: the share's call indices in
        submission order and its modeled load, accumulated largest
        first like :meth:`EngineWorker.wave_cost_seconds`.
        """
        alive = self.alive()
        if not alive:
            raise EngineDeadlock("engine pool has no surviving workers")
        price = alive[0].price
        ranked = sorted(((price(call)[1], index)
                         for index, call in enumerate(calls)),
                        key=lambda pair: (-pair[0], pair[1]))
        loads = [0.0] * len(alive)
        shares: List[List[int]] = [[] for _ in alive]
        for cost, index in ranked:
            slot = loads.index(min(loads))
            loads[slot] += cost
            shares[slot].append(index)
        return [(worker, sorted(share), load)
                for worker, share, load in zip(alive, shares, loads)
                if share]

    def compute_batch(self, calls: Sequence[BatchCall]
                      ) -> List[Union[Frame, int]]:
        """Execute one batch of independent calls; results in call order.

        The batch spreads over the alive boards (:meth:`spread`); each
        board's share runs inline or in a worker process, and each
        board's clock advances by its share's modeled load, so the
        batch's modeled makespan is the largest share.  Accounting
        stays with the caller's library
        (:meth:`~repro.addresslib.library.AddressLib.run_batch` records
        every call); the boards' own libraries are never touched.
        """
        calls = list(calls)
        if not calls:
            return []
        shares = self.spread(calls)
        results = self._processes.run(
            calls, [indices for _, indices, _ in shares])
        for worker, indices, load in shares:
            start = worker.busy_until
            worker.book_wave([calls[index] for index in indices], start,
                             start + load)
        self.waves_dispatched += 1
        return results

    @staticmethod
    def _step_call(step: ProgramStep,
                   planes: Dict[str, Frame]) -> BatchCall:
        try:
            frames = tuple(planes[name] for name in step.inputs)
        except KeyError as missing:
            raise ValueError(
                f"program step {step.index} reads undefined plane "
                f"{missing.args[0]!r}") from None
        return BatchCall(mode=step.mode, op=step.op, frames=frames,
                         channels=step.channels,
                         reduce_to_scalar=step.reduce_to_scalar)

    def run_program(self, program: CallProgram,
                    inputs: Sequence[Frame]) -> ProgramOutcome:
        """Execute a whole call program, wavefront by wavefront.

        Steps inside one dependency level are mutually independent (the
        RAW/WAW/WAR edges of
        :func:`~repro.addresslib.program.dependency_edges` all cross
        levels), so each level is one :meth:`compute_batch` wave.
        Results are bit-exact with executing the steps in program order.
        """
        if len(inputs) != len(program.inputs):
            raise ValueError(
                f"program {program.name!r} takes {len(program.inputs)} "
                f"inputs, got {len(inputs)}")
        outcome = ProgramOutcome(
            planes=dict(zip(program.inputs, inputs)))
        for level in dependency_levels(program):
            steps = [program.steps[index] for index in level]
            batch = [self._step_call(step, outcome.planes)
                     for step in steps]
            for step, result in zip(steps, self.compute_batch(batch)):
                if isinstance(result, int):
                    outcome.scalars[step.index] = result
                elif step.output is not None:
                    outcome.planes[step.output] = result
        return outcome

    # -- books ----------------------------------------------------------------

    def report(self, clock_seconds: float = 0.0) -> PoolReport:
        """Every board's books plus the pool-level routing counters."""
        return PoolReport(
            placement=self.placement.name,
            workers=[w.report(clock_seconds) for w in self.workers],
            waves=self.waves_dispatched,
            hinted_waves=self.hinted_waves,
            failovers=self.failovers,
            calls_requeued=self.calls_requeued,
            calls_shed=self.calls_shed,
            clock_hz=self.timing.clock_hz,
            transport=replace(self._processes.books),
        )
