"""Worker processes behind the pool's boards: the offline execution path.

:meth:`~repro.pool.pool.EnginePool.compute_batch` spreads a batch of
independent calls over every alive board, and each board's share runs
inline in the parent or in a worker process.  This module is that
process side:

* frames move to worker processes *zero-copy and at most once*: each
  distinct input frame is registered in a shared-memory
  :class:`~repro.host.shm.PlaneStore` and shipped as a small handle,
  workers keep attached segments in a resident cache across waves, and
  a board's share leaves as one grouped submission;
* a cost-model-driven *inline bypass* (:meth:`WorkerProcesses._bypass`)
  keeps calls in the parent whose shipping cannot pay for itself;
* ops ship by registry *name* (:func:`_op_token`), since they carry
  lambdas and do not pickle.

Worker processes run the same
:class:`~repro.addresslib.executor.VectorExecutor` the serial path runs
and results collect by submission index, so they are bit-exact with
serial execution whatever the transport.
"""

from __future__ import annotations

import os
import time
import weakref
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Set,
                    Tuple, Union)

from ..addresslib.addressing import AddressingMode
from ..addresslib.executor import SoftwareCostModel, VectorExecutor
from ..addresslib.kernels import KERNEL_FACTORIES, kernel_by_name
from ..addresslib.library import BatchCall
from ..addresslib.ops import (ChannelSet, InterOp, INTER_OPS, INTRA_OPS,
                              IntraOp)
from ..addresslib.program import CallProgram
from ..host import shm
from ..image.frame import Frame

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    from ..analysis.diagnostics import Diagnostic
    from ..analysis.sanitize import TransportSanitizer

_KERNEL_PREFIX = "kernel_"

#: One call as shipped to a worker process: mode, op token, reduce
#: flag, channel set, and its input frames (each a shared-memory
#: ``FrameHandle`` or a pickled ``Frame``).
_Job = Tuple[str, str, bool, ChannelSet, Tuple[object, ...]]

#: Per-wave worker options: (ship results via shm, sanitize domains).
_WaveOptions = Tuple[bool, Tuple[str, ...]]

#: What one shipped group returns: per-call results (frames, scalars or
#: ``ResultHandle``), worker-cache hits, fresh attaches, and findings.
_WaveResult = Tuple[List[object], int, int, List["Diagnostic"]]

_Result = Union[Frame, int]

# The bypass cost model: the process analogue of the engine model's PCI
# arithmetic, pricing a frame's move to a worker process instead of the
# board.  The round trip itself is measured live (``_round_trip``); the
# one-off cost of writing a frame's planes into a segment at
# registration is not modeled (paid once per frame, not per call).

#: Per shared-memory handle: pickle of the tiny handle plus the
#: (amortised) worker-side attach.
_HANDLE_S = 2e-5
#: Throughput of pickling numpy payloads through the executor's pipes --
#: the fallback transport's per-byte cost.
_PICKLE_BYTES_PER_S = 400e6
#: Seconds per modeled software instruction when estimating inline
#: (parent-side) execution from a ``SoftwareCostModel`` profile.
#: Calibrated against the vector executor's measured throughput on CIF
#: intra calls, not against the paper's scalar CPUs.
_INSTRUCTION_S = 0.5e-9


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the
    platform has one; the host CPU count otherwise)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _op_token(call: BatchCall) -> Optional[str]:
    """The name a worker process can re-resolve to *exactly* ``call.op``.

    Identity (not name) is the test: a custom op that happens to share
    a registry name must not silently run the registry's code in a
    worker.  ``None`` means "execute inline".
    """
    name = call.op.name
    if call.mode is AddressingMode.INTER:
        return name if INTER_OPS.get(name) is call.op else None
    if INTRA_OPS.get(name) is call.op:
        return name
    if name.startswith(_KERNEL_PREFIX):
        base = name[len(_KERNEL_PREFIX):]
        if base in KERNEL_FACTORIES and kernel_by_name(base) is call.op:
            return name
    return None


def _resolve_op(mode_value: str, op_name: str) -> Union[InterOp, IntraOp]:
    """Re-resolve a shipped op token against the worker's registries."""
    if mode_value == AddressingMode.INTER.value:
        return INTER_OPS[op_name]
    if op_name in INTRA_OPS:
        return INTRA_OPS[op_name]
    return kernel_by_name(op_name[len(_KERNEL_PREFIX):])


def _execute(mode_value: str, op: Union[InterOp, IntraOp],
             reduce_to_scalar: bool, channels: ChannelSet,
             frames: Sequence[Frame]) -> _Result:
    """Execute one call with the shared vector executor."""
    if mode_value == AddressingMode.INTER.value:
        assert isinstance(op, InterOp)
        if reduce_to_scalar:
            return VectorExecutor.inter_reduce(op, frames[0], frames[1],
                                               channels)
        return VectorExecutor.inter(op, frames[0], frames[1], channels)
    assert isinstance(op, IntraOp)
    return VectorExecutor.intra(op, frames[0], channels)


def _execute_inline(call: BatchCall) -> _Result:
    return _execute(call.mode.value, call.op, call.reduce_to_scalar,
                    call.channels, call.frames)


def _noop() -> bool:
    """Round-trip probe: measures the fixed cost of one submission."""
    return True


def _worker_init() -> None:
    """Worker-process initializer: fork hygiene.

    Drops worker-cache entries and any transport observer inherited
    over ``fork()``: both belong to the parent process.
    """
    shm.reset_worker_cache()
    shm.set_transport_observer(None)


def _execute_wave(jobs: Sequence[_Job], wave_options: _WaveOptions
                  ) -> _WaveResult:
    """Worker-side execution of one board's share of a wave.

    Input frames arrive as shared-memory handles (attached through the
    worker-resident cache) or as pickled frames; result frames leave as
    shared-memory handles when possible, pickled otherwise.  Runs
    sanitized exactly when the parent's wave says so.  Returns the
    per-call results in job order, this trip's cache hits and fresh
    attaches, and the worker sanitizer's drained findings.
    """
    ship_results_shm, sanitize_domains = wave_options
    sanitizer: Optional["TransportSanitizer"] = None
    if sanitize_domains:
        from ..analysis.sanitize import ensure_sanitizer
        sanitizer = ensure_sanitizer(sanitize_domains)
    else:
        shm.set_transport_observer(None)
    results: List[object] = []
    hits = attaches = 0
    for mode_value, op_name, reduce_to_scalar, channels, inputs in jobs:
        frames: List[Frame] = []
        for payload in inputs:
            if isinstance(payload, shm.FrameHandle):
                frame, hit = shm.worker_attach(payload)
                hits += hit
                attaches += not hit
                frames.append(frame)
            else:
                assert isinstance(payload, Frame)
                frames.append(payload)
        value = _execute(mode_value, _resolve_op(mode_value, op_name),
                         reduce_to_scalar, channels, frames)
        if isinstance(value, Frame) and ship_results_shm:
            handle = shm.ship_result(value)
            if handle is not None:
                results.append(handle)
                continue
        results.append(value)
    findings = sanitizer.drain() if sanitizer is not None else []
    return results, hits, attaches, findings


def _armed_domains() -> Tuple[str, ...]:
    """The sanitizer domains this wave's worker processes run under.

    Exactly the parent's active sanitizer's, if any; ``REPRO_SANITIZE``
    (a comma-separated domain list) arms or widens that sanitizer
    first.  Nothing under :mod:`repro.analysis` is imported while no
    sanitizer is armed.
    """
    env = [part.strip()
           for part in os.environ.get("REPRO_SANITIZE", "").split(",")
           if part.strip()]
    if env:
        from ..analysis.sanitize import ensure_sanitizer
        ensure_sanitizer(env)
    if shm.get_transport_observer() is None:
        return ()
    from ..analysis.sanitize import active_sanitizer
    sanitizer = active_sanitizer()
    return tuple(sorted(sanitizer.domains)) if sanitizer else ()


@dataclass
class TransportBooks:
    """Cumulative books of the pool's offline path."""

    #: Calls executed in worker processes.
    pool_calls: int = 0
    #: Calls executed inline (unshippable op, single-call batch, a
    #: closed pool, broken processes, or a failed transport).
    inline_calls: int = 0
    #: Calls the cost model kept in the parent: modeled compute saving
    #: below modeled shipping cost.
    bypass_calls: int = 0
    #: Pool calls whose inputs moved as shared-memory handles.
    shm_calls: int = 0
    #: Pool calls whose inputs were pickled (shm unavailable/broken).
    pickle_calls: int = 0
    #: Grouped submissions (one per board share per wave).
    round_trips: int = 0
    #: Wall seconds registering frames and submitting groups.
    ship_seconds: float = 0.0
    #: Wall seconds executing (inline calls plus waiting on workers).
    compute_seconds: float = 0.0
    #: Wall seconds adopting result segments in the parent.
    gather_seconds: float = 0.0
    #: Worker-resident cache hits / fresh segment attaches.
    worker_cache_hits: int = 0
    worker_cache_attaches: int = 0


@dataclass
class ProgramOutcome:
    """Everything a pool's program run produced."""

    #: Every named plane: the program inputs plus each step's output.
    planes: Dict[str, Frame] = field(default_factory=dict)
    #: Scalar results of reduce steps, keyed by step index.
    scalars: Dict[int, int] = field(default_factory=dict)

    def results(self, program: CallProgram) -> Tuple[Frame, ...]:
        """The program's declared result planes, in order."""
        return tuple(self.planes[name] for name in program.results)


class _PoolResources:
    """The teardown state of one pool's processes, held *outside* them.

    ``weakref.finalize`` must not reference its owner (that would keep
    it alive forever), so the executor and the plane store live here:
    an abandoned pool is collectable, and its finalizer still shuts the
    processes down and unlinks every shared-memory segment -- whether
    triggered by ``close()``, garbage collection, or interpreter exit.
    """

    __slots__ = ("executor", "store")

    def __init__(self) -> None:
        self.executor: Optional["ProcessPoolExecutor"] = None
        self.store: Optional[shm.PlaneStore] = None

    def release(self) -> None:
        executor, self.executor = self.executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        store, self.store = self.store, None
        if store is not None:
            store.close()


#: One shipped group: its call indices, per-call input transport, and
#: the pending submission (``None`` when submitting failed).
_Group = Tuple[List[int], List[str], Optional["Future[_WaveResult]"]]


class WorkerProcesses:
    """The pool's worker processes, one per board, started lazily.

    Processes start on the first wave that ships a call and survive
    across waves (start-up is paid once).  Any process failure -- one
    that cannot start, dies, or cannot unpickle -- flips the pool into
    inline mode for the rest of its life: results are then computed
    serially in the parent, still bit-exact, never lost.
    """

    def __init__(self, processes: int) -> None:
        self.processes = processes
        self.books = TransportBooks()
        self._resources = _PoolResources()
        self._finalizer = weakref.finalize(self, _PoolResources.release,
                                           self._resources)
        self._broken = False
        self._closed = False
        self._cost_model = SoftwareCostModel()
        self._inline_cache: Dict[Tuple[object, ...], float] = {}
        #: Measured round trip (``None`` until the processes are probed).
        self._round_trip_s: Optional[float] = None

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut the processes down and unlink every shm segment.

        Idempotent and safe from ``__del__``/atexit; afterwards every
        call runs inline in the parent.
        """
        self._closed = True
        self._finalizer()

    def _executor(self) -> Optional["ProcessPoolExecutor"]:
        if self._closed or self._broken:
            return None
        if self._resources.executor is None:
            try:
                # Lazy: only a pool that ships ever loads the process
                # machinery.
                from concurrent.futures import ProcessPoolExecutor
                self._resources.executor = ProcessPoolExecutor(
                    max_workers=self.processes, initializer=_worker_init)
            except Exception:
                self._broken = True
                return None
        return self._resources.executor

    def _store(self) -> Optional[shm.PlaneStore]:
        if self._closed:
            return None
        store = self._resources.store
        if store is None:
            store = self._resources.store = shm.PlaneStore()
        return None if store.broken else store

    # -- the bypass cost model ------------------------------------------------

    def _round_trip(self) -> Optional[float]:
        """The fixed cost of one submission, measured once.

        The first probe absorbs worker start-up; only the second is
        timed.  A failed probe marks the processes broken (``None``).
        """
        if self._round_trip_s is None:
            executor = self._executor()
            if executor is None:
                return None
            try:
                executor.submit(_noop).result(timeout=60)
                start = time.perf_counter()
                executor.submit(_noop).result(timeout=60)
                self._round_trip_s = max(time.perf_counter() - start,
                                         1e-5)
            except Exception:
                self._broken = True
                return None
        return self._round_trip_s

    def _inline_seconds(self, call: BatchCall) -> float:
        """Modeled parent-side execution time of one call (cached by
        call shape -- only registry ops reach this, so the op name is
        an exact identity)."""
        fmt = call.fmt
        key = (call.mode.value, call.op.name, fmt.name, fmt.width,
               fmt.height, call.channels, call.reduce_to_scalar)
        cached = self._inline_cache.get(key)
        if cached is None:
            if call.mode is AddressingMode.INTER:
                assert isinstance(call.op, InterOp)
                profile = self._cost_model.inter_profile(
                    call.op, fmt, call.channels)
            else:
                assert isinstance(call.op, IntraOp)
                profile = self._cost_model.intra_profile(
                    call.op, fmt, call.channels)
            cached = profile.total_instructions * _INSTRUCTION_S
            self._inline_cache[key] = cached
        return cached

    def _ship_seconds(self, call: BatchCall, amortized_calls: int,
                      round_trip_s: float) -> float:
        """Modeled cost of shipping ``call`` to a worker and back: the
        round trip amortized over the calls sharing it, one handle per
        moved frame and, without shared memory, the pickled bytes."""
        store = self._resources.store
        zero_copy = (shm.SHARED_MEMORY_AVAILABLE
                     and (store is None or not store.broken))
        moved_frames = len(call.frames) + (0 if call.reduce_to_scalar
                                           else 1)
        cost = round_trip_s / max(1, amortized_calls) + (moved_frames
                                                         * _HANDLE_S)
        if not zero_copy:
            cost += (shm.frame_payload_bytes(call.fmt) * moved_frames
                     / _PICKLE_BYTES_PER_S)
        return cost

    def _bypass(self, call: BatchCall, amortized_calls: int) -> bool:
        """Inline when shipping cannot pay for itself.

        Shipping a call buys at most the fraction of its compute the
        other processes absorb (``1 - 1/effective``, where ``effective``
        counts the processes that can really run at once on the CPUs
        this process may use); if that saving is below the modeled
        shipping cost, keep the call in the parent.  With fewer than
        two effective processes nothing can overlap, and no process is
        ever started.
        """
        effective = min(self.processes, usable_cpus())
        if effective < 2:
            return True
        round_trip = self._round_trip()
        if round_trip is None:
            return True
        saving = self._inline_seconds(call) * (1.0 - 1.0 / effective)
        return saving <= self._ship_seconds(call, amortized_calls,
                                            round_trip)

    # -- one wave -------------------------------------------------------------

    def run(self, calls: Sequence[BatchCall],
            shares: Sequence[Sequence[int]]) -> List[_Result]:
        """Execute one wave of independent calls; results in call order.

        ``shares`` partitions the call indices by board.  Four phases,
        each timed into the books: *plan* (op tokens and bypass
        decisions), *ship* (register frames, one grouped submission per
        board share), *compute* (inline calls plus waiting on the
        workers, with whole-group inline recompute on any process
        failure), *gather* (adopt shared-memory results).
        """
        books = self.books
        outcomes: List[Optional[_Result]] = [None] * len(calls)
        domains = _armed_domains()
        observer = shm.get_transport_observer()
        if observer is not None:
            observer.wave_opened()
        tokens = [_op_token(call) if len(calls) > 1 else None
                  for call in calls]
        shipped, bypassed = self._plan(calls, tokens, len(shares))

        groups: List[_Group] = []
        if shipped:
            start = time.perf_counter()
            groups = self._ship(calls, tokens, [
                [index for index in share if index in shipped]
                for share in shares], domains)
            books.ship_seconds += time.perf_counter() - start

        # Compute: inline work runs while the workers chew on theirs;
        # then collect each group, recomputing it inline on failure.
        start = time.perf_counter()
        for index, call in enumerate(calls):
            if index in shipped:
                continue
            outcomes[index] = _execute_inline(call)
            if index in bypassed:
                books.bypass_calls += 1
            else:
                books.inline_calls += 1
        collected = []
        for indices, transports, future in groups:
            items = self._collect(future)
            if items is None or len(items) != len(indices):
                self._broken = True
                for index in indices:
                    outcomes[index] = _execute_inline(calls[index])
                    books.inline_calls += 1
                continue
            collected.append((indices, transports, items))
        books.compute_seconds += time.perf_counter() - start

        # Gather: adopt shared-memory results as zero-copy frames.
        start = time.perf_counter()
        store = self._resources.store
        for indices, transports, items in collected:
            for index, transport, item in zip(indices, transports, items):
                if isinstance(item, shm.ResultHandle):
                    frame = (store.adopt_result(item)
                             if store is not None else None)
                    if frame is None:
                        outcomes[index] = _execute_inline(calls[index])
                        books.inline_calls += 1
                        continue
                    item = frame
                assert isinstance(item, (Frame, int))
                outcomes[index] = item
                books.pool_calls += 1
                if transport == "shm":
                    books.shm_calls += 1
                else:
                    books.pickle_calls += 1
        books.gather_seconds += time.perf_counter() - start

        if observer is not None:
            observer.wave_closed()
        results = [outcome for outcome in outcomes if outcome is not None]
        assert len(results) == len(calls)
        return results

    def _plan(self, calls: Sequence[BatchCall],
              tokens: Sequence[Optional[str]], boards: int
              ) -> Tuple[Set[int], Set[int]]:
        """Split the wave into shipped and bypassed call indices.

        Calls without a registry token, and every call of a closed or
        broken pool, are neither: they run inline unconditionally
        (counted as ``inline_calls``).
        """
        candidates = [index for index, token in enumerate(tokens)
                      if token is not None]
        if not candidates or self._closed or self._broken:
            return set(), set()
        groups = min(boards, len(candidates))
        amortized = max(1, -(-len(candidates) // groups))
        shipped: Set[int] = set()
        bypassed: Set[int] = set()
        for index in candidates:
            if self._bypass(calls[index], amortized):
                bypassed.add(index)
            else:
                shipped.add(index)
        if self._broken:
            return set(), set(candidates)
        return shipped, bypassed

    def _ship(self, calls: Sequence[BatchCall],
              tokens: Sequence[Optional[str]],
              groups: Sequence[List[int]], domains: Tuple[str, ...]
              ) -> List[_Group]:
        """Register input frames and submit one job group per share."""
        store = self._store()
        executor = self._executor()
        observer = shm.get_transport_observer()
        submitted: List[_Group] = []
        for indices in groups:
            if not indices:
                continue
            jobs: List[_Job] = []
            transports: List[str] = []
            for index in indices:
                call = calls[index]
                inputs: List[object] = []
                for frame in call.frames:
                    handle = (store.register(frame)
                              if store is not None else None)
                    if handle is not None:
                        if observer is not None:
                            observer.handle_shipped(handle)
                        inputs.append(handle)
                    else:
                        inputs.append(frame)
                transports.append(
                    "shm" if all(isinstance(item, shm.FrameHandle)
                                 for item in inputs) else "pickle")
                token = tokens[index]
                assert token is not None
                jobs.append((call.mode.value, token,
                             call.reduce_to_scalar, call.channels,
                             tuple(inputs)))
            wave_options: _WaveOptions = (
                store is not None and not store.broken, domains)
            future: Optional["Future[_WaveResult]"] = None
            if executor is not None:
                try:
                    future = executor.submit(_execute_wave, jobs,
                                             wave_options)
                    self.books.round_trips += 1
                except Exception:
                    self._broken = True
            submitted.append((indices, transports, future))
        return submitted

    def _collect(self, future: Optional["Future[_WaveResult]"]
                 ) -> Optional[List[object]]:
        """One group's results, or ``None`` after any process failure."""
        if future is None:
            return None
        try:
            items, hits, attaches, findings = future.result()
        except Exception:
            # A worker died or the payload would not round-trip:
            # recompute inline, flag the processes, keep the wave whole.
            return None
        self.books.worker_cache_hits += hits
        self.books.worker_cache_attaches += attaches
        if findings:
            from ..analysis.sanitize import active_sanitizer
            sanitizer = active_sanitizer()
            if sanitizer is not None:
                sanitizer.findings.extend(findings)
        return items
