"""Runtime transport sanitizer: the dynamic half of the SHM/RES/POOL
rule families.

:mod:`repro.analysis.transport` proves properties of a *lowered plan*;
this module checks the same properties against the *live stack*.  A
:class:`TransportSanitizer` implements the
:class:`~repro.host.shm.TransportObserver` protocol -- the hook sites
in :mod:`repro.host.shm` and :class:`~repro.pool.pool.EnginePool`
(serving waves and worker-process waves) notify it of every handle
ship, segment create/release, cache attach/evict, and pool
wave/requeue -- and emits :class:`~repro.analysis.diagnostics.
Diagnostic` findings under the *same rule ids* as the static pass, so
every static verdict is dynamically falsifiable and vice versa.

Opt-in and cheap: nothing is instrumented until a sanitizer is
installed (:func:`install_sanitizer`/:func:`ensure_sanitizer`,
``SubmitOptions(sanitize=...)`` through the service, or
``REPRO_SANITIZE=transport,residency`` in the environment, which an
engine pool reads at each offline batch), and every hook site is a
single module-global ``None`` check when it is not.  A pool's worker
processes run sanitized exactly when a sanitizer is active in the
parent: its domains ride along with each wave, and the workers'
findings land on the parent's sanitizer.

:data:`SANITIZE_SELFTESTS` seeds one real bug per rule into the live
primitives (a mutated frame under an in-flight handle, a double
segment release, a one-entry cache thrashing, a pool whose requeue
reorders a wave...) and checks the sanitizer catches it -- run by
``repro-check --sanitize-selftest`` and the CI analysis gate.
"""

from __future__ import annotations

import weakref
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from ..host import shm
from .diagnostics import Diagnostic
from .rules import _diag

#: The checkable rule domains, and what "all" expands to.
DOMAINS = ("transport", "residency", "pool")


def normalize_domains(domains: Sequence[str]) -> Tuple[str, ...]:
    """Validate and canonicalize a domain list (``"all"`` expands)."""
    chosen: Set[str] = set()
    for domain in domains:
        if domain == "all":
            chosen.update(DOMAINS)
        elif domain in DOMAINS:
            chosen.add(domain)
        else:
            raise ValueError(
                f"unknown sanitize domain {domain!r}; expected "
                f"'all' or one of {', '.join(DOMAINS)}")
    return tuple(sorted(chosen))


class TransportSanitizer:
    """Observer-side checkers emitting SHM/RES/POOL diagnostics.

    One instance per process; findings accumulate until
    :meth:`drain`.  All methods tolerate partial event streams (a
    sanitizer installed mid-run simply never flags segments it did not
    see created), so installation order can never produce a false
    positive.
    """

    def __init__(self, domains: Sequence[str] = ("all",)) -> None:
        self.domains: Set[str] = set(normalize_domains(domains))
        self.findings: List[Diagnostic] = []
        # transport state
        self._wave_depth = 0
        self._shipped: Dict[Tuple[str, int], int] = {}
        self._known_segments: Set[str] = set()
        self._live_segments: Set[str] = set()
        # residency state
        self._max_generation: Dict[Tuple[str, int], int] = {}
        self._evicted: Set[Tuple[str, int, int]] = set()
        # pool state
        self._producers: Dict[int, Tuple["weakref.ref[Any]", int]] = {}

    # -- findings ----------------------------------------------------------

    def drain(self) -> List[Diagnostic]:
        """All findings since the last drain (and forget them)."""
        findings, self.findings = self.findings, []
        return findings

    def _emit(self, rule_id: str, message: str) -> None:
        self.findings.append(_diag(rule_id, message))

    # -- wave framing (offline pool waves) ---------------------------------

    def wave_opened(self) -> None:
        self._wave_depth += 1

    def wave_closed(self) -> None:
        self._wave_depth = max(0, self._wave_depth - 1)
        if self._wave_depth == 0:
            self._shipped.clear()

    def handle_shipped(self, handle: shm.FrameHandle) -> None:
        if "transport" not in self.domains or self._wave_depth == 0:
            return
        key = (handle.token, handle.frame_id)
        self._shipped.setdefault(key, handle.generation)

    # -- store lifecycle ---------------------------------------------------

    def frame_registered(self, token: str, frame_id: int,
                         generation: int) -> None:
        if "transport" not in self.domains:
            return
        shipped = self._shipped.get((token, frame_id))
        if shipped is not None and generation > shipped:
            self._emit(
                "SHM001",
                f"frame {frame_id} (store {token}) re-registered at "
                f"generation {generation} while its generation "
                f"{shipped} handle is shipped in the open wave: the "
                f"source was mutated under an in-flight handle")

    def segment_created(self, name: str) -> None:
        self._known_segments.add(name)
        self._live_segments.add(name)

    def segment_released(self, name: str) -> None:
        if name in self._live_segments:
            self._live_segments.discard(name)
            return
        if "transport" not in self.domains:
            return
        if name in self._known_segments:
            self._emit(
                "SHM003",
                f"segment '{name}' released again after its live "
                f"registration was already released: refcount "
                f"underflow (double free)")

    def result_adopted(self, name: str, store_closed: bool) -> None:
        self._known_segments.add(name)
        self._live_segments.add(name)
        if "transport" not in self.domains:
            return
        if store_closed:
            self._emit(
                "SHM002",
                f"result segment '{name}' adopted after the plane "
                f"store closed: the adopted frame outlives the "
                f"store's teardown guarantees")

    # -- worker-cache residency --------------------------------------------

    def cache_attach(self, token: str, frame_id: int, generation: int,
                     cached_generation: Optional[int]) -> None:
        if "residency" not in self.domains:
            return
        key = (token, frame_id)
        newest = self._max_generation.get(key, -1)
        stale_vs = max(cached_generation
                       if cached_generation is not None else -1, newest)
        if generation < stale_vs:
            self._emit(
                "RES001",
                f"worker cache consulted for frame {frame_id} (store "
                f"{token}) with a generation {generation} handle after "
                f"generation {stale_vs} was seen: a stale handle can "
                f"serve mutated-away content")
        self._max_generation[key] = max(newest, generation)
        if (cached_generation is None
                and (token, frame_id, generation) in self._evicted):
            self._evicted.discard((token, frame_id, generation))
            self._emit(
                "RES002",
                f"frame {frame_id}@g{generation} (store {token}) "
                f"re-attached after eviction with its content "
                f"unchanged: cache capacity "
                f"{shm.worker_cache_capacity()} is below this "
                f"workload's reuse distance")

    def cache_evicted(self, token: str, frame_id: int,
                      generation: int) -> None:
        if "residency" not in self.domains:
            return
        self._evicted.add((token, frame_id, generation))

    # -- pool placement and failover ---------------------------------------

    def pool_wave(self, worker_id: int, calls: Sequence[Any],
                  results: Sequence[Any]) -> None:
        if "pool" not in self.domains:
            return
        for call in calls:
            for frame in getattr(call, "frames", ()):
                produced = self._producers.get(id(frame))
                if produced is None:
                    continue
                ref, producer_board = produced
                if ref() is not frame:
                    # id() reuse after the producer's frame died.
                    self._producers.pop(id(frame), None)
                    continue
                if producer_board != worker_id:
                    self._emit(
                        "POOL002",
                        f"board {worker_id} consumes a frame produced "
                        f"on board {producer_board}: placement split "
                        f"a producer/consumer pair, forcing a "
                        f"cross-board reship")
        for result in results:
            if not hasattr(result, "plane"):
                continue  # scalar results carry no residency
            self._producers[id(result)] = (weakref.ref(result),
                                           worker_id)

    def pool_requeued(self, original: Sequence[Any],
                      requeued: Sequence[Any]) -> None:
        if "pool" not in self.domains:
            return
        if [id(call) for call in original] != \
                [id(call) for call in requeued]:
            self._emit(
                "POOL001",
                f"failover requeue altered the wave (len "
                f"{len(original)} -> {len(requeued)}, or order "
                f"changed): replay must be verbatim, or RAW-dependent "
                f"calls can interleave into one dispatch")


# ---------------------------------------------------------------------------
# Process-wide installation
# ---------------------------------------------------------------------------

_ACTIVE: Optional[TransportSanitizer] = None


def active_sanitizer() -> Optional[TransportSanitizer]:
    return _ACTIVE


def install_sanitizer(domains: Sequence[str] = ("all",)
                      ) -> TransportSanitizer:
    """Install a fresh sanitizer as the process-wide observer."""
    global _ACTIVE
    sanitizer = TransportSanitizer(domains)
    _ACTIVE = sanitizer
    shm.set_transport_observer(sanitizer)
    return sanitizer


def ensure_sanitizer(domains: Sequence[str] = ("all",)
                     ) -> TransportSanitizer:
    """The active sanitizer, widened to cover ``domains``.

    Installs one if none is active; an already-active sanitizer keeps
    its findings and gains any missing domains (sanitizers compose by
    domain union, never by chaining observers).
    """
    sanitizer = _ACTIVE
    if sanitizer is None or shm.get_transport_observer() is not sanitizer:
        return install_sanitizer(domains)
    sanitizer.domains.update(normalize_domains(domains))
    return sanitizer


def uninstall_sanitizer() -> Optional[TransportSanitizer]:
    """Remove the active sanitizer; returns it (with its findings)."""
    global _ACTIVE
    sanitizer, _ACTIVE = _ACTIVE, None
    if sanitizer is not None \
            and shm.get_transport_observer() is sanitizer:
        shm.set_transport_observer(None)
    return sanitizer


# ---------------------------------------------------------------------------
# Seeded-bug selftests (one real bug per rule, caught live)
# ---------------------------------------------------------------------------

def _small_fmt() -> Any:
    from ..image.formats import ImageFormat
    return ImageFormat("SAN8x8", 8, 8)


def _with_observer(domains: Sequence[str],
                   scenario: Callable[[TransportSanitizer],
                                      Optional[bool]]
                   ) -> Optional[List[Diagnostic]]:
    """Run ``scenario`` under a fresh observer; restore the previous.

    The scenario returns ``True`` to signal "environment cannot run
    this" (no shared memory); the case then reports as skipped.
    """
    previous = shm.set_transport_observer(None)
    sanitizer = TransportSanitizer(domains)
    shm.set_transport_observer(sanitizer)
    try:
        if scenario(sanitizer):
            return None
        return sanitizer.drain()
    finally:
        shm.set_transport_observer(previous)


def _selftest_shm001() -> Optional[List[Diagnostic]]:
    """Mutate a source frame while its handle is shipped in a wave."""
    from ..image.pixel import ALL_CHANNELS
    from ..image.synth import noise_frame

    def scenario(sanitizer: TransportSanitizer) -> Optional[bool]:
        store = shm.PlaneStore()
        try:
            frame = noise_frame(_small_fmt(), seed=1)
            handle = store.register(frame)
            if handle is None:
                return True
            sanitizer.wave_opened()
            sanitizer.handle_shipped(handle)
            frame.plane(ALL_CHANNELS[0])[0, 0] ^= 0xFF
            store.register(frame)  # generation bump under the wave
            sanitizer.wave_closed()
            return None
        finally:
            store.close()

    return _with_observer(("transport",), scenario)


def _selftest_shm002() -> Optional[List[Diagnostic]]:
    """Adopt a worker-shipped result after the store closed."""
    from ..image.synth import noise_frame

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        store = shm.PlaneStore()
        result_handle = shm.ship_result(noise_frame(_small_fmt(),
                                                    seed=2))
        if result_handle is None:
            store.close()
            return True
        store.close()
        adopted = store.adopt_result(result_handle)
        del adopted  # the finalizer unlinks the segment
        return None

    return _with_observer(("transport",), scenario)


def _selftest_shm003() -> Optional[List[Diagnostic]]:
    """Release a registered segment twice (refcount underflow)."""
    from ..image.synth import noise_frame

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        store = shm.PlaneStore()
        try:
            frame = noise_frame(_small_fmt(), seed=3)
            handle = store.register(frame)
            if handle is None:
                return True
            entry = store._entries[id(frame)]
            shm._release_segment(entry.segment)  # legitimate release
            shm._release_segment(entry.segment)  # double free
            return None
        finally:
            store.close()

    return _with_observer(("transport",), scenario)


def _selftest_res001() -> Optional[List[Diagnostic]]:
    """Attach with a stale-generation handle after a content rewrite."""
    from ..image.pixel import ALL_CHANNELS
    from ..image.synth import noise_frame

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        if not shm.SHARED_MEMORY_AVAILABLE:
            return True
        shm.reset_worker_cache()
        store = shm.PlaneStore()
        try:
            frame = noise_frame(_small_fmt(), seed=4)
            stale = store.register(frame)
            if stale is None:
                return True
            shm.worker_attach(stale)
            frame.plane(ALL_CHANNELS[0])[0, 0] ^= 0xFF
            fresh = store.register(frame)
            assert fresh is not None and fresh.generation == 1
            shm.worker_attach(fresh)
            try:
                shm.worker_attach(stale)  # the seeded bug
            except Exception:
                pass  # the stale segment is already unlinked
            return None
        finally:
            shm.reset_worker_cache()
            store.close()

    return _with_observer(("residency",), scenario)


def _selftest_res002() -> Optional[List[Diagnostic]]:
    """Thrash a one-entry cache: evict, then re-attach unchanged."""
    from ..image.synth import noise_frame

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        if not shm.SHARED_MEMORY_AVAILABLE:
            return True
        shm.reset_worker_cache()
        previous_cap = shm.set_worker_cache_capacity(1)
        store = shm.PlaneStore()
        try:
            frame_a = noise_frame(_small_fmt(), seed=5)
            frame_b = noise_frame(_small_fmt(), seed=6)
            handle_a = store.register(frame_a)
            handle_b = store.register(frame_b)
            if handle_a is None or handle_b is None:
                return True
            shm.worker_attach(handle_a)
            shm.worker_attach(handle_b)  # evicts frame_a's entry
            shm.worker_attach(handle_a)  # re-ship of unchanged content
            return None
        finally:
            shm.set_worker_cache_capacity(previous_cap)
            shm.reset_worker_cache()
            store.close()

    return _with_observer(("residency",), scenario)


def _pool_fixture() -> Tuple[Any, Any]:
    """A 2-board pool plus a deterministic small intra call factory."""
    from ..addresslib.ops import INTRA_OPS
    from ..addresslib.library import BatchCall
    from ..image.synth import noise_frame
    from ..pool.pool import EnginePool

    op = INTRA_OPS[sorted(INTRA_OPS)[0]]

    def make_call(seed: int) -> Any:
        return BatchCall.intra(op, noise_frame(_small_fmt(), seed=seed))

    return EnginePool.of_engines(2), make_call


def _selftest_pool001() -> Optional[List[Diagnostic]]:
    """A buggy requeue override reorders a failed wave."""
    from ..core.errors import EngineDeadlock

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        pool, make_call = _pool_fixture()

        def reversed_requeue(calls: Sequence[Any]) -> List[Any]:
            return list(reversed(calls))  # the seeded bug

        pool._requeue = reversed_requeue  # type: ignore[method-assign]

        def boom(calls: Sequence[Any]) -> Any:
            raise EngineDeadlock("injected board failure")

        pool.workers[0].run_wave = boom  # type: ignore[method-assign]
        pool.dispatch([make_call(7), make_call(8)])
        return None

    return _with_observer(("pool",), scenario)


def _selftest_pool002() -> Optional[List[Diagnostic]]:
    """Round-robin placement splits a producer/consumer pair."""
    from ..addresslib.library import BatchCall
    from ..addresslib.ops import INTRA_OPS
    from ..pool.placement import RoundRobinPlacement

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        pool, make_call = _pool_fixture()
        pool.placement = RoundRobinPlacement()
        produced = pool.dispatch([make_call(9)])
        result = produced.results[0]
        op = INTRA_OPS[sorted(INTRA_OPS)[0]]
        assert not isinstance(result, int)
        pool.dispatch([BatchCall.intra(op, result)])
        return None

    return _with_observer(("pool",), scenario)


#: Rule id -> the seeded-bug scenario that must trigger it (``None``
#: result = environment cannot run the scenario, reported as skipped).
SANITIZE_SELFTESTS: Dict[str, Tuple[
        Callable[[], Optional[List[Diagnostic]]], str]] = {
    "shipped handle mutated mid-wave": (_selftest_shm001, "SHM001"),
    "result adopted after store close": (_selftest_shm002, "SHM002"),
    "segment double free": (_selftest_shm003, "SHM003"),
    "stale-generation cache attach": (_selftest_res001, "RES001"),
    "eviction horizon below reuse distance": (_selftest_res002,
                                              "RES002"),
    "failover requeue reorders wave": (_selftest_pool001, "POOL001"),
    "round-robin splits producer/consumer": (_selftest_pool002,
                                             "POOL002"),
}
