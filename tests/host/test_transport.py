"""Zero-copy transport: plane store, worker cache, and fallbacks.

An engine pool must hand back *indistinguishable* results whichever
way the bytes travelled to its worker processes: shared-memory handles,
whole-frame pickles, the cost-model inline bypass, or the inline
fallback after a worker death.  This harness drives the 0xFA57 corpus
recipe through every transport and pool size and pins down the segment
lifecycle -- registration dedupe, generation bumps on mutation, weakref
release, and leak-free teardown.  Tests that need a transport replace
the decision, never a knob: they patch the bypass method or switch
shared memory off.
"""

import gc
import random

import pytest

from repro.addresslib import (AddressLib, BatchCall, INTER_OPS, INTRA_BOX3,
                              INTRA_GRAD, INTRA_OPS, SoftwareBackend,
                              VectorExecutor)
from repro.host import SHARED_MEMORY_AVAILABLE
from repro.host import shm
from repro.image import ImageFormat, noise_frame
from repro.pool import EnginePool
from repro.pool.processes import WorkerProcesses

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

SHARDS = 8
CASES_PER_SHARD = 26

QCIF = ImageFormat("QCIF", 176, 144)

needs_shm = pytest.mark.skipif(not SHARED_MEMORY_AVAILABLE,
                               reason="no multiprocessing.shared_memory")


def _random_batch_call(rng):
    """One corpus case as a batch call (the 0xFA57 recipe's geometry)."""
    width = rng.randrange(4, 25)
    height = rng.choice([8, 16, 24, 32, 33, 40, 48])
    fmt = ImageFormat(f"P{width}x{height}", width, height)
    frame_a = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.5:
        return BatchCall.intra(rng.choice(_INTRA), frame_a)
    frame_b = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.3:
        return BatchCall.inter_reduce(rng.choice(_INTER), frame_a,
                                      frame_b)
    return BatchCall.inter(rng.choice(_INTER), frame_a, frame_b)


def _serial_reference(call):
    if call.reduce_to_scalar:
        return VectorExecutor.inter_reduce(call.op, call.frames[0],
                                           call.frames[1], call.channels)
    if len(call.frames) == 2:
        return VectorExecutor.inter(call.op, call.frames[0],
                                    call.frames[1], call.channels)
    return VectorExecutor.intra(call.op, call.frames[0], call.channels)


def _assert_same(got, want):
    if isinstance(want, int):
        assert got == want
    else:
        assert got.equals(want)


@pytest.fixture
def force_shipping(monkeypatch):
    """Every shippable call goes to a worker process, even on one CPU."""
    monkeypatch.setattr(WorkerProcesses, "_bypass",
                        lambda self, call, amortized: False)


@pytest.fixture
def force_bypass(monkeypatch):
    """Every shippable call stays inline in the parent."""
    monkeypatch.setattr(WorkerProcesses, "_bypass",
                        lambda self, call, amortized: True)


# ---------------------------------------------------------------------------
# Parent-side plane store
# ---------------------------------------------------------------------------

@needs_shm
class TestPlaneStore:
    def test_register_dedupes_unchanged_frame(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=3)
        try:
            first = store.register(frame)
            second = store.register(frame)
            assert first is second
            assert first.generation == 0
            assert store.segments_created == 1
            assert store.segments_active == 1
        finally:
            store.close()

    def test_mutation_bumps_generation_into_fresh_segment(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=4)
        try:
            first = store.register(frame)
            frame.y[:] ^= 1
            second = store.register(frame)
            assert second.frame_id == first.frame_id
            assert second.generation == first.generation + 1
            assert second.segment_name != first.segment_name
            assert store.generation_bumps == 1
            assert store.segments_created == 2
            assert store.segments_active == 1
            # The stale segment's name is gone.
            with pytest.raises(Exception):
                shm._attach_segment(first.segment_name)
        finally:
            store.close()

    def test_frame_gc_releases_segment(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=5)
        try:
            handle = store.register(frame)
            assert store.segments_active == 1
            del frame
            gc.collect()
            assert store.segments_active == 0
            with pytest.raises(Exception):
                shm._attach_segment(handle.segment_name)
        finally:
            store.close()

    def test_close_releases_everything_and_is_idempotent(self):
        store = shm.PlaneStore()
        frames = [noise_frame(QCIF, seed=s) for s in (6, 7)]
        handles = [store.register(f) for f in frames]
        store.close()
        store.close()
        assert store.segments_active == 0
        for handle in handles:
            with pytest.raises(Exception):
                shm._attach_segment(handle.segment_name)
        # A closed store declines new registrations.
        assert store.register(frames[0]) is None

    def test_broken_store_answers_none(self):
        store = shm.PlaneStore()
        store.broken = True
        assert store.register(noise_frame(QCIF, seed=8)) is None


# ---------------------------------------------------------------------------
# Worker-resident cache (exercised in-process)
# ---------------------------------------------------------------------------

@needs_shm
class TestWorkerCache:
    def teardown_method(self):
        shm.reset_worker_cache()

    def test_attach_caches_and_hits(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=9)
        try:
            handle = store.register(frame)
            first, hit_first = shm.worker_attach(handle)
            again, hit_again = shm.worker_attach(handle)
            assert not hit_first and hit_again
            assert again is first
            assert first.equals(frame)
            assert shm.worker_cache_size() == 1
        finally:
            store.close()

    def test_generation_bump_invalidates_cached_mapping(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=10)
        try:
            old = store.register(frame)
            cached, _ = shm.worker_attach(old)
            before = cached.y.copy()
            frame.y[:] ^= 3
            new = store.register(frame)
            assert new.generation == old.generation + 1
            fresh, hit = shm.worker_attach(new)
            assert not hit
            assert fresh is not cached
            assert fresh.equals(frame)
            # The stale view still reads the *old* content: its mapping
            # survives the unlink until the last view drops.
            assert (cached.y == before).all()
        finally:
            store.close()

    def test_tokens_isolate_stores(self):
        store_a, store_b = shm.PlaneStore(), shm.PlaneStore()
        frame = noise_frame(QCIF, seed=11)
        try:
            handle_a = store_a.register(frame)
            handle_b = store_b.register(frame)
            _, hit_a = shm.worker_attach(handle_a)
            _, hit_b = shm.worker_attach(handle_b)
            assert not hit_a and not hit_b
            assert shm.worker_cache_size() == 2
        finally:
            store_a.close()
            store_b.close()

    def test_reset_clears_cache(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=12)  # held: GC would drop the segment
        try:
            handle = store.register(frame)
            shm.worker_attach(handle)
            shm.reset_worker_cache()
            assert shm.worker_cache_size() == 0
            _, hit = shm.worker_attach(handle)
            assert not hit
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Corpus bit-exactness under every transport mode
# ---------------------------------------------------------------------------

def _corpus_shard(shard):
    rng = random.Random(0xFA57 + shard)
    return [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]


def _run_corpus(pool):
    lib = AddressLib(SoftwareBackend())
    for shard in range(SHARDS):
        calls = _corpus_shard(shard)
        results = lib.run_batch(calls, pool=pool)
        assert len(results) == len(calls)
        for call, got in zip(calls, results):
            _assert_same(got, _serial_reference(call))


class TestCorpusAcrossTransports:
    @needs_shm
    def test_shared_memory_transport(self, force_shipping):
        with EnginePool.of_engines(2) as pool:
            _run_corpus(pool)
            books = pool.report().transport
        assert books.pool_calls > 0
        assert books.shm_calls == books.pool_calls
        assert books.pickle_calls == 0

    def test_pickle_transport(self, force_shipping, monkeypatch):
        monkeypatch.setattr(shm, "SHARED_MEMORY_AVAILABLE", False)
        with EnginePool.of_engines(2) as pool:
            _run_corpus(pool)
            books = pool.report().transport
        assert books.pool_calls > 0
        assert books.pickle_calls == books.pool_calls
        assert books.shm_calls == 0

    def test_inline_bypass(self, force_bypass):
        with EnginePool.of_engines(2) as pool:
            _run_corpus(pool)
            books = pool.report().transport
        assert books.pool_calls == 0
        assert books.bypass_calls > 0


class TestCorpusAcrossPoolSizes:
    """The 208-case corpus through pools of one to four boards, each
    inline and process-shipped (forced, so a one-CPU host runs both)."""

    @pytest.mark.parametrize("boards", [1, 2, 3, 4])
    def test_inline(self, boards, force_bypass):
        with EnginePool.of_engines(boards) as pool:
            _run_corpus(pool)
            books = pool.report().transport
        assert books.pool_calls == 0
        assert books.bypass_calls == SHARDS * CASES_PER_SHARD

    @pytest.mark.parametrize("boards", [1, 2, 3, 4])
    def test_process_shipped(self, boards, force_shipping):
        with EnginePool.of_engines(boards) as pool:
            _run_corpus(pool)
            books = pool.report().transport
            calls_routed = pool.report().calls_routed
        assert books.pool_calls == SHARDS * CASES_PER_SHARD
        # One round trip per board share per wave.
        assert books.round_trips == SHARDS * min(boards, CASES_PER_SHARD)
        assert calls_routed == SHARDS * CASES_PER_SHARD


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------

@needs_shm
class TestWorkerDeath:
    def test_dead_workers_fall_back_inline_without_leaks(
            self, force_shipping):
        frame_a = noise_frame(QCIF, seed=20)
        frame_b = noise_frame(QCIF, seed=21)
        calls = [BatchCall.intra(INTRA_BOX3, frame_a),
                 BatchCall.intra(INTRA_GRAD, frame_b)]
        lib = AddressLib(SoftwareBackend())
        pool = EnginePool.of_engines(2)
        try:
            # One healthy wave to start the workers and map segments.
            lib.run_batch(calls, pool=pool)
            assert pool.report().transport.pool_calls == 2
            resources = pool._processes._resources
            store = resources.store
            assert store is not None
            names = store.active_segment_names()
            assert names
            # Kill every worker process out from under the pool.
            executor = resources.executor
            for process in executor._processes.values():
                process.terminate()
            for process in executor._processes.values():
                process.join()
            results = lib.run_batch(calls, pool=pool)
            assert pool._processes._broken
            books = pool.report().transport
            assert books.inline_calls == 2
            assert books.pool_calls == 2
            assert results[0].equals(
                VectorExecutor.intra(INTRA_BOX3, frame_a))
            assert results[1].equals(
                VectorExecutor.intra(INTRA_GRAD, frame_b))
        finally:
            pool.close()
        # Teardown left no named segments behind.
        for name in names:
            with pytest.raises(Exception):
                shm._attach_segment(name)

    def test_generation_bump_reaches_real_workers(self, force_shipping):
        frame = noise_frame(QCIF, seed=22)
        calls = [BatchCall.intra(INTRA_BOX3, frame),
                 BatchCall.intra(INTRA_GRAD, frame)]
        lib = AddressLib(SoftwareBackend())
        with EnginePool.of_engines(2) as pool:
            lib.run_batch(calls, pool=pool)
            frame.y[:] ^= 5
            results = lib.run_batch(calls, pool=pool)
            assert pool._processes._resources.store.generation_bumps >= 1
        assert results[0].equals(VectorExecutor.intra(INTRA_BOX3, frame))
        assert results[1].equals(VectorExecutor.intra(INTRA_GRAD, frame))


@needs_shm
class TestTeardown:
    def test_abandoned_scheduler_releases_segments(self, force_shipping):
        frame_a = noise_frame(QCIF, seed=23)
        frame_b = noise_frame(QCIF, seed=24)
        lib = AddressLib(SoftwareBackend())
        pool = EnginePool.of_engines(2)
        lib.run_batch([BatchCall.intra(INTRA_BOX3, frame_a),
                       BatchCall.intra(INTRA_GRAD, frame_b)],
                      pool=pool)
        store = pool._processes._resources.store
        names = store.active_segment_names()
        assert names
        del pool
        gc.collect()
        assert store.closed
        for name in names:
            with pytest.raises(Exception):
                shm._attach_segment(name)

    def test_close_is_reentrant(self):
        pool = EnginePool.of_engines(2)
        pool.close()
        pool.close()
        assert pool.compute_batch([]) == []
