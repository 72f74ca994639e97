"""Offline batches through an engine pool: bit-exactness, determinism,
accounting.

A pool spreads a batch over its boards and may execute a board's share
in a worker process, in any completion order, but the results handed
back must be *indistinguishable* from serial execution: identical
frames, identical scalars, identical call records.  This harness drives
the same randomized corpus recipe as the fast-path equivalence suite
(seed family 0xFA57) through pooled and serial execution and compares
everything.
"""

import random

import pytest

from repro.addresslib import (AddressLib, BatchCall, INTER_ABSDIFF,
                              INTER_ADD, INTER_OPS, INTRA_BOX3, INTRA_GRAD,
                              INTRA_MEDIAN3, INTRA_OPS, INTRA_SOBEL_X,
                              INTRA_SOBEL_Y, SoftwareBackend, VectorExecutor,
                              dependency_edges, dependency_levels,
                              kernel_by_name, threshold_op, trace_program)
from repro.host import EngineBackend
from repro.image import ImageFormat, noise_frame
from repro.pool import EnginePool
from repro.pool.processes import WorkerProcesses, _op_token

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

SHARDS = 8
CASES_PER_SHARD = 26

QCIF = ImageFormat("QCIF", 176, 144)


@pytest.fixture(scope="module")
def pool():
    with EnginePool.of_engines(2) as engines:
        yield engines


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


class TestCorpusEquivalence:
    @pytest.mark.parametrize("shard", range(SHARDS))
    def test_scheduled_matches_serial_executor(self, shard, pool):
        rng = random.Random(0xFA57 + shard)
        calls = [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]
        lib = AddressLib(SoftwareBackend())
        results = lib.run_batch(calls, pool=pool)
        assert len(results) == len(calls)
        for call, got in zip(calls, results):
            _assert_same(got, _serial_reference(call))

    def test_deterministic_across_worker_counts(self):
        rng = random.Random(0xFA57)
        calls = [_random_batch_call(rng) for _ in range(12)]
        reference = None
        for boards in range(1, 5):
            with EnginePool.of_engines(boards) as pool:
                lib = AddressLib(SoftwareBackend())
                results = lib.run_batch(calls, pool=pool)
            if reference is None:
                reference = results
            else:
                for got, want in zip(results, reference):
                    _assert_same(got, want)


class TestRecordParity:
    def _calls(self):
        a = noise_frame(QCIF, seed=1)
        b = noise_frame(QCIF, seed=2)
        return [BatchCall.intra(INTRA_SOBEL_X, a),
                BatchCall.intra(INTRA_SOBEL_Y, a),
                BatchCall.inter(INTER_ADD, a, b),
                BatchCall.inter_reduce(INTER_ABSDIFF, a, b)]

    def test_software_records_identical(self, pool):
        serial = AddressLib(SoftwareBackend())
        batched = AddressLib(SoftwareBackend())
        serial_results = serial.run_batch(self._calls())
        batched_results = batched.run_batch(self._calls(),
                                            pool=pool)
        for got, want in zip(batched_results, serial_results):
            _assert_same(got, want)
        assert len(serial.log.records) == len(batched.log.records)
        for rs, rb in zip(serial.log.records, batched.log.records):
            assert rs.op_name == rb.op_name
            assert rs.mode == rb.mode
            assert rs.pixels == rb.pixels
            assert vars(rs.profile) == vars(rb.profile)

    def test_engine_pricing_identical(self, pool):
        serial = AddressLib(EngineBackend())
        batched = AddressLib(EngineBackend())
        serial_results = serial.run_batch(self._calls())
        batched_results = batched.run_batch(self._calls(),
                                            pool=pool)
        for got, want in zip(batched_results, serial_results):
            _assert_same(got, want)
        for rs, rb in zip(serial.log.records, batched.log.records):
            assert rs.op_name == rb.op_name
            assert rs.extra["call_seconds"] == pytest.approx(
                rb.extra["call_seconds"], abs=0.0)
            assert rs.extra["board_seconds"] == pytest.approx(
                rb.extra["board_seconds"], abs=0.0)
            assert rs.extra["pci_words"] == rb.extra["pci_words"]
        assert (serial.backend.driver.calls_submitted
                == batched.backend.driver.calls_submitted)
        assert (serial.backend.driver.interrupts_serviced
                == batched.backend.driver.interrupts_serviced)

    def test_parallel_wave_invalidates_residency(self, pool):
        backend = EngineBackend(chain_frames=True)
        lib = AddressLib(backend)
        frame = noise_frame(QCIF, seed=3)
        lib.intra(INTRA_BOX3, frame)
        assert backend.residency.held_frames > 0
        lib.run_batch([BatchCall.intra(INTRA_SOBEL_X, frame),
                       BatchCall.intra(INTRA_SOBEL_Y, frame)],
                      pool=pool)
        # The wave dropped the cached bank state, and batched records
        # never claim residency.
        batch_records = lib.log.records[-2:]
        assert all(r.extra["resident_inputs"] == 0.0
                   for r in batch_records)

    def test_single_call_batch_stays_serial(self, pool):
        lib = AddressLib(SoftwareBackend())
        frame = noise_frame(QCIF, seed=4)
        before = pool.report().calls_routed
        results = lib.run_batch([BatchCall.intra(INTRA_BOX3, frame)],
                                pool=pool)
        assert results[0].equals(VectorExecutor.intra(INTRA_BOX3, frame))
        # One call has nothing to overlap with: the pool is not involved.
        assert pool.report().calls_routed == before


class TestOpShipping:
    def test_registry_ops_ship_to_workers(self, pool):
        frame = noise_frame(QCIF, seed=5)
        assert _op_token(
            BatchCall.intra(INTRA_BOX3, frame)) == "intra_box3"
        kernel = kernel_by_name("gaussian3")
        assert _op_token(
            BatchCall.intra(kernel, frame)) == "kernel_gaussian3"

    def test_parameterized_op_runs_inline(self, pool):
        # threshold_op builds a fresh op: no registry identity, so the
        # pool must not ship it by name.
        frame = noise_frame(QCIF, seed=6)
        call = BatchCall.intra(threshold_op(100), frame)
        assert _op_token(call) is None
        before = pool.report().transport.inline_calls
        lib = AddressLib(SoftwareBackend())
        results = lib.run_batch(
            [call, BatchCall.intra(INTRA_BOX3, frame)],
            pool=pool)
        assert pool.report().transport.inline_calls > before
        assert results[0].equals(
            VectorExecutor.intra(call.op, frame))

    def test_impostor_op_with_registry_name_runs_inline(self):
        # A custom op that *claims* a registry name must execute its own
        # code, never the registry's.
        import dataclasses
        impostor = dataclasses.replace(threshold_op(9), name="intra_box3")
        frame = noise_frame(QCIF, seed=7)
        call = BatchCall.intra(impostor, frame)
        assert _op_token(call) is None


class TestProgramExecution:
    def _program_and_reference(self):
        src = noise_frame(QCIF, seed=8)

        def body(lib, frame):
            gx = lib.intra(INTRA_SOBEL_X, frame)
            gy = lib.intra(INTRA_SOBEL_Y, frame)
            mag = lib.inter(INTER_ADD, gx, gy)
            smooth = lib.intra(INTRA_BOX3, mag)
            lib.inter_reduce(INTER_ABSDIFF, smooth, frame)
            return smooth

        program = trace_program("edge_energy", body, src)
        gx = VectorExecutor.intra(INTRA_SOBEL_X, src)
        gy = VectorExecutor.intra(INTRA_SOBEL_Y, src)
        mag = VectorExecutor.inter(INTER_ADD, gx, gy)
        smooth = VectorExecutor.intra(INTRA_BOX3, mag)
        sad = VectorExecutor.inter_reduce(INTER_ABSDIFF, smooth, src)
        return program, src, smooth, sad

    def test_dependency_structure(self):
        program, _, _, _ = self._program_and_reference()
        assert dependency_edges(program) == [(0, 2), (1, 2), (2, 3),
                                             (3, 4)]
        assert dependency_levels(program) == [[0, 1], [2], [3], [4]]

    def test_run_program_bit_exact(self, pool):
        program, src, smooth, sad = self._program_and_reference()
        outcome = pool.run_program(program, [src])
        assert outcome.results(program)[0].equals(smooth)
        assert outcome.scalars == {4: sad}

    def test_run_program_rejects_wrong_arity(self, pool):
        program, src, _, _ = self._program_and_reference()
        with pytest.raises(ValueError):
            pool.run_program(program, [src, src])


def _serial_seconds(pool, calls):
    """The batch's modeled time on one engine, no overlap (sum model)."""
    total = 0.0
    for call in calls:
        total += pool.workers[0].price(call)[0]
    return total


class TestModeledTiming:
    def test_modeled_pipelined_never_exceeds_serial(self):
        rng = random.Random(0xFA57 + 99)
        calls = [_random_batch_call(rng) for _ in range(16)]
        lib = AddressLib(SoftwareBackend())
        with EnginePool.of_engines(2) as pool:
            lib.run_batch(calls, pool=pool)
            # A fresh pool's board clocks hold exactly this batch's
            # shares: the largest one is the modeled makespan.
            makespan = max(w.busy_until for w in pool.workers)
            assert makespan == max(load for _, _, load
                                   in pool.spread(calls))
            assert makespan <= _serial_seconds(pool, calls) + 1e-12
        assert pool.report().calls_routed == len(calls)

    def test_many_workers_shrink_makespan(self):
        frame = noise_frame(QCIF, seed=9)
        calls = [BatchCall.intra(INTRA_BOX3, frame) for _ in range(16)]
        makespans = []
        for boards in (1, 4):
            pool = EnginePool.of_engines(boards)
            shares = pool.spread(calls)
            assert sorted(i for _, indices, _ in shares
                          for i in indices) == list(range(len(calls)))
            for worker, indices, load in shares:
                assert load == pytest.approx(worker.wave_cost_seconds(
                    [calls[i] for i in indices]), rel=1e-12)
            makespan = max(load for _, _, load in shares)
            makespans.append(makespan)
            assert makespan <= _serial_seconds(pool, calls) + 1e-12
        assert makespans[1] < makespans[0] / 3.0


class TestInlineFallback:
    def test_broken_pool_still_returns_exact_results(self):
        pool = EnginePool.of_engines(2)
        pool._processes._broken = True  # simulate dead worker processes
        frame = noise_frame(QCIF, seed=10)
        lib = AddressLib(SoftwareBackend())
        results = lib.run_batch(
            [BatchCall.intra(INTRA_BOX3, frame),
             BatchCall.intra(INTRA_GRAD, frame),
             BatchCall.intra(INTRA_MEDIAN3, frame)],
            pool=pool)
        assert results[0].equals(VectorExecutor.intra(INTRA_BOX3, frame))
        assert results[1].equals(VectorExecutor.intra(INTRA_GRAD, frame))
        assert results[2].equals(
            VectorExecutor.intra(INTRA_MEDIAN3, frame))
        books = pool.report().transport
        assert books.pool_calls == 0
        assert books.inline_calls == 3


class TestTransportPlanning:
    def _calls(self, frame):
        return [BatchCall.intra(INTRA_BOX3, frame),
                BatchCall.intra(INTRA_GRAD, frame),
                BatchCall.intra(INTRA_MEDIAN3, frame)]

    def test_report_carries_phase_breakdown(self, monkeypatch):
        monkeypatch.setattr(WorkerProcesses, "_bypass",
                            lambda self, call, amortized: True)
        frame = noise_frame(QCIF, seed=40)
        with EnginePool.of_engines(2) as pool:
            lib = AddressLib(SoftwareBackend())
            lib.run_batch(self._calls(frame), pool=pool)
            report = pool.report()
        books = report.transport
        assert books.ship_seconds >= 0.0
        assert books.compute_seconds > 0.0
        assert books.gather_seconds >= 0.0
        assert books.bypass_calls == 3
        assert books.pool_calls == 0
        payload = report.to_dict()["transport"]
        for key in ("ship_seconds", "compute_seconds", "gather_seconds",
                    "bypass_calls", "shm_calls", "pickle_calls",
                    "round_trips"):
            assert key in payload

    def test_single_cpu_host_bypasses_without_spawning(self, monkeypatch):
        monkeypatch.setattr("repro.pool.processes.usable_cpus",
                            lambda: 1)
        frame = noise_frame(QCIF, seed=41)
        with EnginePool.of_engines(4) as pool:
            lib = AddressLib(SoftwareBackend())
            results = lib.run_batch(self._calls(frame), pool=pool)
            # Every call stayed inline and no worker process ever started.
            books = pool.report().transport
            assert books.bypass_calls == 3
            assert books.pool_calls == 0
            assert books.round_trips == 0
            assert pool._processes._resources.executor is None
        assert results[0].equals(VectorExecutor.intra(INTRA_BOX3, frame))

    def test_affinity_not_cpu_count_bounds_the_processes(self,
                                                         monkeypatch):
        # One usable CPU on an eight-CPU host: shipping cannot overlap
        # anything, so every call bypasses and no process starts.
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        frame = noise_frame(QCIF, seed=43)
        with EnginePool.of_engines(4) as pool:
            results = AddressLib(SoftwareBackend()).run_batch(
                self._calls(frame), pool=pool)
            books = pool.report().transport
            assert books.bypass_calls == 3
            assert books.round_trips == 0
            assert pool._processes._resources.executor is None
        assert results[1].equals(VectorExecutor.intra(INTRA_GRAD, frame))

    def test_transport_stats_shape(self):
        with EnginePool.of_engines(2) as pool:
            books = pool.report().to_dict()["transport"]
        assert set(books) == {
            "pool_calls", "inline_calls", "bypass_calls", "shm_calls",
            "pickle_calls", "round_trips", "ship_seconds",
            "compute_seconds", "gather_seconds", "worker_cache_hits",
            "worker_cache_attaches"}


class TestOfflineThenServing:
    def test_offline_batch_then_dispatch_starts_no_process(
            self, monkeypatch):
        frame = noise_frame(QCIF, seed=44)
        calls = self._calls(frame)
        with EnginePool.of_engines(2) as pool:
            offline = AddressLib(SoftwareBackend()).run_batch(calls,
                                                              pool=pool)
            before = pool.report().transport

            def no_process(self):
                raise AssertionError("dispatch touched worker processes")

            monkeypatch.setattr(WorkerProcesses, "_executor", no_process)
            served = pool.dispatch(calls)
            assert pool.report().transport == before
        for got, want in zip(served.results, offline):
            assert got.equals(want)

    _calls = TestTransportPlanning._calls
