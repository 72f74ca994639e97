"""Transport and pool books vs the shared report schema.

The pool's offline transport books (``PoolReport.transport``) and the
``WorkerReport``/``PoolReport`` books are the figures the BENCH
emitters and ``repro.summary`` read; this suite pins the transport
counter keys and the ``base_report_dict`` schema contract -- including
the degenerate books nobody exercises by hand: a pool that never ran an
offline batch, and one that only ever bypassed inline.
"""

from repro.addresslib import BatchCall, INTRA_GRAD
from repro.image import ImageFormat, noise_frame
from repro.perf import REPORT_SCHEMA_KEYS, base_report_dict
from repro.pool import EnginePool, PoolReport
from repro.pool.processes import WorkerProcesses
from repro.pool.worker import WorkerReport

QCIF = ImageFormat("QCIF", 176, 144)

#: The counter keys of ``PoolReport.to_dict()["transport"]`` that must
#: be ints.
TRANSPORT_COUNTER_KEYS = (
    "round_trips", "pool_calls", "inline_calls", "bypass_calls",
    "shm_calls", "pickle_calls", "worker_cache_hits",
    "worker_cache_attaches")


def _assert_schema(payload):
    for key in REPORT_SCHEMA_KEYS:
        assert key in payload, f"missing shared schema key {key!r}"
    assert isinstance(payload["calls"], int)
    assert isinstance(payload["cycles"], float)
    assert isinstance(payload["cache"], dict)
    assert isinstance(payload["shed"], int)


class TestSchedulerTransportStats:
    def test_zero_completion_books(self):
        with EnginePool.of_engines(2) as pool:
            books = pool.report().to_dict()["transport"]
        for key in TRANSPORT_COUNTER_KEYS:
            assert books[key] == 0
        for key in ("ship_seconds", "compute_seconds", "gather_seconds"):
            assert books[key] == 0.0

    def test_bypass_only_books(self, monkeypatch):
        monkeypatch.setattr(WorkerProcesses, "_bypass",
                            lambda self, call, amortized: True)
        calls = [BatchCall.intra(INTRA_GRAD, noise_frame(QCIF, seed=i))
                 for i in range(3)]
        with EnginePool.of_engines(2) as pool:
            pool.compute_batch(calls)
            books = pool.report().to_dict()["transport"]
        assert books["bypass_calls"] == len(calls)
        assert books["pool_calls"] == 0
        assert books["shm_calls"] == 0
        assert books["pickle_calls"] == 0
        assert books["round_trips"] == 0
        assert books["worker_cache_hits"] == 0

    def test_counters_are_ints(self):
        with EnginePool.of_engines(1) as pool:
            books = pool.report().to_dict()["transport"]
            for key in TRANSPORT_COUNTER_KEYS:
                assert isinstance(books[key], int), key


class TestWorkerReportBooks:
    def test_zero_completion_schema(self):
        payload = WorkerReport(worker_id=0).to_dict(clock_hz=33e6)
        _assert_schema(payload)
        assert payload["kind"] == "pool_worker"
        assert payload["calls"] == 0
        assert payload["cycles"] == 0.0
        assert payload["cache"] == {}
        assert payload["residency_hit_rate"] is None


class TestPoolReportBooks:
    def test_zero_completion_schema(self):
        payload = PoolReport(placement="affinity").to_dict()
        _assert_schema(payload)
        assert payload["kind"] == "pool"
        assert payload["calls"] == 0
        assert payload["workers"] == []

    def test_live_pool_report_conforms(self):
        calls = [BatchCall.intra(INTRA_GRAD, noise_frame(QCIF, seed=i))
                 for i in range(4)]
        pool = EnginePool.of_engines(2)
        pool.dispatch(calls)
        report = pool.report()
        payload = report.to_dict()
        _assert_schema(payload)
        assert payload["calls"] == len(calls)
        workers = payload["workers"]
        assert len(workers) == 2
        for worker_payload in workers:
            _assert_schema(worker_payload)
            assert worker_payload["kind"] == "pool_worker"


class TestSchemaContract:
    def test_base_report_dict_normalises_types(self):
        payload = base_report_dict("x", calls=3, cycles=7,
                                   cache=None, transport={"a": 1})
        _assert_schema(payload)
        assert payload["cycles"] == 7.0
        assert payload["transport"] == {"a": 1}
