"""Per-layer boundaries of the traced run, and the per-layer metrics.

``BOUNDARIES`` lists the public functions the traced run wraps, one
span name each.  A span name is ``<layer>.<component>[.<method>]``; the
layer is a ``src/repro`` package (``load``, ``aio``, ``service``,
``pool``, ``host``, ``addresslib``, ``image``, ``gme``, ``core``).
``analysis`` and ``segmentation`` are on no measured path.

``PER_LAYER`` names every per-layer metric with its unit, which
direction is better, and the end-to-end metric (and workload) it is
expected to move.  The traced
run is single-threaded and nothing else contends for the CPU, so a
layer can save at most its self-time share of the blocking path.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from tracer import Span, Tracer, self_times, unattributed

LAYERS = ("load", "aio", "service", "pool", "host", "addresslib", "image",
          "gme", "core")

#: (span name, module, attribute path).  Coroutine functions get the
#: pausing wrapper (``Tracer.wrap_async``).
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("load.materialize.call", "repro.load.trace", "CallFactory.call"),
    ("load.materialize.options", "repro.load.trace", "CallFactory.options"),
    ("load.account", "repro.load.report", "LoadReport.account"),
    ("aio.submit", "repro.aio.client", "AsyncEngineClient.submit"),
    ("aio.drain", "repro.aio.client", "AsyncEngineClient.drain"),
    ("aio.release", "repro.aio.client", "AsyncEngineClient.release"),
    ("service.submit", "repro.service.engine_service",
     "EngineService.submit"),
    ("service.step", "repro.service.engine_service", "EngineService.step"),
    ("service.run_until", "repro.service.engine_service",
     "EngineService.run_until"),
    ("service.drain", "repro.service.engine_service",
     "EngineService.drain"),
    ("service.release", "repro.service.engine_service",
     "EngineService.release"),
    ("service.admission.observe", "repro.service.admission",
     "AdmissionController.observe"),
    ("service.admission.price", "repro.service.admission",
     "AdmissionController.price"),
    ("service.admission.admit", "repro.service.admission",
     "AdmissionController.admit"),
    ("service.queue.offer", "repro.service.queue", "RequestQueue.offer"),
    ("service.queue.pop_next", "repro.service.queue",
     "RequestQueue.pop_next"),
    ("service.queue.pop_compatible", "repro.service.queue",
     "RequestQueue.pop_compatible"),
    ("service.batcher", "repro.service.batcher", "MicroBatcher.form_wave"),
    ("pool.place", "repro.pool.pool", "EnginePool.place"),
    ("pool.dispatch", "repro.pool.pool", "EnginePool.dispatch"),
    ("pool.wave_cost", "repro.pool.worker",
     "EngineWorker.wave_cost_seconds"),
    ("pool.price", "repro.pool.worker", "EngineWorker.price"),
    ("pool.run_wave", "repro.pool.worker", "EngineWorker.run_wave"),
    ("addresslib.lib.run_batch", "repro.addresslib.library",
     "AddressLib.run_batch"),
    ("addresslib.lib.intra", "repro.addresslib.library", "AddressLib.intra"),
    ("addresslib.lib.inter", "repro.addresslib.library", "AddressLib.inter"),
    ("addresslib.lib.inter_reduce", "repro.addresslib.library",
     "AddressLib.inter_reduce"),
    ("addresslib.software.intra", "repro.addresslib.library",
     "SoftwareBackend.intra"),
    ("addresslib.software.inter", "repro.addresslib.library",
     "SoftwareBackend.inter"),
    ("addresslib.software.inter_reduce", "repro.addresslib.library",
     "SoftwareBackend.inter_reduce"),
    ("addresslib.software_record", "repro.addresslib.library",
     "SoftwareBackend.intra_record"),
    ("addresslib.software_record", "repro.addresslib.library",
     "SoftwareBackend.inter_record"),
    ("addresslib.executor.intra", "repro.addresslib.executor",
     "VectorExecutor.intra"),
    ("addresslib.executor.inter", "repro.addresslib.executor",
     "VectorExecutor.inter"),
    ("addresslib.executor.inter", "repro.addresslib.executor",
     "VectorExecutor.inter_reduce"),
    ("host.backend.intra", "repro.host.backend", "EngineBackend.intra"),
    ("host.backend.inter", "repro.host.backend", "EngineBackend.inter"),
    ("host.backend.inter_reduce", "repro.host.backend",
     "EngineBackend.inter_reduce"),
    ("host.driver", "repro.host.driver", "AddressEngineDriver.submit"),
    ("host.residency", "repro.host.driver", "FrameResidencyCache.plan"),
    ("host.residency", "repro.host.driver",
     "FrameResidencyCache.record_call"),
    ("image.copy", "repro.image.frame", "Frame.copy"),
    ("core.functional", "repro.core.engine", "AddressEngine.run_functional"),
    ("core.run_call", "repro.core.engine", "AddressEngine.run_call"),
    # The benchmark calls the package's re-export, so that is where the
    # Table 3 entry point is wrapped.
    ("gme.evaluate", "repro.gme", "evaluate_sequence_dual"),
    ("gme.app", "repro.gme.xm", "GmeApplication.run_sequence"),
    ("gme.sequence", "repro.gme.sequences", "SyntheticSequence.__init__"),
    ("gme.input", "repro.gme.sequences", "SyntheticSequence.frame"),
    ("gme.pyramid", "repro.gme.estimation",
     "GlobalMotionEstimator.build_pyramid"),
    ("gme.estimate", "repro.gme.estimation",
     "GlobalMotionEstimator.estimate_pair"),
    # Wrapped where the estimator looks it up, so the sequence renderer's
    # own warp stays inside gme.input.
    ("gme.warp", "repro.gme.estimation", "warp_luma"),
)

#: name -> (unit, better, what it should move).  The arrow target is
#: the end-to-end figure by the name the workload prints it under (see
#: ``run.py`` for how those map onto BENCHMARK.json's generic metrics),
#: and the workload(s) it should move on.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "load.materialize_us_per_req": (
        "us", "lower", "replay_rps on serve_*"),
    "aio.submit_us_per_req": (
        "us", "lower", "replay_rps, wall_latency_p50_ms on serve_steady; "
        "zero on serve_overload"),
    "aio.backpressure_waits": (
        "count", "lower", "wall_latency_p99_ms on serve_steady"),
    "service.submit_us_per_req": ("us", "lower", "replay_rps on serve_*"),
    "service.submit_reject_path_share": (
        "ratio", "lower", "replay_rps on serve_overload"),
    "service.admission_us_per_req": (
        "us", "lower", "replay_rps on serve_steady"),
    "service.price_calls_per_req": (
        "count", "lower",
        "replay_rps on serve_steady; barely serve_overload"),
    "service.queue_us_per_req": (
        "us", "lower", "replay_rps on serve_overload"),
    "service.batcher_us_per_wave": (
        "us", "lower", "replay_rps on serve_overload"),
    "service.requests_per_wave": (
        "count", "higher", "modeled_p99_ms on serve_overload, "
        "modeled_p50_ms on serve_steady"),
    "service.reject_share": (
        "ratio", "lower",
        "goodput_ratio, victim_goodput_ratio on serve_overload"),
    "service.timeout_share": (
        "ratio", "lower",
        "goodput_ratio, victim_goodput_ratio on serve_overload"),
    "pool.place_us_per_wave": ("us", "lower", "replay_rps on serve_steady"),
    "pool.dispatch_self_us_per_wave": (
        "us", "lower", "replay_rps on serve_steady"),
    "pool.wave_cost_us_per_wave": (
        "us", "lower", "replay_rps on serve_steady"),
    "pool.residency_hit_ratio": (
        "ratio", "higher", "modeled_p50_ms on serve_steady"),
    "pool.utilization_spread": (
        "ratio", "lower", "modeled_p99_ms on serve_overload"),
    "host.driver_us_per_call": ("us", "lower", "replay_rps on serve_steady"),
    "host.residency_us_per_call": (
        "us", "lower", "replay_rps on serve_steady"),
    "addresslib.executor_us_per_call": (
        "us", "lower", "replay_rps on serve_overload, gme_pairs_per_s on "
        "gme_offline; less on serve_steady"),
    "addresslib.intra_us_per_call": (
        "us", "lower", "replay_rps on serve_overload, gme_pairs_per_s"),
    "addresslib.inter_us_per_call": (
        "us", "lower", "replay_rps on serve_overload, gme_pairs_per_s"),
    "addresslib.executor_mpix_per_s": (
        "Mpix/s", "higher", "replay_rps on serve_overload, gme_pairs_per_s"),
    "addresslib.software_record_us_per_call": (
        "us", "lower", "gme_pairs_per_s on gme_offline"),
    "image.frame_copies_per_req": (
        "count", "lower", "replay_rps on serve_steady, gme_pairs_per_s"),
    "image.frame_copy_us_per_req": (
        "us", "lower", "replay_rps on serve_steady, gme_pairs_per_s"),
    "gme.warp_ms_per_pair": ("ms", "lower", "gme_pairs_per_s on gme_offline"),
    "gme.pyramid_ms_per_frame": (
        "ms", "lower", "gme_pairs_per_s on gme_offline"),
    "gme.estimate_self_ms_per_pair": (
        "ms", "lower", "gme_pairs_per_s on gme_offline"),
    "gme.input_ms_per_frame": (
        "ms", "lower", "gme_pairs_per_s on gme_offline"),
    "gme.lib_calls_per_pair": (
        "count", "lower", "gme_pairs_per_s on gme_offline"),
    "core.fastpath_cycles_per_s": (
        "1/s", "higher", "sim_cycles_per_s on cycle_sim"),
    "core.percycle_cycles_per_s": (
        "1/s", "higher", "sim_cycles_per_s on cycle_sim"),
    "core.fastpath_cycle_share": (
        "ratio", "higher", "sim_cycles_per_s on cycle_sim"),
    "core.fastpath_time_share": (
        "ratio", "lower", "sim_cycles_per_s on cycle_sim"),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_share"] = (
        "ratio", "lower", "the workload's throughput, by at most this share")
PER_LAYER["trace.unattributed_share"] = (
    "ratio", "lower", "wall time outside every wrapped boundary")
PER_LAYER["trace.overhead_ratio"] = (
    "ratio", "lower", "traced round wall / untraced round wall")


# -- installing the wrappers -------------------------------------------------

def _note_request_id(span: Span, args: tuple, result: Any) -> None:
    span.request = result.request_id


def _note_submit(span: Span, args: tuple, result: Any) -> None:
    span.request = result.request_id
    if result.done:  # resolved inside submit: the reject path
        span.attrs = {"rejected": True}


def _note_executor(span: Span, args: tuple, result: Any) -> None:
    span.attrs = {"pixels": args[1].format.pixels}


def _note_run_call(span: Span, args: tuple, result: Any) -> None:
    span.attrs = {"cycles": result.cycles, "fast": result.fast_path_used}


def install(tracer: Tracer, entry_index: Dict[int, int]
            ) -> Callable[[], None]:
    """Wrap every boundary; returns a function that restores them."""

    def note_entry(span: Span, args: tuple, result: Any) -> None:
        span.request = entry_index.get(id(args[1]))

    def note_wave(span: Span, args: tuple, result: Any) -> None:
        if result:
            ids = tuple(request.request_id for request in result)
            span.request = ids
            span.attrs = {"wave": len(ids)}
            if span.parent >= 0:  # the enclosing service.step
                tracer.spans[span.parent].request = ids

    notes: Dict[str, Callable[[Span, tuple, Any], None]] = {
        "load.materialize.call": note_entry,
        "load.materialize.options": note_entry,
        "aio.submit": _note_request_id,
        "service.submit": _note_submit,
        "service.batcher": note_wave,
        "addresslib.executor.intra": _note_executor,
        "addresslib.executor.inter": _note_executor,
        "core.run_call": _note_run_call,
    }
    restore: List[Tuple[Any, str, Any]] = []
    for name, module_name, path in BOUNDARIES:
        owner: Any = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attribute)
        function = raw.__func__ if isinstance(raw, staticmethod) else raw
        note = notes.get(name)
        if inspect.iscoroutinefunction(function):
            wrapped = tracer.wrap_async(name, function, note)
        else:
            wrapped = tracer.wrap(name, function, note)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attribute, wrapped)
        restore.append((owner, attribute, raw))

    def uninstall() -> None:
        for owner, attribute, raw in reversed(restore):
            setattr(owner, attribute, raw)

    return uninstall


# -- aggregation -------------------------------------------------------------

class LayerStats:
    """Self times, call counts and boundary notes summed over rounds."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_seconds: Dict[str, float] = {}
        self.active_seconds: Dict[str, float] = {}
        self.wall_seconds = 0.0
        self.unattributed_seconds = 0.0
        self.reject_self_seconds = 0.0
        self.waves = 0
        self.wave_members = 0
        self.executor_pixels = 0
        self.cycles = {True: 0, False: 0}
        self.cycle_seconds = {True: 0.0, False: 0.0}

    def add(self, spans: Sequence[Span], wall_seconds: float) -> None:
        self.wall_seconds += wall_seconds
        self.unattributed_seconds += unattributed(spans, wall_seconds)
        for span, own in zip(spans, self_times(spans)):
            name = span.name
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + own
            self.active_seconds[name] = (self.active_seconds.get(name, 0.0)
                                         + span.active)
            attrs = span.attrs
            if not attrs:
                continue
            if attrs.get("rejected"):
                self.reject_self_seconds += own
            if "wave" in attrs:
                self.waves += 1
                self.wave_members += attrs["wave"]
            if "pixels" in attrs:
                self.executor_pixels += attrs["pixels"]
            if "cycles" in attrs:
                self.cycles[attrs["fast"]] += attrs["cycles"]
                self.cycle_seconds[attrs["fast"]] += span.active

    def count(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items()
                   if _under(name, prefix))

    def own(self, prefix: str) -> float:
        return sum(s for name, s in self.self_seconds.items()
                   if _under(name, prefix))

    def active(self, prefix: str) -> float:
        return sum(s for name, s in self.active_seconds.items()
                   if _under(name, prefix))


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(stats: LayerStats, items: int,
                      report: Optional[Any] = None,
                      lib_calls: int = 0,
                      overhead_ratio: float = 0.0) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric; 0.0 where the workload never crosses
    the boundary.  ``items`` is the workload's unit (requests offered,
    frame pairs, engine calls); ``report`` is a serving round's
    ``LoadReport`` (modeled books); ``lib_calls`` the GME call count."""
    us, ms = 1e6, 1e3
    waves = stats.count("pool.dispatch")
    driver_calls = stats.count("host.driver")
    intra = stats.own("addresslib.executor.intra")
    inter = stats.own("addresslib.executor.inter")
    executor_calls = stats.count("addresslib.executor")
    submit_self = stats.own("service.submit")
    fast, slow = stats.cycles[True], stats.cycles[False]
    fast_s, slow_s = stats.cycle_seconds[True], stats.cycle_seconds[False]
    metrics = {
        "load.materialize_us_per_req": _ratio(
            stats.own("load.materialize") * us, items),
        "aio.submit_us_per_req": _ratio(stats.own("aio.submit") * us, items),
        "aio.backpressure_waits": float(
            report.backpressure_waits if report is not None else 0),
        "service.submit_us_per_req": _ratio(submit_self * us, items),
        "service.submit_reject_path_share": _ratio(
            stats.reject_self_seconds, submit_self),
        "service.admission_us_per_req": _ratio(
            stats.own("service.admission") * us, items),
        "service.price_calls_per_req": _ratio(
            stats.count("service.admission.price")
            + stats.count("pool.price"), items),
        "service.queue_us_per_req": _ratio(
            stats.own("service.queue") * us, items),
        "service.batcher_us_per_wave": _ratio(
            stats.own("service.batcher") * us, stats.waves),
        "service.requests_per_wave": _ratio(stats.wave_members, stats.waves),
        "service.reject_share": 0.0,
        "service.timeout_share": 0.0,
        "pool.place_us_per_wave": _ratio(stats.own("pool.place") * us, waves),
        "pool.dispatch_self_us_per_wave": _ratio(
            stats.own("pool.dispatch") * us, waves),
        "pool.wave_cost_us_per_wave": _ratio(
            stats.active("pool.wave_cost") * us, waves),
        "pool.residency_hit_ratio": 0.0,
        "pool.utilization_spread": 0.0,
        "host.driver_us_per_call": _ratio(
            stats.own("host.driver") * us, driver_calls),
        "host.residency_us_per_call": _ratio(
            stats.own("host.residency") * us, driver_calls),
        "addresslib.executor_us_per_call": _ratio(
            (intra + inter) * us, executor_calls),
        "addresslib.intra_us_per_call": _ratio(
            intra * us, stats.count("addresslib.executor.intra")),
        "addresslib.inter_us_per_call": _ratio(
            inter * us, stats.count("addresslib.executor.inter")),
        "addresslib.executor_mpix_per_s": _ratio(
            stats.executor_pixels / 1e6, intra + inter),
        "addresslib.software_record_us_per_call": _ratio(
            stats.own("addresslib.software_record") * us,
            stats.count("addresslib.software_record")),
        "image.frame_copies_per_req": _ratio(stats.count("image.copy"),
                                             items),
        "image.frame_copy_us_per_req": _ratio(
            stats.own("image.copy") * us, items),
        "gme.warp_ms_per_pair": _ratio(
            stats.own("gme.warp") * ms, stats.count("gme.estimate")),
        "gme.pyramid_ms_per_frame": _ratio(
            stats.own("gme.pyramid") * ms, stats.count("gme.pyramid")),
        "gme.estimate_self_ms_per_pair": _ratio(
            stats.own("gme.estimate") * ms, stats.count("gme.estimate")),
        "gme.input_ms_per_frame": _ratio(
            stats.own("gme.input") * ms, stats.count("gme.input")),
        "gme.lib_calls_per_pair": _ratio(lib_calls,
                                         stats.count("gme.estimate")),
        "core.fastpath_cycles_per_s": _ratio(fast, fast_s),
        "core.percycle_cycles_per_s": _ratio(slow, slow_s),
        "core.fastpath_cycle_share": _ratio(fast, fast + slow),
        "core.fastpath_time_share": _ratio(fast_s, fast_s + slow_s),
    }
    if report is not None:
        offered = report.offered_requests
        metrics["service.reject_share"] = _ratio(report.rejected, offered)
        metrics["service.timeout_share"] = _ratio(report.timed_out, offered)
        pool = report.service.pool
        cache = pool.residency
        metrics["pool.residency_hit_ratio"] = _ratio(
            cache.get("hits", 0),
            cache.get("hits", 0) + cache.get("misses", 0))
        utilization = [worker.utilization for worker in pool.workers]
        metrics["pool.utilization_spread"] = (max(utilization)
                                              - min(utilization))
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(stats.own(layer),
                                                stats.wall_seconds)
    metrics["trace.unattributed_share"] = _ratio(stats.unattributed_seconds,
                                                 stats.wall_seconds)
    metrics["trace.overhead_ratio"] = overhead_ratio
    assert set(metrics) == set(PER_LAYER)
    return metrics
