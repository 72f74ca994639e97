"""The four benchmark workloads: frozen inputs, one measured round each,
and the output checks.

Each workload exposes the same four steps, which ``run.py`` drives:

* ``setup(seed)`` builds everything a round needs (trace synthesis,
  ``CallFactory`` frames, pool and service build, a warm-up round so
  lazy initialisation is done) and returns the state;
* ``run_round(state, variant)`` runs one measured unit of work on input
  variant ``variant`` (``0 <= variant < variants``) and returns a
  :class:`Round` with its own wall time (service construction is kept
  out of the timed span);
* ``verify(state, rounds)`` runs the output checks, returning one
  message per failure;
* ``describe(state, rounds)`` returns the workload's own end-to-end
  figures by name (``run.py`` adds the throughput figure --
  ``replay_rps``, ``gme_pairs_per_s`` or ``sim_cycles_per_s`` -- plus
  set-up time and peak memory).

Everything runs in this one process: no process pools and no threads.
Only public APIs are called -- ``repro.api``, ``repro.load``'s
``replay_serial``/``replay_async``, ``repro.gme`` and
``AddressEngineDriver`` -- so the benchmark survives internal rewrites.

Rates are open-loop on the *modeled* clock: every arrival is stamped
from the trace, so modeled latency counts from when the request was
due, and the replay itself is unpaced on the wall clock.  The offered
rates are fixed multiples of capacities measured once by
``calibrate.py`` and frozen below, so a parent and a change replay
identical arrivals for the same seed.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.api import (AddressEngineDriver, AddressLib, AdmissionPolicy,
                       BatchCall, EngineBackend, EnginePool, EngineService,
                       Priority, RequestState, ServicePolicy,
                       SoftwareBackend, TenantPolicy)
from repro.load import (ArrivalTrace, CallFactory, LoadReport, TenantSpec,
                        TraceSpec, replay_async, replay_serial)

# -- frozen calibration (see calibrate.py; do not edit by hand) --------------

#: ``serve_steady`` mix: measured modeled saturation capacity (completed
#: requests per modeled second) of a 4-board pool, and the mean modeled
#: overlapped cost of one call.  Same procedure and seed as the
#: BENCH_async sweep, which recorded the same 872 req/s.
STEADY_CAPACITY_PER_S = 872.454393074947
STEADY_MEAN_CALL_SECONDS = 0.0016169388612689343
#: ``serve_overload`` mix (QCIF, victims + aggressor, 4 boards).
OVERLOAD_CAPACITY_PER_S = 313.911680688464
OVERLOAD_MEAN_CALL_SECONDS = 0.005202734434185589
#: Recorded outputs the checks compare against.
GME_RECORDED_CALLS = {"intra": 74, "inter": 53}
CYCLE_SIM_RECORDED_CYCLES = 362586

BOARDS = 4
QUEUE_DEPTH = 256
MAX_BATCH = 8

# -- serve_steady ------------------------------------------------------------

STEADY_TENANTS = (
    TenantSpec("viewfinder", weight=1.0, priority=Priority.INTERACTIVE,
               deadline_seconds=0.050),
    TenantSpec("pipeline", weight=2.0, priority=Priority.STANDARD),
    TenantSpec("reprocess", weight=1.0, priority=Priority.BULK,
               burst_factor=4.0),
)
STEADY_LOAD = 0.9
#: Admission backlog budget, in mean calls (the BENCH_async level).
STEADY_BUDGET_CALLS = 40.0
#: Requests per trace, and traces per seed.  How many waves a trace
#: needs depends on where its bursts fall (1200-1800 waves per 2500
#: requests across seeds), and that moves wall throughput by ~10%; six
#: short traces per seed average it out while each timed round stays
#: short.
STEADY_REQUESTS = 1000
STEADY_VARIANTS = 6
#: ``slo_rate_rps``: modeled p99 limit, and the trace head it bisects.
SLO_P99_SECONDS = 0.050
SLO_HEAD = 400
SLO_STEPS = 10

# -- serve_overload ----------------------------------------------------------

VICTIMS = ("victim_a", "victim_b")
AGGRESSOR = "aggressor"
#: Trace shares: the aggressor offers 3x a victim's rate while every
#: tenant's policy weight is equal, so it floods at 3x its fair share.
OVERLOAD_TENANTS = (
    TenantSpec("victim_a", weight=1.0, priority=Priority.STANDARD),
    TenantSpec("victim_b", weight=1.0, priority=Priority.STANDARD),
    TenantSpec("aggressor", weight=3.0, priority=Priority.STANDARD),
)
OVERLOAD_LOAD = 1.5
OVERLOAD_BUDGET_CALLS = 30.0
#: Victim p95 target, in mean calls.
OVERLOAD_TARGET_CALLS = 25.0
OVERLOAD_FRAME_POOL = 256
#: Requests per trace, and traces per seed: a 1000-request trace's
#: Poisson duration alone moves its goodput by a few percent, so three
#: traces per seed are replayed in turn.
OVERLOAD_REQUESTS = 1000
OVERLOAD_VARIANTS = 3

# -- gme_offline / cycle_sim -------------------------------------------------

#: Singapore frames per round (the first GME_FRAMES of the sequence).
GME_FRAMES = 9
#: Results are checked against the software library for this many
#: sampled completed requests per serving workload.
VERIFY_SAMPLE = 48

#: Calibration seeds (fixed; never the benchmark's --seed).
STEADY_CALIBRATION_SEED = 0xA5F0
OVERLOAD_CALIBRATION_SEED = 0x510F

#: LoadReport payload keys that hold wall-clock figures; everything
#: else in the payload is the modeled books.
WALL_KEYS = ("mode", "wall_latency", "backpressure_wall_seconds",
             "wall_elapsed_seconds", "requests_per_wall_s")


@dataclass
class Round:
    """One measured unit of work."""

    #: Work items attempted: requests offered, frame pairs, engine calls.
    items: int
    #: What the throughput counts: requests accounted, frame pairs,
    #: simulated engine cycles.
    work: int
    #: Wall seconds of the timed span.
    seconds: float
    #: Canonical modeled books; identical for every round of one input.
    books: str = ""
    #: Workload-specific figures of this round.
    extra: Dict[str, Any] = field(default_factory=dict)


def modeled_books(report: LoadReport) -> str:
    payload = report.to_dict()
    for key in WALL_KEYS:
        payload.pop(key)
    return json.dumps(payload, sort_keys=True)


def _same_result(expected: Any, actual: Any) -> bool:
    if isinstance(expected, int):
        return isinstance(actual, int) and expected == actual
    return not isinstance(actual, int) and expected.equals(actual)


# -- serving workloads -------------------------------------------------------

class ServingWorkload:
    """Shared shape of the two trace-replay workloads.

    A seed gives ``variants`` traces (sub-seeds ``seed * variants + k``);
    round ``variant`` replays trace ``variant`` on a fresh service.
    """

    name = ""
    variants = 1
    #: ``replay_async`` or ``replay_serial``.
    replay: Callable[..., LoadReport]

    def spec(self, seed: int, rate_per_s: Optional[float] = None
             ) -> TraceSpec:
        """The round's trace spec (at the frozen offered rate unless
        ``rate_per_s`` is given)."""
        raise NotImplementedError

    def policy(self) -> ServicePolicy:
        raise NotImplementedError

    def service(self) -> EngineService:
        return EngineService(pool=EnginePool.of_engines(BOARDS),
                             policy=self.policy())

    def setup(self, seed: int) -> Dict[str, Any]:
        traces = [ArrivalTrace.synthesize(
            self.spec(seed * self.variants + k))
            for k in range(self.variants)]
        # The replays build their own factories; this one materializes
        # the first trace's frames for set-up timing and the result
        # check.
        state = {"seed": seed, "traces": traces,
                 "factory": CallFactory(traces[0])}
        # Warm-up: one replay of a short head, so imports, op
        # registries and numpy kernels are initialised before timing.
        self.replay(traces[0].head(32), self.service())
        return state

    def run_round(self, state: Dict[str, Any], variant: int) -> Round:
        report = self.replay(state["traces"][variant], self.service())
        # The replay times itself (submission through drain), which is
        # what LoadReport.requests_per_wall_s divides by.
        return Round(items=report.offered_requests, work=report.accounted,
                     seconds=report.wall_elapsed_seconds,
                     books=modeled_books(report), extra={"report": report})

    # -- checks ---------------------------------------------------------------

    def verify(self, state: Dict[str, Any], rounds: List[Round]
               ) -> List[str]:
        failures: List[str] = []
        for variant in range(self.variants):
            repeats = rounds[variant::self.variants]
            if len({r.books for r in repeats}) != 1:
                failures.append(f"{self.name}: modeled books of trace "
                                f"{variant} differ across {len(repeats)} "
                                f"repeated rounds")
        for index, round_ in enumerate(rounds):
            report: LoadReport = round_.extra["report"]
            failures += self._accounting(report, f"round {index}")
        failures += self._sample_results(state, rounds[0].books)
        return failures

    def _accounting(self, report: LoadReport, where: str) -> List[str]:
        service = report.service
        failures = []
        if report.accounted != report.offered_requests:
            failures.append(
                f"{self.name} {where}: completed + rejected + timed_out "
                f"= {report.accounted} != offered "
                f"{report.offered_requests}")
        if service is None or service.submitted != report.offered_requests:
            failures.append(f"{self.name} {where}: service saw "
                            f"{service and service.submitted} submits")
        elif (service.completed + service.rejected + service.timed_out
              != service.submitted):
            failures.append(f"{self.name} {where}: service books do not "
                            f"balance")
        return failures

    def _sample_results(self, state: Dict[str, Any],
                        expected_books: str) -> List[str]:
        """Replay the first trace once more, keeping the results of a
        seeded sample of requests, and compare them with a software
        ``AddressLib``."""
        trace: ArrivalTrace = state["traces"][0]
        rng = random.Random(f"{state['seed']}:verify")
        sample = set(rng.sample(range(len(trace)),
                                min(VERIFY_SAMPLE * 2, len(trace))))
        kept: Dict[int, Any] = {}
        service = self.service()
        release = service.release

        def keep_then_release(ticket: Any) -> None:
            if (ticket.request_id in sample
                    and ticket.state is RequestState.COMPLETED):
                kept[ticket.request_id] = ticket.result()
            release(ticket)

        service.release = keep_then_release  # type: ignore[method-assign]
        report = self.replay(trace, service)
        failures = []
        if modeled_books(report) != expected_books:
            failures.append(f"{self.name}: verification replay cut "
                            f"different modeled books")
        if not kept:
            failures.append(f"{self.name}: no sampled request completed")
        software = AddressLib(SoftwareBackend())
        factory: CallFactory = state["factory"]
        wrong = 0
        for request_id in sorted(kept)[:VERIFY_SAMPLE]:
            call = factory.call(trace.entries[request_id])
            if not _same_result(software.run_batch([call])[0],
                                kept[request_id]):
                wrong += 1
        if wrong:
            failures.append(f"{self.name}: {wrong} sampled results differ "
                            f"from the software AddressLib")
        state["verified_requests"] = min(len(kept), VERIFY_SAMPLE)
        return failures

    # -- figures --------------------------------------------------------------

    def describe(self, state: Dict[str, Any], rounds: List[Round]
                 ) -> Dict[str, Any]:
        """Modeled figures summed over the traces of one seed (every
        cycle repeats them exactly); latency percentiles are the median
        over traces of each trace's percentile."""
        reports = first_cycle(rounds, self.variants)
        offered = sum(r.offered_requests for r in reports)
        completed = sum(r.completed for r in reports)
        rejected = sum(r.rejected for r in reports)
        timed_out = sum(r.timed_out for r in reports)
        return {
            "sent": offered,
            "succeeded": completed,
            "failed_shed": rejected + timed_out,
            "rejected": rejected,
            "timed_out": timed_out,
            "goodput_ratio": completed / offered,
            "modeled_p50_ms": _ms(_median_of(
                r.modeled_latency.p50 for r in reports)),
            "modeled_p99_ms": _ms(_median_of(
                r.modeled_latency.p99 for r in reports)),
            "modeled_samples": sum(r.modeled_latency.count
                                   for r in reports),
            "waves": sum(r.service.waves for r in reports if r.service),
            "verified_requests": state.get("verified_requests", 0),
        }


def first_cycle(rounds: List[Round], variants: int) -> List[LoadReport]:
    """The LoadReports of the first round of every trace."""
    return [round_.extra["report"] for round_ in rounds[:variants]]


def _median_of(values: Any) -> Optional[float]:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3


class ServeSteady(ServingWorkload):
    name = "serve_steady"
    variants = STEADY_VARIANTS
    replay = staticmethod(replay_async)

    def spec(self, seed: int, rate_per_s: Optional[float] = None
             ) -> TraceSpec:
        return TraceSpec(requests=STEADY_REQUESTS,
                         rate_per_s=(rate_per_s or
                                     STEADY_LOAD * STEADY_CAPACITY_PER_S),
                         seed=seed, tenants=STEADY_TENANTS)

    def policy(self) -> ServicePolicy:
        return ServicePolicy(
            queue_depth=QUEUE_DEPTH, max_batch=MAX_BATCH,
            admission=AdmissionPolicy(deadline_budget_seconds=(
                STEADY_BUDGET_CALLS * STEADY_MEAN_CALL_SECONDS)))

    def describe(self, state: Dict[str, Any], rounds: List[Round]
                 ) -> Dict[str, Any]:
        figures = super().describe(state, rounds)
        p50s = [r.extra["report"].wall_latency.p50 for r in rounds]
        p99s = [r.extra["report"].wall_latency.p99 for r in rounds]
        samples = sum(r.extra["report"].wall_latency.count for r in rounds)
        figures["wall_latency_p50_ms"] = _ms(statistics.median(p50s))
        figures["wall_latency_p99_ms"] = _ms(statistics.median(p99s))
        figures["wall_latency_samples"] = samples
        figures["backpressure_waits"] = sum(
            r.backpressure_waits
            for r in first_cycle(rounds, self.variants))
        figures["slo_rate_rps"] = self.slo_rate(state)
        return figures

    def slo_rate(self, state: Dict[str, Any]) -> float:
        """Highest offered modeled rate whose head replay keeps modeled
        p99 within ``SLO_P99_SECONDS`` with nothing shed, by geometric
        bisection over ``trace.scaled(f)``."""
        head: ArrivalTrace = state["traces"][0].head(SLO_HEAD)

        def meets(factor: float) -> bool:
            report = replay_serial(head.scaled(factor), self.service())
            p99 = report.modeled_latency.p99
            return (report.rejected + report.timed_out == 0
                    and p99 is not None and p99 <= SLO_P99_SECONDS)

        low, high = 0.125, 8.0
        if not meets(low):
            return 0.0
        if meets(high):
            return head.rate_per_s * high
        for _ in range(SLO_STEPS):
            middle = (low * high) ** 0.5
            if meets(middle):
                low = middle
            else:
                high = middle
        return head.rate_per_s * low


class ServeOverload(ServingWorkload):
    name = "serve_overload"
    variants = OVERLOAD_VARIANTS
    replay = staticmethod(replay_serial)

    def spec(self, seed: int, rate_per_s: Optional[float] = None
             ) -> TraceSpec:
        return TraceSpec(requests=OVERLOAD_REQUESTS,
                         rate_per_s=(rate_per_s or OVERLOAD_LOAD
                                     * OVERLOAD_CAPACITY_PER_S),
                         seed=seed, tenants=OVERLOAD_TENANTS, width=176,
                         height=144, frame_pool=OVERLOAD_FRAME_POOL,
                         inter_fraction=0.25)

    def policy(self) -> ServicePolicy:
        target = OVERLOAD_TARGET_CALLS * OVERLOAD_MEAN_CALL_SECONDS
        return ServicePolicy(
            queue_depth=QUEUE_DEPTH, max_batch=MAX_BATCH,
            admission=AdmissionPolicy(deadline_budget_seconds=(
                OVERLOAD_BUDGET_CALLS * OVERLOAD_MEAN_CALL_SECONDS)),
            tenants={
                "victim_a": TenantPolicy(weight=1.0,
                                         p95_target_seconds=target),
                "victim_b": TenantPolicy(weight=1.0,
                                         p95_target_seconds=target),
                "aggressor": TenantPolicy(weight=1.0),
            },
            fair_queueing=True, deadline_aware_batching=True)

    def describe(self, state: Dict[str, Any], rounds: List[Round]
                 ) -> Dict[str, Any]:
        figures = super().describe(state, rounds)
        reports = first_cycle(rounds, self.variants)

        def tenant_sum(name: str, field: str) -> int:
            return sum(getattr(r.tenants[name], field) for r in reports)

        figures["victim_goodput_ratio"] = min(
            tenant_sum(name, "completed") / tenant_sum(name, "submitted")
            for name in VICTIMS)
        total_sheds = sum(book.sheds for r in reports
                          for book in r.tenants.values())
        figures["aggressor_shed_share"] = (
            tenant_sum(AGGRESSOR, "sheds") / total_sheds
            if total_sheds else 0.0)
        return figures


# -- gme_offline -------------------------------------------------------------

class GmeOffline:
    """The paper's Table 3 workload on the Singapore sequence.

    The sequence is the paper's fixed clip (a seeded synthetic
    stand-in), so ``--seed`` does not change it: the Table 3 comparison
    and the recorded call counts are defined on that one sequence.
    """

    name = "gme_offline"
    variants = 1

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro.gme import SINGAPORE, evaluate_sequence_dual
        evaluate_sequence_dual(SINGAPORE, scale=2 / SINGAPORE.frames)
        return {"seed": seed}

    def run_round(self, state: Dict[str, Any], variant: int) -> Round:
        from repro.gme import SINGAPORE, evaluate_sequence_dual
        start = time.perf_counter()
        row = evaluate_sequence_dual(SINGAPORE,
                                     scale=GME_FRAMES / SINGAPORE.frames)
        seconds = time.perf_counter() - start
        books = json.dumps({
            "frames": row.frames_run, "intra": row.intra_calls,
            "inter": row.inter_calls, "pm_seconds": row.pm_seconds,
            "fpga_seconds": row.fpga_seconds}, sort_keys=True)
        return Round(items=row.frames_run - 1, work=row.frames_run - 1,
                     seconds=seconds, books=books, extra={"row": row})

    def verify(self, state: Dict[str, Any], rounds: List[Round]
               ) -> List[str]:
        failures = []
        if len({r.books for r in rounds}) != 1:
            failures.append("gme_offline: modeled books differ across "
                            "repeated rounds")
        row = rounds[0].extra["row"]
        if row.frames_run != GME_FRAMES:
            failures.append(f"gme_offline: ran {row.frames_run} frames, "
                            f"expected {GME_FRAMES}")
        counts = {"intra": row.intra_calls, "inter": row.inter_calls}
        if counts != GME_RECORDED_CALLS:
            failures.append(f"gme_offline: call counts {counts} != "
                            f"recorded {GME_RECORDED_CALLS}")
        return failures

    def describe(self, state: Dict[str, Any], rounds: List[Round]
                 ) -> Dict[str, Any]:
        from repro.gme import PAPER_TABLE3
        row = rounds[0].extra["row"]
        full = row.extrapolated()
        _, pm_paper, fpga_paper, _, _ = PAPER_TABLE3[0]
        paper_speedup = pm_paper / fpga_paper
        return {
            "frames": row.frames_run,
            "pairs": row.frames_run - 1,
            "intra_calls": row.intra_calls,
            "inter_calls": row.inter_calls,
            "modeled_speedup_full": full.speedup,
            "paper_speedup": paper_speedup,
            "table3_speedup_error": (abs(full.speedup - paper_speedup)
                                     / paper_speedup),
        }


# -- cycle_sim ---------------------------------------------------------------

class _RecordingDriver(AddressEngineDriver):
    """Keeps each simulated call's config, cycles and fast-path flag."""

    def __init__(self) -> None:
        super().__init__(simulate=True)
        self.runs: List[Any] = []

    def submit(  # type: ignore[override]
            self, config, frame_a, frame_b=None, **kwargs):
        result = super().submit(config, frame_a, frame_b, **kwargs)
        self.runs.append((config, result.run.cycles,
                          result.run.fast_path_used))
        return result


class CycleSim:
    """A fixed call list through the cycle-level engine model.

    QCIF ``intra_box3``, ``inter_absdiff`` and ``inter_absdiff``+reduce
    take the batched fast path; ``intra_grad`` on a 32x24 frame does
    not (its stage-3 latency is above 2), so it runs the per-cycle
    reference loop.  The two paths differ ~120x in simulated cycles per
    second; the sizes are chosen so each takes roughly half the wall
    time.  The seed sets the frame contents; simulated cycles depend on
    geometry only, so the recorded total holds for every seed.
    """

    name = "cycle_sim"
    variants = 1

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro.addresslib import INTER_ABSDIFF, INTRA_BOX3, INTRA_GRAD
        from repro.image import QCIF, ImageFormat, noise_frame
        small = ImageFormat("S32x24", 32, 24)
        rng = random.Random(f"{seed}:cycle_sim")
        a = noise_frame(QCIF, seed=rng.randrange(1 << 30))
        b = noise_frame(QCIF, seed=rng.randrange(1 << 30))
        g = noise_frame(small, seed=rng.randrange(1 << 30))
        calls = [BatchCall.intra(INTRA_BOX3, a),
                 BatchCall.inter(INTER_ABSDIFF, a, b),
                 BatchCall.inter_reduce(INTER_ABSDIFF, a, b),
                 BatchCall.intra(INTRA_GRAD, g)]
        driver = _RecordingDriver()
        lib = AddressLib(EngineBackend(driver=driver))
        # Warm-up on a small format, fast path and per-cycle loop alike.
        warm = noise_frame(small, seed=1)
        lib.run_batch([BatchCall.intra(INTRA_BOX3, warm),
                       BatchCall.intra(INTRA_GRAD, warm)])
        driver.runs.clear()
        return {"seed": seed, "calls": calls, "lib": lib,
                "driver": driver}

    def run_round(self, state: Dict[str, Any], variant: int) -> Round:
        lib: AddressLib = state["lib"]
        driver: _RecordingDriver = state["driver"]
        driver.runs.clear()
        timings = []
        start = time.perf_counter()
        for call in state["calls"]:
            begin = time.perf_counter()
            lib.run_batch([call])
            timings.append(time.perf_counter() - begin)
        seconds = time.perf_counter() - start
        runs = list(driver.runs)
        cycles = sum(run[1] for run in runs)
        fast_cycles = sum(run[1] for run in runs if run[2])
        fast_seconds = sum(t for t, run in zip(timings, runs) if run[2])
        return Round(
            items=len(runs), work=cycles, seconds=seconds,
            books=json.dumps([[run[0].op_name, run[1], run[2]]
                              for run in runs]),
            extra={"runs": runs, "cycles": cycles,
                   "fast_cycles": fast_cycles,
                   "fast_seconds": fast_seconds,
                   "slow_seconds": seconds - fast_seconds})

    def verify(self, state: Dict[str, Any], rounds: List[Round]
               ) -> List[str]:
        from repro.analysis import predict_fast_path
        failures = []
        if len({r.books for r in rounds}) != 1:
            failures.append("cycle_sim: simulated cycles differ across "
                            "repeated rounds")
        round_ = rounds[0]
        if round_.extra["cycles"] != CYCLE_SIM_RECORDED_CYCLES:
            failures.append(f"cycle_sim: {round_.extra['cycles']} cycles "
                            f"!= recorded {CYCLE_SIM_RECORDED_CYCLES}")
        for config, _, used in round_.extra["runs"]:
            predicted = predict_fast_path(config).eligible
            if predicted != used:
                failures.append(f"cycle_sim: {config.op_name} fast path "
                                f"used={used}, predicted={predicted}")
        software = AddressLib(SoftwareBackend())
        engine = AddressLib(EngineBackend(
            driver=AddressEngineDriver(simulate=True)))
        for call in state["calls"]:
            if not _same_result(software.run_batch([call])[0],
                                engine.run_batch([call])[0]):
                failures.append(f"cycle_sim: {call.op.name} result "
                                f"differs from the software AddressLib")
        return failures

    def describe(self, state: Dict[str, Any], rounds: List[Round]
                 ) -> Dict[str, Any]:
        fast_rates = [r.extra["fast_cycles"] / r.extra["fast_seconds"]
                      for r in rounds]
        slow_rates = [(r.extra["cycles"] - r.extra["fast_cycles"])
                      / r.extra["slow_seconds"] for r in rounds]
        shares = [r.extra["fast_seconds"] / r.seconds for r in rounds]
        first = rounds[0].extra
        return {
            "calls_per_round": rounds[0].items,
            "cycles_per_round": first["cycles"],
            "fastpath_cycles_per_s": statistics.median(fast_rates),
            "percycle_cycles_per_s": statistics.median(slow_rates),
            "fastpath_time_share": statistics.median(shares),
            "fastpath_cycle_share": first["fast_cycles"] / first["cycles"],
        }


WORKLOADS = {w.name: w for w in (ServeSteady(), ServeOverload(),
                                 GmeOffline(), CycleSim())}
