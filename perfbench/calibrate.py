"""Re-derive the frozen constants at the top of ``workloads.py``.

Run from the repository root::

    python3 perfbench/calibrate.py

and paste the printed block over the constants.  Doing so redefines the
benchmark (new arrivals, new recorded outputs), so it belongs in a
change of its own, never in one that claims a gain.

Capacity is *measured*, not assumed (the ``_measured_capacity_per_s``
procedure of ``benchmarks/test_async_load.py``): a deadline-free burst
of 2048 requests offered effectively at once (arrival rate 1e6/s, no
admission policy, backpressure holding the producer) is replayed
through ``replay_async`` on a 4-board pool, and the completions per
modeled second it achieves is the saturation capacity the offered loads
are multiples of.  The mean call cost prices 512 calls of the same mix
with the admission controller's geometry-only pricing.
"""

from __future__ import annotations

import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.api import EnginePool, EngineService, ServicePolicy  # noqa: E402
from repro.load import ArrivalTrace, CallFactory, replay_async  # noqa: E402

import workloads as wl  # noqa: E402


def measured_capacity_per_s(spec) -> float:
    tenants = tuple(dataclasses.replace(t, deadline_seconds=None)
                    for t in spec.tenants)
    trace = ArrivalTrace.synthesize(dataclasses.replace(
        spec, requests=2048, rate_per_s=1e6, tenants=tenants))
    service = EngineService(pool=EnginePool.of_engines(wl.BOARDS),
                            policy=ServicePolicy(queue_depth=wl.QUEUE_DEPTH,
                                                 max_batch=wl.MAX_BATCH))
    report = replay_async(trace, service)
    assert report.completed == len(trace)
    return report.goodput_per_s


def mean_call_seconds(spec) -> float:
    trace = ArrivalTrace.synthesize(dataclasses.replace(
        spec, requests=2048, rate_per_s=1.0))
    probe = EngineService()
    factory = CallFactory(trace)
    sample = trace.entries[:512]
    return sum(probe.admission.price(factory.call(e))[1]
               for e in sample) / len(sample)


def main() -> None:
    steady = wl.ServeSteady().spec(wl.STEADY_CALIBRATION_SEED, 1.0)
    overload = wl.ServeOverload().spec(wl.OVERLOAD_CALIBRATION_SEED, 1.0)
    print(f"STEADY_CAPACITY_PER_S = {measured_capacity_per_s(steady)!r}")
    print(f"STEADY_MEAN_CALL_SECONDS = {mean_call_seconds(steady)!r}")
    print(f"OVERLOAD_CAPACITY_PER_S = "
          f"{measured_capacity_per_s(overload)!r}")
    print(f"OVERLOAD_MEAN_CALL_SECONDS = {mean_call_seconds(overload)!r}")
    gme = wl.GmeOffline()
    row = gme.run_round(gme.setup(0), 0).extra["row"]
    print(f"GME_RECORDED_CALLS = {{\"intra\": {row.intra_calls}, "
          f"\"inter\": {row.inter_calls}}}")
    sim = wl.CycleSim()
    cycles = sim.run_round(sim.setup(0), 0).extra["cycles"]
    print(f"CYCLE_SIM_RECORDED_CYCLES = {cycles}")


if __name__ == "__main__":
    main()
