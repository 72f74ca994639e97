"""The repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload serve_steady --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``workloads.py`` for their inputs, ``BENCHMARK.json`` for
why each was chosen): ``serve_steady``, ``serve_overload``,
``gme_offline`` and ``cycle_sim``.

``--trace 0`` measures the end-to-end metrics.  Set-up runs several
times (the median is reported); then whole rounds of the workload run
back to back until ``--seconds`` have passed, with the host-speed
reference kernels (``reference.py``) timed between rounds; then the
output checks run.  ``--trace 1`` alternates untraced and traced rounds
for ``--seconds`` and reports per-layer self times (``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts work items (requests offered, frame pairs, engine calls);
``failed`` counts failed output checks.  Requests the service sheds by
design are not failures of the program: they show as
``goodput_ratio`` and in the printed sent/succeeded/failed(shed) line.
Any failed check makes ``correct`` false and the exit status 1.

Everything runs in this one process, with no worker processes or
threads.  Traces of the traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups per run (the median is reported as ``setup_s``).
SETUP_REPEATS = 5
#: Fewest measured cycles, whatever ``--seconds`` says.  A cycle runs
#: each of the workload's input variants once.
MIN_CYCLES = 3

#: BENCHMARK.json end-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "goodput_ratio": ("ratio", "higher"),
}
#: What ``throughput_per_s`` counts on each workload, by the name the
#: workload's own figures use.
THROUGHPUT = {
    "serve_steady": ("replay_rps", "requests accounted per wall second"),
    "serve_overload": ("replay_rps", "requests accounted per wall second"),
    "gme_offline": ("gme_pairs_per_s", "frame pairs per wall second"),
    "cycle_sim": ("sim_cycles_per_s",
                  "simulated engine cycles per wall second"),
}
#: Units of the workloads' own figures (``describe``); ``*_ms`` keys
#: are milliseconds and anything unlisted is a count.
UNITS = {
    "goodput_ratio": "ratio", "victim_goodput_ratio": "ratio",
    "aggressor_shed_share": "ratio", "slo_rate_rps": "1/s",
    "table3_speedup_error": "ratio", "modeled_speedup_full": "x",
    "paper_speedup": "x", "fastpath_time_share": "ratio",
    "fastpath_cycle_share": "ratio", "fastpath_cycles_per_s": "1/s",
    "percycle_cycles_per_s": "1/s",
}
#: Counts of the serving workloads (identical every pass over the
#: seed's traces).
PER_PASS = ("sent", "succeeded", "failed_shed", "rejected", "timed_out",
             "waves")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run
    against any other copy of ``repro``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def stamp() -> Dict[str, Any]:
    import numpy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "load": "one process; no worker processes or threads"}


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def _high(values: List[float]) -> float:
    """The 90th percentile (the largest value below ten samples)."""
    if len(values) < 10:
        return max(values)
    return statistics.quantiles(values, n=10)[-1]


def cycle_rate(rounds: List[Any], seconds: List[float],
               variants: int) -> float:
    """Work of one pass over the inputs divided by the sum, over inputs,
    of each input's median round time."""
    work = time_ = 0.0
    for variant in range(variants):
        work += rounds[variant].work
        time_ += statistics.median(seconds[variant::variants])
    return work / time_


def _line(workload: str, name: str, value: Any, unit: str,
          how: str = "") -> None:
    if isinstance(value, float):
        value = f"{value:.6g}"
    print(f"{workload:15s} {name:32s} {value!s:>14} {unit:6s} {how}")


def _how(key: str, figures: Dict[str, Any]) -> str:
    """How a workload figure was measured, with its sample count."""
    if key.startswith("wall_latency_p"):
        return (f"median over rounds of the per-round percentile; "
                f"{figures['wall_latency_samples']} samples in all")
    if key.startswith("modeled_p"):
        return (f"modeled clock: median over the seed's traces of each "
                f"trace's percentile ({figures['modeled_samples']} "
                f"completions); identical every pass")
    if key in PER_PASS or key in ("goodput_ratio", "victim_goodput_ratio"):
        return "over one pass of the seed's traces; identical every pass"
    if key == "slo_rate_rps":
        from workloads import SLO_HEAD, SLO_P99_SECONDS, SLO_STEPS
        return (f"bisection over at most {SLO_STEPS + 2} modeled replays "
                f"of a {SLO_HEAD}-request head: p99 <= "
                f"{SLO_P99_SECONDS * 1e3:g} ms, nothing shed")
    return ""


# -- untraced run -----------------------------------------------------------

def run_untraced(name: str, seed: int, seconds: float
                 ) -> Tuple[Dict[str, Any], List[str], int]:
    from reference import HostReference
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    slowness = HostReference().slowness

    setups: List[Tuple[float, float]] = []
    state: Any = None
    for _ in range(SETUP_REPEATS):
        before = slowness()
        start = time.perf_counter()
        state = workload.setup(seed)
        elapsed = time.perf_counter() - start
        setups.append((elapsed, (before + slowness()) / 2))

    variants = workload.variants
    rounds = []
    slow = [slowness()]
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(rounds) % variants
           or len(rounds) < MIN_CYCLES * variants):
        gc.collect()
        rounds.append(workload.run_round(state, len(rounds) % variants))
        slow.append(slowness())

    failures = workload.verify(state, rounds)
    figures = workload.describe(state, rounds)

    # Each round's wall time at nominal host speed, from the host
    # slowness measured on either side of it.
    scaled_seconds = [r.seconds / ((slow[i] + slow[i + 1]) / 2)
                      for i, r in enumerate(rounds)]
    raw_seconds = [r.seconds for r in rounds]
    throughput = cycle_rate(rounds, scaled_seconds, variants)
    raw_throughput = cycle_rate(rounds, raw_seconds, variants)
    scaled_rates = [r.work / t for r, t in zip(rounds, scaled_seconds)]
    raw_rates = [r.work / t for r, t in zip(rounds, raw_seconds)]
    raw_setups = [elapsed for elapsed, _ in setups]
    scaled_setups = [elapsed / factor for elapsed, factor in setups]
    attempted = sum(r.items for r in rounds)
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
        "throughput_per_s": throughput,
        "goodput_ratio": figures.get("goodput_ratio", 1.0),
    }

    throughput_name, throughput_what = THROUGHPUT[name]
    low, median, high = _quartiles(scaled_rates)
    print(f"# {name} seed={seed} rounds={len(rounds)} variants={variants} "
          f"stamp={json.dumps(stamp())}")
    _line(name, "setup_s", metrics["setup_s"], "s",
          f"median of {len(setups)} set-ups at nominal host speed "
          f"(raw median {statistics.median(raw_setups):.4g}, "
          f"raw max {max(raw_setups):.4g})")
    _line(name, "peak_rss_mb", metrics["peak_rss_mb"], "MB",
          "this process, fresh per workload")
    _line(name, throughput_name, throughput, "1/s",
          f"{throughput_what} at nominal host speed, from the median "
          f"time of each of {variants} input(s) over {len(rounds)} "
          f"rounds (per-round rate median {median:.6g}, quartiles "
          f"{low:.6g}..{high:.6g})")
    _line(name, throughput_name + "_raw", raw_throughput, "1/s",
          f"same, unscaled wall time (per-round rate p90 "
          f"{_high(raw_rates):.6g})")
    for key, value in figures.items():
        unit = UNITS.get(key, "ms" if key.endswith("_ms") else "count")
        _line(name, key, value, unit, _how(key, figures))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"{name:15s} checks: {'all passed' if not failures else 'FAILED'}"
          f" (rounds={len(rounds)}, attempted={attempted})")
    _write(f"{name}-seed{seed}.json", {"workload": name, "seed": seed,
                            "stamp": stamp(), "metrics": metrics,
                            "figures": figures,
                            "raw_rates": raw_rates,
                            "scaled_rates": scaled_rates,
                            "raw_setups": raw_setups,
                            "failures": failures})
    return ({key: {"value": value, "unit": END_TO_END[key][0]}
             for key, value in metrics.items()}, failures, attempted)


# -- traced run -------------------------------------------------------------

def run_traced(name: str, seed: int, seconds: float
               ) -> Tuple[Dict[str, Any], List[str], int]:
    import layers
    from tracer import Tracer, write_chrome_trace
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    state = workload.setup(seed)
    entry_index = {id(entry): index
                   for trace in state.get("traces", ())
                   for index, entry in enumerate(trace.entries)}

    plain, traced = [], []
    stats = layers.LayerStats()
    last_tracer = None
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or len(traced) < workload.variants):
        variant = len(traced) % workload.variants
        gc.collect()
        plain.append(workload.run_round(state, variant))
        gc.collect()
        tracer = Tracer()
        uninstall = layers.install(tracer, entry_index)
        try:
            round_ = workload.run_round(state, variant)
        finally:
            uninstall()
        traced.append(round_)
        stats.add(tracer.spans, round_.seconds)
        last_tracer = tracer

    failures = workload.verify(state, plain)
    if [r.books for r in traced] != [r.books for r in plain]:
        failures.append(f"{name}: traced rounds cut different modeled "
                        f"books than untraced ones")
    items = sum(r.items for r in traced)
    report = traced[0].extra.get("report")
    row = traced[0].extra.get("row")
    lib_calls = (row.intra_calls + row.inter_calls) * len(traced) if row \
        else 0
    overhead = (statistics.median(r.seconds for r in traced)
                / statistics.median(r.seconds for r in plain))
    metrics = layers.per_layer_metrics(stats, items, report=report,
                                       lib_calls=lib_calls,
                                       overhead_ratio=overhead)

    print(f"# {name} seed={seed} traced rounds={len(traced)} "
          f"untraced rounds={len(plain)} spans/round="
          f"{len(last_tracer.spans)} stamp={json.dumps(stamp())}")
    for key, value in metrics.items():
        unit, _, moves = layers.PER_LAYER[key]
        _line(name, key, value, unit, f"-> {moves}")
    shares = sum(metrics[f"{layer}.self_share"] for layer in layers.LAYERS)
    print(f"{name:15s} layer self shares {shares:.4f} + unattributed "
          f"{metrics['trace.unattributed_share']:.4f} = "
          f"{shares + metrics['trace.unattributed_share']:.4f} of "
          f"{stats.wall_seconds:.3f} s traced wall")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    os.makedirs(OUT_DIR, exist_ok=True)
    write_chrome_trace(last_tracer.spans,
                       os.path.join(OUT_DIR, f"{name}.trace.json"),
                       origin=last_tracer.spans[0].start
                       if last_tracer.spans else 0.0)
    return ({key: {"value": value, "unit": layers.PER_LAYER[key][0]}
             for key, value in metrics.items()}, failures, items)


def _write(filename: str, payload: Dict[str, Any]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, filename), "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, default=str)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(WORKLOADS)}")
    run = run_traced if args.trace else run_untraced
    metrics, failures, attempted = run(args.workload, args.seed,
                                       args.seconds)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
