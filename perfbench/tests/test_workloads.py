"""Workload shape, tracing neutrality and the BENCHMARK.json contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads as wl
from tracer import Tracer

ROOT = run.ROOT


@pytest.mark.parametrize("workload", [wl.ServeSteady(), wl.ServeOverload()])
def test_seed_changes_arrivals_but_keeps_the_shape(workload):
    one, two = workload.spec(1), workload.spec(2)
    trace_one = wl.ArrivalTrace.synthesize(one)
    trace_two = wl.ArrivalTrace.synthesize(two)
    assert ([e.arrival_seconds for e in trace_one.entries]
            != [e.arrival_seconds for e in trace_two.entries])
    for spec in (one, two):
        assert spec.tenants == workload.spec(0).tenants
        assert (spec.width, spec.height, spec.frame_pool) == (
            workload.spec(0).width, workload.spec(0).height,
            workload.spec(0).frame_pool)
        assert spec.rate_per_s == workload.spec(0).rate_per_s
    if isinstance(workload, wl.ServeSteady):
        assert one.rate_per_s == wl.STEADY_LOAD * wl.STEADY_CAPACITY_PER_S
        assert (one.width, one.height) == (32, 24)
    else:
        assert one.rate_per_s == (wl.OVERLOAD_LOAD
                                  * wl.OVERLOAD_CAPACITY_PER_S)
        assert (one.width, one.height) == (176, 144)
        assert one.frame_pool >= 256


def test_same_seed_same_inputs():
    spec = wl.ServeSteady().spec(5)
    first = wl.ArrivalTrace.synthesize(spec).to_dict()
    assert wl.ArrivalTrace.synthesize(spec).to_dict() == first


@pytest.mark.parametrize("name", ["serve_steady", "serve_overload",
                                  "cycle_sim"])
def test_tracing_leaves_modeled_books_unchanged(name):
    workload = wl.WORKLOADS[name]
    state = workload.setup(3)
    plain = [workload.run_round(state, v) for v in range(workload.variants)]
    tracer = Tracer()
    uninstall = layers.install(tracer, {})
    try:
        traced = [workload.run_round(state, v)
                  for v in range(workload.variants)]
    finally:
        uninstall()
    assert tracer.spans
    assert [r.books for r in traced] == [r.books for r in plain]
    assert workload.verify(state, plain + traced) == []
    again = workload.run_round(state, 0)  # wrappers fully removed
    assert again.books == plain[0].books


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == {
        name: (unit, better)
        for name, (unit, better, _) in layers.PER_LAYER.items()}
    assert set(run.THROUGHPUT) == set(wl.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycle_sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
