"""Cycle-exactness of the batched fast-path stepper.

The fast path (src/repro/core/fastpath.py) must be *indistinguishable*
from the per-cycle reference loop: same completion cycle, same PLC
stats, same per-bank ZBT access counts, same interrupts, same data.
This harness drives randomized configurations (geometry, operation,
reduce/special flags, residency) through both steppers and compares
every observable, plus targeted tests for stage-3 latencies beyond the
prototype's one- and two-cycle ops, the out-of-regime fallbacks and the
enriched deadlock diagnostics.
"""

import random
from dataclasses import replace

import pytest

from repro.analysis import EngineParams, predict_fast_path
from repro.core import (AddressEngine, EngineDeadlock, inter_config,
                        intra_config)
from repro.addresslib import INTER_OPS, INTRA_OPS
from repro.image import ImageFormat, noise_frame

FAST = AddressEngine(fast_path=True)
SLOW = AddressEngine(fast_path=False)

#: Randomized shards x cases per shard: >= 200 total property cases.
SHARDS = 8
CASES_PER_SHARD = 26

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

#: Stage-3 latencies whose FLOW period spans several engine cycles: 3 and
#: 4 are ``intra_grad``'s and ``intra_median3``'s, 5 is synthetic.
LONG_LATENCIES = (3, 4, 5)
#: A two-strip frame and a many-strip one.
LATENCY_FORMATS = (ImageFormat("P20x32", 20, 32),
                   ImageFormat("P12x80", 12, 80))


def _snapshot(run):
    """Every cycle-level observable of one engine run."""
    stats = run.plc_stats
    snap = {
        "cycles": run.cycles,
        "completion_cycle": run.completion_cycle,
        "input_complete_cycle": run.input_complete_cycle,
        "plc": (stats.cycles, stats.active_cycles,
                stats.issued_pixel_cycles, stats.retired_pixel_cycles,
                stats.stall_iim_wait, stats.stall_oim_full,
                stats.stall_op_busy, stats.stall_disabled,
                stats.loads, stats.shifts),
        "zbt_banks": [(bank.reads, bank.writes) for bank in run.zbt.stats],
        "zbt": (run.zbt.word_accesses, run.zbt.access_cycles,
                run.zbt.pixel_ops),
        "pci": (run.pci.busy_cycles, run.pci.stall_cycles,
                run.pci.overhead_cycles, run.pci.idle_cycles,
                run.pci.words_to_board, run.pci.words_to_host),
        "interrupts": [(irq.cycle, irq.name)
                       for irq in run.pci.interrupts],
        "input_txus": [(txu.pixels_moved, txu.stall_no_strip,
                        txu.stall_iim_full, txu.stall_bank_busy)
                       for txu in run.input_txus],
        "oim_peak": run.oim_peak_pixels,
        "matrix": (run.matrix_loads, run.matrix_shifts,
                   run.matrix_pixels_fetched),
        "scalar": run.scalar,
    }
    if run.output_txu is not None:
        out = run.output_txu
        snap["output_txu"] = (out.pixels_written, out.words_written,
                              tuple(out.bank_words), out.stall_oim_empty,
                              out.stall_bank_busy)
    return snap


def _assert_equivalent(config, frames, resident=None):
    slow = SLOW.run_call(config, *frames, resident=resident)
    fast = FAST.run_call(config, *frames, resident=resident)
    assert not slow.fast_path_used
    slow_snap, fast_snap = _snapshot(slow), _snapshot(fast)
    for key in slow_snap:
        assert slow_snap[key] == fast_snap[key], (
            f"{key} diverged for {config.op.name} on {config.fmt.name}: "
            f"per-cycle {slow_snap[key]} vs fast {fast_snap[key]}")
    if slow.frame is not None:
        assert slow.frame.equals(fast.frame)
    # The static analyzer's prediction must match the dispatch decision
    # the engine actually took (they share fast_path_blockers; this
    # holds the contract over the whole corpus).
    prediction = predict_fast_path(config, EngineParams.from_engine(FAST))
    assert prediction.eligible == fast.fast_path_used, (
        f"analyzer predicted eligible={prediction.eligible} "
        f"(reasons={prediction.reasons}) but the engine used "
        f"fast_path={fast.fast_path_used} for {config.op.name} on "
        f"{config.fmt.name}")
    return fast


def _random_case(rng):
    width = rng.randrange(4, 25)
    height = rng.choice([8, 16, 24, 32, 33, 40, 48])
    fmt = ImageFormat(f"P{width}x{height}", width, height)
    frame_a = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.5:
        config = intra_config(rng.choice(_INTRA), fmt)
        frames = [frame_a]
        resident = [rng.random() < 0.2]
    else:
        reduce_to_scalar = rng.random() < 0.3
        requires_full_frames = fmt.strips >= 2 and rng.random() < 0.3
        config = inter_config(rng.choice(_INTER), fmt,
                              reduce_to_scalar=reduce_to_scalar,
                              requires_full_frames=requires_full_frames)
        frames = [frame_a, noise_frame(fmt, seed=rng.randrange(10_000))]
        resident = [rng.random() < 0.2, rng.random() < 0.2]
    if not any(resident):
        resident = None
    return config, frames, resident


def _latency_cases(latency, fmt):
    """``(label, config, input count, resident)`` for every call shape,
    with each op's stage-3 latency set to ``latency``."""
    inter = replace(INTER_OPS["inter_absdiff"], engine_cycles=latency)
    for name in ("intra_grad", "intra_median3"):
        intra = replace(INTRA_OPS[name], engine_cycles=latency)
        yield name, intra_config(intra, fmt), 1, None
        yield f"{name}-resident", intra_config(intra, fmt), 1, [True]
    yield "inter", inter_config(inter, fmt), 2, None
    yield ("inter-reduce", inter_config(inter, fmt, reduce_to_scalar=True),
           2, None)
    yield ("full-frames",
           inter_config(inter, fmt, requires_full_frames=True), 2, None)
    yield ("full-frames-reduce",
           inter_config(inter, fmt, reduce_to_scalar=True,
                        requires_full_frames=True), 2, None)
    yield "inter-resident", inter_config(inter, fmt), 2, [True, False]
    yield ("reduce-resident",
           inter_config(inter, fmt, reduce_to_scalar=True), 2, [True, True])


class TestFastPathEquivalence:
    @pytest.mark.parametrize("shard", range(SHARDS))
    def test_randomized_equivalence(self, shard):
        rng = random.Random(0xFA57 + shard)
        for _ in range(CASES_PER_SHARD):
            config, frames, resident = _random_case(rng)
            _assert_equivalent(config, frames, resident=resident)

    def test_fast_path_engages_on_standard_calls(self):
        fmt = ImageFormat("P24x48", 24, 48)
        frame = noise_frame(fmt, seed=7)
        run = FAST.run_call(intra_config(INTRA_OPS["intra_sobel_x"], fmt),
                            frame)
        assert run.fast_path_used


class TestLongLatencyEquivalence:
    @pytest.mark.parametrize("latency", LONG_LATENCIES)
    @pytest.mark.parametrize("fmt", LATENCY_FORMATS,
                             ids=lambda fmt: fmt.name)
    def test_long_latency_calls_are_cycle_exact(self, latency, fmt):
        frames = [noise_frame(fmt, seed=latency),
                  noise_frame(fmt, seed=latency + 100)]
        for label, config, inputs, resident in _latency_cases(latency, fmt):
            run = _assert_equivalent(config, frames[:inputs],
                                     resident=resident)
            assert run.fast_path_used, label

    def test_grad_uses_fast_path(self):
        # Stage-3 latency above two cycles is in the batched regime: the
        # engine takes the fast path and reproduces the per-cycle run.
        fmt = ImageFormat("P20x48", 20, 48)
        frame = noise_frame(fmt, seed=11)
        op = INTRA_OPS["intra_grad"]
        assert op.engine_cycles > 2
        run = _assert_equivalent(intra_config(op, fmt), [frame])
        assert run.fast_path_used


class TestFastPathFallbacks:

    def test_single_strip_frame_falls_back_and_matches(self):
        fmt = ImageFormat("P24x16", 24, 16)
        assert fmt.strips < 2
        frame = noise_frame(fmt, seed=13)
        run = _assert_equivalent(
            intra_config(INTRA_OPS["intra_sobel_y"], fmt), [frame])
        assert not run.fast_path_used

    def test_explicit_override_forces_per_cycle(self):
        fmt = ImageFormat("P24x48", 24, 48)
        frame = noise_frame(fmt, seed=17)
        run = FAST.run_call(intra_config(INTRA_OPS["intra_copy"], fmt),
                            frame, fast_path=False)
        assert not run.fast_path_used


class TestDeadlockDiagnostics:
    @pytest.mark.parametrize("engine", [FAST, SLOW],
                             ids=["fast", "per-cycle"])
    def test_deadlock_message_reports_component_progress(self, engine):
        fmt = ImageFormat("P24x48", 24, 48)
        frame = noise_frame(fmt, seed=19)
        config = intra_config(INTRA_OPS["intra_sobel_x"], fmt)
        with pytest.raises(EngineDeadlock) as excinfo:
            engine.run_call(config, frame, max_cycles=500)
        message = str(excinfo.value)
        assert "500 cycles" in message
        assert "strip=" in message
        assert "lines_moved=" in message
        assert "retired=" in message
        assert "dma words" in message
        assert "readback=" in message
