"""The pixel level controller: pipeline overlap, stalls, the arbiter,
and the steady FLOW signature the batched fast path keys on."""

from dataclasses import replace

import pytest

from repro.addresslib import INTRA_COPY, INTRA_GRAD
from repro.core import (Arbiter, ArbiterConflict, IIM_LINES,
                        InputIntermediateMemory, OutputIntermediateMemory,
                        PLC_TICKS_PER_CYCLE, PixelLevelController,
                        ProcessUnit, intra_config)
from repro.core.plc import PLC_FLOW
from repro.image import ImageFormat, noise_frame

FMT = ImageFormat("T6x4", 6, 4)


def make_plc(op=INTRA_COPY, fmt=FMT, preload_lines=None, oim_lines=4):
    """A PLC over a hand-fed IIM (no TxU/DMA in the loop)."""
    config = intra_config(op, fmt)
    iim = InputIntermediateMemory(fmt.width, IIM_LINES, images=1)
    oim = OutputIntermediateMemory(fmt.width, oim_lines)
    pu = ProcessUnit(config, iim, oim)
    plc = PixelLevelController(pu)
    frame = noise_frame(fmt, seed=55)
    lower, upper = frame.to_words()
    lines = fmt.height if preload_lines is None else preload_lines
    for y in range(lines):
        for x in range(fmt.width):
            iim.fifo(0).push_pixel(int(lower[y, x]), int(upper[y, x]))
    return plc, iim, oim


class TestArbiter:
    def test_conflicting_claim_raises(self):
        arbiter = Arbiter()
        arbiter.begin_cycle()
        arbiter.claim("alu", "OP#0")
        with pytest.raises(ArbiterConflict):
            arbiter.claim("alu", "OP#1")

    def test_claims_reset_per_cycle(self):
        arbiter = Arbiter()
        arbiter.begin_cycle()
        arbiter.claim("alu", "OP#0")
        arbiter.begin_cycle()
        arbiter.claim("alu", "OP#1")
        assert arbiter.total_claims == 2


class TestPipelineOverlap:
    def test_startpipeline_fills_all_stages(self):
        """'Instructions of different pixel-cycles in the different
        stages of the Process Unit' -- steady state has every stage busy."""
        plc, _, _ = make_plc()
        for _ in range(4):
            plc.tick()
        assert plc.stage_occupancy() == (True, True, True, True)

    def test_one_pixel_cycle_per_tick_steady_state(self):
        plc, _, _ = make_plc()
        total_ticks = 0
        while not plc.done:
            plc.tick()
            total_ticks += 1
            assert total_ticks < 1000
        # 4-stage fill + one retire per tick afterwards.
        assert total_ticks == pytest.approx(FMT.pixels + 4, abs=3)

    def test_multi_cycle_op_throttles_issue(self):
        fast, _, _ = make_plc(INTRA_COPY)
        slow, _, _ = make_plc(INTRA_GRAD)   # engine_cycles == 3
        for plc in (fast, slow):
            while not plc.done:
                plc.tick()
        assert slow.stats.cycles > fast.stats.cycles
        assert slow.stats.stall_op_busy > 0

    def test_loads_at_row_starts_shifts_elsewhere(self):
        plc, _, _ = make_plc(INTRA_GRAD)
        while not plc.done:
            plc.tick()
        assert plc.stats.loads == FMT.height
        assert plc.stats.shifts == FMT.pixels - FMT.height


class TestStalls:
    def test_missing_iim_lines_stall_stage2(self):
        plc, iim, _ = make_plc(INTRA_GRAD, preload_lines=1)
        for _ in range(20):
            plc.tick()
        # Row 0 of a 3x3 neighbourhood needs line 1: not resident yet.
        assert plc.stats.stall_iim_wait > 0
        assert plc.stats.retired_pixel_cycles == 0

    def test_stalled_stage2_resumes_when_line_arrives(self):
        plc, iim, _ = make_plc(INTRA_GRAD, preload_lines=1)
        for _ in range(10):
            plc.tick()
        frame = noise_frame(FMT, seed=55)
        lower, upper = frame.to_words()
        for y in (1, 2, 3):
            for x in range(FMT.width):
                iim.fifo(0).push_pixel(int(lower[y, x]), int(upper[y, x]))
        while not plc.done:
            plc.tick()
        assert plc.stats.retired_pixel_cycles == FMT.pixels

    def test_full_oim_backpressures(self):
        plc, _, oim = make_plc(INTRA_COPY, oim_lines=1)
        # OIM capacity = 6 pixels; nothing drains it here.
        for _ in range(60):
            if plc.done:
                break
            plc.tick()
        assert oim.full
        assert plc.stats.stall_oim_full > 0
        assert plc.stats.retired_pixel_cycles == oim.capacity_pixels

    def test_disable_holds_new_pixel_cycles(self):
        plc, _, _ = make_plc()
        plc.enabled = False
        for _ in range(5):
            plc.tick()
        assert plc.stats.issued_pixel_cycles == 0
        assert plc.stats.stall_disabled == 5
        plc.enabled = True
        plc.tick()
        assert plc.stats.issued_pixel_cycles == 1

    def test_disable_drains_in_flight_work(self):
        """Disabling stops *new* pixel-cycles; in-flight ones finish --
        'will not proceed with any more pixel-cycles'."""
        plc, _, _ = make_plc()
        for _ in range(3):
            plc.tick()
        issued = plc.stats.issued_pixel_cycles
        plc.enabled = False
        for _ in range(10):
            plc.tick()
        assert plc.stats.retired_pixel_cycles >= issued - 1


class TestFastFlowSignature:
    @pytest.mark.parametrize("latency, period", [
        (1, (1, 2)), (2, (1, 1)), (3, (3, 2)), (4, (2, 1)), (5, (5, 2))])
    def test_period_is_lcm_of_latency_and_ticks(self, latency, period):
        plc, _, _ = make_plc(replace(INTRA_COPY, engine_cycles=latency))
        assert plc.fast_flow_period == period

    @pytest.mark.parametrize("latency", [3, 4, 5])
    def test_flow_exactly_at_the_canonical_phase(self, latency):
        """FLOW is reported at an engine-cycle boundary iff stages 1-3
        hold work, stage 4 is empty and the very next tick executes
        stage 3 -- and those boundaries recur once per period, each
        period retiring the period's pixel-cycles."""
        fmt = ImageFormat("T12x8", 12, 8)
        plc, _, _ = make_plc(replace(INTRA_COPY, engine_cycles=latency),
                             fmt=fmt, oim_lines=fmt.height)
        period, pixels = plc.fast_flow_period
        flows = []
        cycle = 0
        while not plc.done:
            mode = plc.fast_mode()
            occupancy = plc.stage_occupancy()
            ops_before = plc.pu.ops_executed
            retired = plc.stats.retired_pixel_cycles
            plc.tick()
            executes_next = plc.pu.ops_executed > ops_before
            canonical = (occupancy == (True, True, True, False)
                         and executes_next)
            assert (mode == PLC_FLOW) == canonical, (cycle, mode)
            if canonical:
                flows.append((cycle, retired))
            for _ in range(PLC_TICKS_PER_CYCLE - 1):
                if not plc.done:
                    plc.tick()
            cycle += 1
        assert len(flows) > fmt.pixels // pixels - 4
        for (c0, r0), (c1, r1) in zip(flows, flows[1:]):
            assert (c1 - c0, r1 - r0) == (period, pixels)
