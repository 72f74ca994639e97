"""Golden-output tests: one per rule class, asserting rule id,
severity and message content."""

from __future__ import annotations

import pytest

from repro.addresslib import (AddressingMode, COLUMN_9, CON_8, ChannelSet,
                              INTER_ABSDIFF, INTRA_BOX3, INTRA_GRAD,
                              INTRA_MEDIAN3, erode_op)
from repro.addresslib.program import CallProgram, ProgramStep
from repro.analysis import (EngineParams, ProgramCheckError, RULES,
                            Severity, analyze_config, analyze_program,
                            check_program, predict_fast_path)
from repro.core.config import inter_config, intra_config
from repro.image import ImageFormat

FMT2 = ImageFormat("T32", 32, 32)          # two strips, tiny
BIG = ImageFormat("4CIF", 704, 576)        # overflows a result bank
ONESTRIP = ImageFormat("T16", 16, 16)      # single strip


def _step(index=0, mode=AddressingMode.INTRA, op=INTRA_BOX3, fmt=FMT2,
          inputs=("in0",), output="t0", **kwargs):
    return ProgramStep(index=index, mode=mode, op=op, fmt=fmt,
                       channels=ChannelSet.Y, inputs=inputs,
                       output=output, **kwargs)


def _program(*steps, inputs=("in0",), results=()):
    return CallProgram(name="hand", fmt=steps[0].fmt, inputs=inputs,
                       steps=tuple(steps), results=tuple(results))


class TestCatalogue:
    def test_every_rule_has_stable_fields(self):
        for rule_id, rule in RULES.items():
            assert rule.rule_id == rule_id
            assert rule.layer in ("configuration", "capacity", "hazard",
                                  "liveness", "fast-path", "scheduling",
                                  "service", "transport", "residency",
                                  "pool")
            assert rule.title

    def test_diagnostic_format_line(self):
        report = analyze_config(intra_config(INTRA_BOX3, BIG))
        line = report.errors[0].format()
        assert line.startswith("error CAP001")
        assert "result bank" in line


class TestConfigurationRules:
    def test_cfg001_wrong_op_kind(self):
        step = _step(mode=AddressingMode.INTER, op=INTRA_BOX3,
                     inputs=("in0", "in1"))
        report = analyze_program(
            _program(step, inputs=("in0", "in1"), results=("t0",)))
        (diag,) = report.by_rule("CFG001")
        assert diag.severity is Severity.ERROR
        assert "InterOp" in diag.message


class TestCapacityRules:
    def test_cap001_result_bank_overflow(self):
        report = analyze_config(intra_config(INTRA_BOX3, BIG))
        (diag,) = report.by_rule("CAP001")
        assert diag.severity is Severity.ERROR
        assert "4CIF" in diag.message and "131072" in diag.message
        assert not report.ok

    def test_cap001_scalar_reduce_is_exempt(self):
        config = inter_config(INTER_ABSDIFF, BIG, reduce_to_scalar=True)
        assert not analyze_config(config).by_rule("CAP001")

    def test_cap002_inter_input_overflow(self):
        report = analyze_config(
            inter_config(INTER_ABSDIFF, BIG, reduce_to_scalar=True))
        (diag,) = report.by_rule("CAP002")
        assert "input" in diag.message

    def test_cap003_iim_ablation(self):
        config = intra_config(erode_op(COLUMN_9), FMT2)
        params = EngineParams(iim_lines=4)
        (diag,) = analyze_config(config, params).by_rule("CAP003")
        assert "9 lines" in diag.message
        assert not analyze_config(config).by_rule("CAP003")

    def test_cap005_partial_strip_info(self):
        fmt = ImageFormat("T16x33", 16, 33)
        (diag,) = analyze_config(
            intra_config(INTRA_BOX3, fmt)).by_rule("CAP005")
        assert diag.severity is Severity.INFO

    def test_clean_config_is_clean(self):
        report = analyze_config(intra_config(INTRA_BOX3, FMT2))
        assert report.ok and not report.warnings


class TestHazardRules:
    def test_haz001_ghost_read(self):
        step = _step(inputs=("ghost",))
        (diag,) = analyze_program(_program(step)).by_rule("HAZ001")
        assert "'ghost'" in diag.message

    def test_haz002_in_place(self):
        step = _step(inputs=("in0",), output="in0")
        report = analyze_program(_program(step, results=("in0",)))
        (diag,) = report.by_rule("HAZ002")
        assert "in place" in diag.message

    def test_haz003_residency_without_previous_call(self):
        step = _step(resident=(True,))
        (diag,) = analyze_program(
            _program(step, results=("t0",))).by_rule("HAZ003")
        assert "residency" in diag.message

    def test_haz003_layout_change_invalidates_claim(self):
        first = _step(index=0, mode=AddressingMode.INTER,
                      op=INTER_ABSDIFF, inputs=("in0", "in1"),
                      output="t0")
        second = _step(index=1, inputs=("in0",), output="t1",
                       resident=(True,))
        report = analyze_program(_program(
            first, second, inputs=("in0", "in1"), results=("t1",)))
        (diag,) = report.by_rule("HAZ003")
        assert "block_A/block_B" in diag.message

    def test_haz003_same_slot_claim_is_valid(self):
        first = _step(index=0, inputs=("in0",), output="t0")
        second = _step(index=1, inputs=("in0",), output="t1",
                       resident=(True,))
        report = analyze_program(
            _program(first, second, results=("t0", "t1")))
        assert not report.by_rule("HAZ003")

    def test_haz003_previous_result_claim_is_valid(self):
        first = _step(index=0, inputs=("in0",), output="t0")
        second = _step(index=1, inputs=("t0",), output="t1",
                       resident=(True,))
        report = analyze_program(
            _program(first, second, results=("t1",)))
        assert not report.by_rule("HAZ003")

    def test_haz004_duplicate_inter_inputs(self):
        step = _step(mode=AddressingMode.INTER, op=INTER_ABSDIFF,
                     inputs=("in0", "in0"))
        (diag,) = analyze_program(
            _program(step, results=("t0",))).by_rule("HAZ004")
        assert diag.severity is Severity.WARNING

    def test_haz005_dead_store(self):
        step = _step()
        (diag,) = analyze_program(_program(step)).by_rule("HAZ005")
        assert "dead" in diag.message

    def test_haz006_format_mismatch(self):
        first = _step(index=0)
        second = _step(index=1, fmt=ONESTRIP, inputs=("t0",),
                       output="t1")
        report = analyze_program(
            _program(first, second, results=("t1",)))
        (diag,) = report.by_rule("HAZ006")
        assert "T32" in diag.message and "T16" in diag.message


class TestLivenessRules:
    def test_liv001_bound_below_floor(self):
        fmt = ImageFormat("P24x48", 24, 48)
        config = inter_config(INTER_ABSDIFF, fmt)
        report = analyze_config(config, EngineParams(max_cycles=500))
        (diag,) = report.by_rule("LIV001")
        assert "guaranteed EngineDeadlock" in diag.message

    def test_liv002_zero_plc_rate(self):
        report = analyze_config(intra_config(INTRA_BOX3, FMT2),
                                EngineParams(plc_ticks_per_cycle=0))
        assert report.by_rule("LIV002")

    def test_liv003_zero_txu_rate(self):
        report = analyze_config(intra_config(INTRA_BOX3, FMT2),
                                EngineParams(input_txu_ticks_per_cycle=0))
        assert report.by_rule("LIV003")

    def test_liv004_risky_bound_warns(self):
        config = intra_config(INTRA_BOX3, FMT2)
        report = analyze_config(config, EngineParams(max_cycles=50_000))
        (diag,) = report.by_rule("LIV004")
        assert diag.severity is Severity.WARNING
        assert report.ok

    def test_generous_bound_is_silent(self):
        config = intra_config(INTRA_BOX3, FMT2)
        report = analyze_config(config,
                                EngineParams(max_cycles=10_000_000))
        assert not report.by_rule("LIV001")
        assert not report.by_rule("LIV004")


class TestFastPathRules:
    def test_long_latency_op_has_no_fast_path_finding(self):
        # The batched stepper plans any stage-3 latency: a latency-3 op
        # on a multi-strip frame raises no fast-path rule at all.
        report = analyze_config(intra_config(INTRA_GRAD, FMT2))
        assert not [diag for diag in report.diagnostics
                    if diag.rule_id.startswith("FPA")]

    def test_fpa002_single_strip(self):
        (diag,) = analyze_config(
            intra_config(INTRA_BOX3, ONESTRIP)).by_rule("FPA002")
        assert "strip" in diag.message

    def test_fpa003_tick_rates(self):
        report = analyze_config(intra_config(INTRA_BOX3, FMT2),
                                EngineParams(plc_ticks_per_cycle=1))
        assert report.by_rule("FPA003")

    def test_fpa004_disabled_engine(self):
        report = analyze_config(intra_config(INTRA_BOX3, FMT2),
                                EngineParams(fast_path=False))
        assert report.by_rule("FPA004")

    def test_prediction_object(self):
        assert predict_fast_path(intra_config(INTRA_BOX3, FMT2)).eligible
        prediction = predict_fast_path(intra_config(INTRA_MEDIAN3, FMT2))
        assert prediction.eligible
        assert prediction.reasons == ()


class TestCheckProgram:
    def test_check_raises_with_report(self):
        config = intra_config(INTRA_BOX3, BIG)
        with pytest.raises(ProgramCheckError) as excinfo:
            check_program(config)
        assert excinfo.value.report.by_rule("CAP001")
        assert "CAP001" in str(excinfo.value)

    def test_check_passes_clean(self):
        report = check_program(intra_config(INTRA_BOX3, FMT2))
        assert report.ok
