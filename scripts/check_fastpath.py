"""Fast-path vs per-cycle equivalence sweep (a CI gate).

Runs every intra and inter op -- ``intra_grad`` (stage-3 latency 3),
``intra_median3`` (4) and a synthetic latency-5 intra op included --
plus the reduce, full-frame and resident call shapes on four small
geometries, once per stepper, and compares every cycle-level
observable.  Every case also checks that the static analyzer's
fast-path prediction (:func:`repro.analysis.predict_fast_path`) agrees
with the dispatch decision the engine actually took -- one source of
truth for the eligibility regime, enforced here and in the integration
suite.  Exits non-zero on any mismatch or disagreement.

Usage: ``PYTHONPATH=src python scripts/check_fastpath.py``
"""
import sys
import time
from dataclasses import replace

from repro.addresslib import INTER_OPS, INTRA_OPS
from repro.analysis import EngineParams, predict_fast_path
from repro.core import AddressEngine, inter_config, intra_config
from repro.image import ImageFormat, noise_frame

FAST = AddressEngine(fast_path=True)
SLOW = AddressEngine(fast_path=False)
FAST_PARAMS = EngineParams.from_engine(FAST)
#: A synthetic op whose FLOW period (five engine cycles for two pixels)
#: no shipped op has.
INTRA_LATENCY5 = replace(INTRA_OPS["intra_box3"], name="intra_box3_lat5",
                         engine_cycles=5)


def snap(run):
    s = run.plc_stats
    d = {
        "cycles": run.cycles,
        "completion": run.completion_cycle,
        "input_complete": run.input_complete_cycle,
        "plc": (s.cycles, s.active_cycles, s.issued_pixel_cycles,
                s.retired_pixel_cycles, s.stall_iim_wait, s.stall_oim_full,
                s.stall_op_busy, s.stall_disabled, s.loads, s.shifts),
        "zbt": [(b.reads, b.writes) for b in run.zbt.stats],
        "zbt_misc": (run.zbt.word_accesses, run.zbt.access_cycles,
                     run.zbt.pixel_ops),
        "pci": (run.pci.busy_cycles, run.pci.stall_cycles,
                run.pci.overhead_cycles, run.pci.idle_cycles,
                run.pci.words_to_board, run.pci.words_to_host),
        "irq": [(i.cycle, i.name) for i in run.pci.interrupts],
        "txu": [(t.pixels_moved, t.stall_no_strip, t.stall_iim_full,
                 t.stall_bank_busy) for t in run.input_txus],
        "oim_peak": run.oim_peak_pixels,
        "matrix": (run.matrix_loads, run.matrix_shifts,
                   run.matrix_pixels_fetched),
        "scalar": run.scalar,
    }
    if run.output_txu is not None:
        o = run.output_txu
        d["out"] = (o.pixels_written, o.words_written, tuple(o.bank_words),
                    o.stall_oim_empty, o.stall_bank_busy)
    return d


def compare(label, config, *frames, resident=None):
    t0 = time.time()
    slow = SLOW.run_call(config, *frames, resident=resident)
    t1 = time.time()
    fast = FAST.run_call(config, *frames, resident=resident)
    t2 = time.time()
    a, b = snap(slow), snap(fast)
    ok = True
    for key in a:
        if a[key] != b[key]:
            ok = False
            print(f"FAIL {label}: {key}\n  slow={a[key]}\n  fast={b[key]}")
    if slow.frame is not None and not slow.frame.equals(fast.frame):
        ok = False
        print(f"FAIL {label}: frame mismatch")
    prediction = predict_fast_path(config, FAST_PARAMS)
    if prediction.eligible != fast.fast_path_used:
        ok = False
        print(f"FAIL {label}: analyzer predicted "
              f"eligible={prediction.eligible} "
              f"(reasons={prediction.reasons}) but engine used "
              f"fast_path={fast.fast_path_used}")
    status = "ok " if ok else "BAD"
    print(f"{status} {label}: cycles={slow.cycles} fast_used="
          f"{fast.fast_path_used} slow={t1-t0:.2f}s fast={t2-t1:.2f}s "
          f"speedup={(t1-t0)/max(t2-t1,1e-9):.1f}x")
    return ok


def main():
    ok = True
    fmts = [ImageFormat("P24x48", 24, 48), ImageFormat("P20x40", 20, 40),
            ImageFormat("P24x24", 24, 24), ImageFormat("P16x33", 16, 33)]
    for fmt in fmts:
        frame = noise_frame(fmt, seed=1)
        frame_b = noise_frame(fmt, seed=2)
        for name, op in sorted(INTRA_OPS.items()):
            ok &= compare(f"intra:{name}:{fmt.name}",
                          intra_config(op, fmt), frame)
        ok &= compare(f"intra:{INTRA_LATENCY5.name}:{fmt.name}",
                      intra_config(INTRA_LATENCY5, fmt), frame)
        for name, op in sorted(INTER_OPS.items()):
            ok &= compare(f"inter:{name}:{fmt.name}",
                          inter_config(op, fmt), frame, frame_b)
        absdiff = INTER_OPS["inter_absdiff"]
        ok &= compare(f"reduce:sad:{fmt.name}",
                      inter_config(absdiff, fmt, reduce_to_scalar=True),
                      frame, frame_b)
        ok &= compare(f"special:absdiff:{fmt.name}",
                      inter_config(absdiff, fmt, requires_full_frames=True),
                      frame, frame_b)
        ok &= compare(f"special-reduce:sad:{fmt.name}",
                      inter_config(absdiff, fmt, reduce_to_scalar=True,
                                   requires_full_frames=True),
                      frame, frame_b)
        ok &= compare(f"resident:sad:{fmt.name}",
                      inter_config(absdiff, fmt, reduce_to_scalar=True),
                      frame, frame_b, resident=[True, True])
        ok &= compare(f"resident-one:sad:{fmt.name}",
                      inter_config(absdiff, fmt, reduce_to_scalar=True),
                      frame, frame_b, resident=[False, True])
        ok &= compare(f"resident:copy-intra:{fmt.name}",
                      intra_config(INTRA_OPS["intra_copy"], fmt), frame,
                      resident=[True])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
