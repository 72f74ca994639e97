"""Property-based checks of the system's core invariants.

Hypothesis drives randomised frames, operations and geometries through
the heaviest contracts of the reproduction:

* the cycle-level engine always matches the vector executor bit-exactly;
* the closed-form timing always matches the simulator for ordinary calls;
* segment expansion is criterion-sound and geodesic;
* the v2 hardware unit always equals the software scheme;
* the counted executor's access totals follow the analytic law.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (AddressLib, CON_4, COUNTED_EXECUTOR_KINDS,
                              CountedExecutor, INTER_OPS, INTRA_OPS,
                              SoftwareCostModel, counted_executor,
                              luma_delta_criterion)
from repro.core import (AddressEngine, SegmentCallConfig, SegmentUnit,
                        inter_config, intra_config)
from repro.image import ImageFormat, PlanarFrame420, noise_frame
from repro.perf import EngineTimingModel

ENGINE = AddressEngine()
TIMING = EngineTimingModel()

# Small frame geometries: width >= 4, height >= 4, heights crossing the
# 16-line strip boundary occasionally.
geometries = st.tuples(st.integers(4, 24), st.sampled_from([4, 8, 16, 24]))

# Geometries with at least two strips: the regime the paper's formats
# (9 and 18 strips) live in, where Res_block_A prefills during the input
# phase and the closed-form timing is exact.
multistrip_geometries = st.tuples(st.integers(4, 24),
                                  st.sampled_from([32, 48]))
intra_ops = st.sampled_from(sorted(INTRA_OPS.values(),
                                   key=lambda op: op.name))
inter_ops = st.sampled_from(sorted(INTER_OPS.values(),
                                   key=lambda op: op.name))
seeds = st.integers(0, 10_000)


def fmt_of(geometry):
    width, height = geometry
    return ImageFormat(f"P{width}x{height}", width, height)


class TestEngineGoldenProperty:
    @given(geometry=geometries, op=intra_ops, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_intra_always_matches_vector_executor(self, geometry, op,
                                                  seed):
        fmt = fmt_of(geometry)
        frame = noise_frame(fmt, seed=seed)
        config = intra_config(op, fmt)
        run = ENGINE.run_call(config, frame)
        assert run.frame.equals(AddressEngine.run_functional(config,
                                                             frame))

    @given(geometry=geometries, op=inter_ops, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_inter_always_matches_vector_executor(self, geometry, op,
                                                  seed):
        fmt = fmt_of(geometry)
        a = noise_frame(fmt, seed=seed)
        b = noise_frame(fmt, seed=seed + 1)
        config = inter_config(op, fmt)
        run = ENGINE.run_call(config, a, b)
        assert run.frame.equals(AddressEngine.run_functional(config, a, b))

    @given(geometry=multistrip_geometries,
           op=intra_ops.filter(lambda op: op.engine_cycles <= 3),
           seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_timing_model_exact_in_v1_regime(self, geometry, op, seed):
        """The closed form is exact in the regime the paper evaluates:
        frames of two or more strips (QCIF has 9, CIF 18) and stage-3
        latencies of at most three cycles, where the strip double
        buffering hides all processing."""
        fmt = fmt_of(geometry)
        frame = noise_frame(fmt, seed=seed)
        config = intra_config(op, fmt)
        run = ENGINE.run_call(config, frame)
        assert TIMING.call_cycles(config) == run.cycles

    def test_single_strip_frames_exceed_the_closed_form(self):
        """Outside that regime the simulator reveals a real effect the
        closed form ignores: on a single-strip frame nothing prefills
        Res_block_A during the input phase, so the whole readback drains
        bank B while the output TxU still writes it -- port contention
        stretches the call by up to ~35 % (worse for slow ops, whose
        production further gates the readback).  The paper's formats
        never hit this."""
        from repro.addresslib import INTRA_BOX3, INTRA_MEDIAN3
        fmt = ImageFormat("SLOW24", 24, 16)
        frame = noise_frame(fmt, seed=3)
        for op in (INTRA_BOX3, INTRA_MEDIAN3):
            config = intra_config(op, fmt)
            run = ENGINE.run_call(config, frame)
            model = TIMING.call_cycles(config)
            assert model < run.cycles <= int(1.35 * model), op.name

    def test_latency_four_two_strip_frames_exceed_the_closed_form(self):
        """At stage-3 latency 4 the Process Unit retires a pixel every
        two cycles, the readback's own pace, so on a two-strip frame the
        readback catches the producer on Res_block_B and stalls behind
        it.  From three strips the closed form holds again."""
        median3 = INTRA_OPS["intra_median3"]
        assert median3.engine_cycles == 4
        excess = {(24, 32): (3_286, 3_264), (32, 24): (3_457, 3_264),
                  (48, 32): (6_412, 6_336), (64, 48): (12_544, 12_544)}
        for (width, height), (simulated, closed_form) in excess.items():
            fmt = fmt_of((width, height))
            config = intra_config(median3, fmt)
            run = ENGINE.run_call(config, noise_frame(fmt, seed=5))
            assert (run.cycles, TIMING.call_cycles(config)) == (
                simulated, closed_form), fmt.name
            assert run.cycles - closed_form == run.pci.stall_cycles

    @given(geometry=geometries, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_pixel_ops_always_two_per_pixel(self, geometry, seed):
        fmt = fmt_of(geometry)
        frame = noise_frame(fmt, seed=seed)
        from repro.addresslib import INTRA_HOMOGENEITY
        run = ENGINE.run_call(intra_config(INTRA_HOMOGENEITY, fmt), frame)
        assert run.zbt_pixel_ops == 2 * fmt.pixels


class TestSegmentProperties:
    @given(geometry=geometries, seed=seeds,
           delta=st.integers(0, 64),
           seed_pos=st.tuples(st.integers(0, 3), st.integers(0, 3)))
    @settings(max_examples=25, deadline=None)
    def test_expansion_is_criterion_sound(self, geometry, seed, delta,
                                          seed_pos):
        """Every non-seed labelled pixel joined through a neighbour whose
        luma difference satisfied the criterion: therefore each labelled
        pixel has a labelled 4-neighbour within delta (its parent)."""
        fmt = fmt_of(geometry)
        frame = noise_frame(fmt, seed=seed)
        sx = min(seed_pos[0], fmt.width - 1)
        sy = min(seed_pos[1], fmt.height - 1)
        lib = AddressLib()
        result = lib.segment(frame, [(sx, sy)],
                             luma_delta_criterion(delta))
        labels = result.labels
        luma = frame.y.astype(int)
        for y in range(fmt.height):
            for x in range(fmt.width):
                if labels[y, x] < 0 or (x, y) == (sx, sy):
                    continue
                has_parent = False
                for dx, dy in ((0, -1), (-1, 0), (1, 0), (0, 1)):
                    nx, ny = x + dx, y + dy
                    if not fmt.contains(nx, ny):
                        continue
                    if labels[ny, nx] >= 0 and \
                            abs(luma[ny, nx] - luma[y, x]) <= delta:
                        has_parent = True
                        break
                assert has_parent, (x, y)

    @given(geometry=geometries, seed=seeds, delta=st.integers(0, 255))
    @settings(max_examples=20, deadline=None)
    def test_v2_unit_always_matches_software(self, geometry, seed, delta):
        fmt = fmt_of(geometry)
        frame = noise_frame(fmt, seed=seed)
        seeds_list = [(fmt.width // 2, fmt.height // 2), (0, 0)]
        from repro.addresslib import SegmentProcessor
        software = SegmentProcessor(CON_4).expand(
            frame, seeds_list, luma_delta_criterion(delta))
        run = SegmentUnit().run_call(
            SegmentCallConfig(fmt, luma_delta=delta), frame, seeds_list)
        assert np.array_equal(run.labels, software.labels)
        assert np.array_equal(run.distance, software.distance)

    @given(geometry=geometries, seed=seeds, delta=st.integers(0, 40))
    @settings(max_examples=15, deadline=None)
    def test_distances_are_geodesic(self, geometry, seed, delta):
        """Distance decreases by exactly one towards some labelled
        neighbour -- the BFS/geodesic property."""
        fmt = fmt_of(geometry)
        frame = noise_frame(fmt, seed=seed)
        lib = AddressLib()
        result = lib.segment(frame, [(0, 0)], luma_delta_criterion(delta))
        distance = result.distance
        for y in range(fmt.height):
            for x in range(fmt.width):
                if distance[y, x] <= 0:
                    continue
                closer = [
                    distance[y + dy, x + dx]
                    for dx, dy in ((0, -1), (-1, 0), (1, 0), (0, 1))
                    if fmt.contains(x + dx, y + dy)
                ]
                assert distance[y, x] - 1 in closer


class TestAccessCountLaw:
    @given(geometry=geometries, seed=seeds,
           kind=st.sampled_from(COUNTED_EXECUTOR_KINDS))
    @settings(max_examples=10, deadline=None)
    def test_counted_con8_follows_4n_plus_fill(self, geometry, seed, kind):
        fmt = fmt_of(geometry)
        frame = noise_frame(fmt, seed=seed)
        from repro.addresslib import INTRA_HOMOGENEITY
        src = PlanarFrame420.from_frame(frame)
        dst = PlanarFrame420(fmt, src.counter)
        counted_executor(kind).intra(INTRA_HOMOGENEITY, src, dst)
        assert src.counter.total == 4 * fmt.pixels + 6

    @given(geometry=geometries)
    @settings(max_examples=10, deadline=None)
    def test_analytic_model_scales_linearly(self, geometry):
        fmt = fmt_of(geometry)
        model = SoftwareCostModel()
        from repro.addresslib import INTRA_HOMOGENEITY
        accesses = model.intra_accesses(INTRA_HOMOGENEITY, fmt)
        assert accesses == 4 * fmt.pixels
