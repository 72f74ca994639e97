"""GME with an engine pool: identical estimates.

Attaching an :class:`EnginePool` to the estimator spreads the per-pair
reference intra calls (Sobel per level, homogeneity mask) over its
boards.  The estimate must be bit-identical to the serial run -- same
model parameters, same SAD trajectory, same blend mask -- because the
pool executes the very same vector ops.
"""

import numpy as np

from repro.addresslib import AddressLib, AddressingMode
from repro.gme import GlobalMotionEstimator, GmeSettings, TranslationalModel
from repro.image import ImageFormat, frame_from_luma, textured_panorama
from repro.gme import AffineModel, warp_luma
from repro.pool import EnginePool

FMT = ImageFormat("G96", 96, 96)


def _frame_pair(tx=3.0, ty=-2.0, seed=9):
    pano = textured_panorama(FMT.width * 3, FMT.height * 3, seed=seed)
    base = AffineModel(tx=FMT.width, ty=FMT.height)
    ref_luma, _ = warp_luma(pano, base,
                            output_shape=(FMT.height, FMT.width))
    pair = TranslationalModel(tx, ty).to_affine()
    cur_pose = base.compose(pair)
    cur_luma, _ = warp_luma(pano, cur_pose,
                            output_shape=(FMT.height, FMT.width))
    return frame_from_luma(FMT, ref_luma), frame_from_luma(FMT, cur_luma)


def _estimate(ref, cur, pool=None):
    lib = AddressLib()
    estimator = GlobalMotionEstimator(lib, GmeSettings(), pool=pool)
    ref_pyr = estimator.build_pyramid(ref)
    cur_pyr = estimator.build_pyramid(cur)
    return estimator.estimate_pair(ref_pyr, cur_pyr), lib


class TestScheduledEstimation:
    def test_scheduled_estimate_identical_to_serial(self):
        ref, cur = _frame_pair()
        serial, serial_lib = _estimate(ref, cur)
        with EnginePool.of_engines(2) as pool:
            scheduled, sched_lib = _estimate(ref, cur, pool=pool)
        assert np.array_equal(scheduled.model.parameters,
                              serial.model.parameters)
        assert scheduled.final_sad == serial.final_sad
        assert scheduled.iterations == serial.iterations
        assert (scheduled.per_level_iterations
                == serial.per_level_iterations)
        assert np.array_equal(scheduled.blend_mask, serial.blend_mask)
        # The pool saw the per-pair intra batch (2 Sobel per level plus
        # the homogeneity mask).
        levels = GmeSettings().levels
        assert pool.report().calls_routed == 2 * levels + 1

    def test_call_mix_unchanged_by_batching(self):
        ref, cur = _frame_pair(seed=21)
        _, serial_lib = _estimate(ref, cur)
        with EnginePool.of_engines(2) as pool:
            _, sched_lib = _estimate(ref, cur, pool=pool)
        assert (serial_lib.log.count(AddressingMode.INTRA)
                == sched_lib.log.count(AddressingMode.INTRA))
        assert (serial_lib.log.count(AddressingMode.INTER)
                == sched_lib.log.count(AddressingMode.INTER))
