"""Closed-form pricing of batch calls, shared across the stack.

Every layer that reasons about multi-engine execution -- the admission
controller and the :class:`~repro.pool.EnginePool` boards (serving
waves and offline batch shares alike) -- must price one call with the
*same* arithmetic, or modeled dispatch decisions drift from the
accounting.  This module is that single definition; it depends only on
the addressing geometry and the validated
:class:`~repro.perf.timing.EngineTimingModel`, so the pool can sit
below the service layer without an import cycle.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from ..addresslib.addressing import AddressingMode
from ..addresslib.library import BatchCall
from ..perf.timing import EngineTimingModel


def call_cost_seconds(call: BatchCall, timing: EngineTimingModel,
                      special_inter_ops: FrozenSet[str] = frozenset()
                      ) -> Tuple[float, float]:
    """(serial-model, overlap-model) seconds of one call's geometry.

    Every board prices with it (:meth:`~repro.pool.worker.EngineWorker.
    price`), so service admission, pool placement, offline batch
    makespans and driver submission all account one call identically.
    """
    fmt = call.fmt
    images_in = 2 if call.mode is AddressingMode.INTER else 1
    produces_image = not call.reduce_to_scalar
    full_frames = (call.mode is AddressingMode.INTER
                   and call.op.name in special_inter_ops)
    serial = timing.serial_call_seconds_raw(
        fmt.pixels, fmt.strips, images_in, produces_image, full_frames)
    overlapped = timing.overlapped_call_seconds_raw(
        fmt.pixels, fmt.strips, images_in, produces_image, full_frames)
    return serial, overlapped
