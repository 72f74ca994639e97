"""The engine model's static constraints, in one importable place.

Every limit that decides *before a call runs* whether the AddressEngine
can execute it -- bank capacities, strip geometry, the fast-path regime
boundaries, the cycle safety bound -- used to live as literals inside the
component that enforced it.  This module names them so the engine, the
host driver and the static analyzer (:mod:`repro.analysis`) agree on a
single source of truth, and ``repro-check`` can reject a bad call with
the same numbers the simulator would fail on.

Nothing here imports the stepper or the component classes: constraint
checking must stay cheap enough for a pre-flight pass on every call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..image.formats import STRIP_LINES
from .pci import DEFAULT_JOB_OVERHEAD_CYCLES
from .zbt import BANK_WORDS

if TYPE_CHECKING:
    from .config import EngineConfig

#: PLC ticks per model clock: the startpipeline sustains up to two
#: pixel-cycles per bus cycle (see DESIGN.md's rate table).
PLC_TICKS_PER_CYCLE = 2

#: Input transmission unit ticks per model clock: the ZBT memory domain
#: runs at twice the design clock, so a TxU can stream two pixels per
#: engine cycle and keep the doubled-rate Process Unit fed.
INPUT_TXU_TICKS_PER_CYCLE = 2

#: Fewest strips the fast path batches: single-strip frames never leave
#: the warm-up/drain regime, so they run per-cycle.
FAST_PATH_MIN_STRIPS = 2

#: Result pixels one result bank can hold: two consecutive 32-bit words
#: per pixel in the same bank (so the PC reads them back ordered).
RESULT_BANK_PIXELS = BANK_WORDS // 2

#: Fast-path fallback reason codes (shared with the analyzer's FPA rules).
FALLBACK_SINGLE_STRIP = "single_strip"
FALLBACK_TICK_RATES = "tick_rates"


def default_max_cycles(pixels: int) -> int:
    """The engine's default per-call cycle safety bound."""
    return 80 * pixels + 200_000


def fast_path_blockers(strips: int, plc_ticks_per_cycle: int,
                       input_txu_ticks_per_cycle: int) -> List[str]:
    """Why a call cannot use the batched fast-path stepper.

    Returns the (possibly empty) list of fallback reason codes.  This is
    the single definition of the static eligibility regime: the engine's
    dispatch (:meth:`repro.core.engine.AddressEngine.run_call`), the
    analyzer's FPA rules and ``scripts/check_fastpath.py`` all consume
    it, so the regime boundaries cannot drift apart.
    """
    blockers = []
    if strips < FAST_PATH_MIN_STRIPS:
        blockers.append(FALLBACK_SINGLE_STRIP)
    if (plc_ticks_per_cycle != PLC_TICKS_PER_CYCLE
            or input_txu_ticks_per_cycle != INPUT_TXU_TICKS_PER_CYCLE):
        blockers.append(FALLBACK_TICK_RATES)
    return blockers


def input_bank_words_needed(fmt_pixels: int, fmt_strips: int, fmt_width: int,
                            images_in: int) -> int:
    """32-bit words one *input* bank must hold for the given geometry.

    Intra mode stacks same-parity strips inside one bank pair
    (block_A/block_B double buffering), so a bank holds
    ``ceil(strips / 2)`` strips; inter mode stores each whole image
    linearly in its own pair.
    """
    if images_in == 2:
        return fmt_pixels
    strip_words = STRIP_LINES * fmt_width
    return -(-fmt_strips // 2) * strip_words


def min_call_cycles(config: "EngineConfig", resident_count: int = 0,
                    job_overhead_cycles: int = DEFAULT_JOB_OVERHEAD_CYCLES
                    ) -> int:
    """A provable lower bound on one call's completion cycle.

    The PCI bus is half-duplex and moves at most one 32-bit word per
    cycle, every DMA job pays its setup/interrupt overhead, and the PLC
    retires at most two pixel-cycles per clock -- so no schedule can
    finish faster than the larger of the word-movement and the
    pixel-retirement floors.  A ``max_cycles`` below this bound is a
    guaranteed :class:`~repro.core.errors.EngineDeadlock`.
    """
    fmt = config.fmt
    shipping_images = config.images_in - resident_count
    input_words = fmt.pixels * 2 * shipping_images
    readback_words = fmt.pixels * 2 if config.produces_image else 2
    dma_jobs = fmt.strips * shipping_images + 1
    word_floor = input_words + readback_words + dma_jobs * job_overhead_cycles
    retire_floor = fmt.pixels // PLC_TICKS_PER_CYCLE
    return max(word_floor, retire_floor)
