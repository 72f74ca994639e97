"""The AddressLib backend that offloads calls to the AddressEngine.

Swapping :class:`EngineBackend` for the default software backend is the
paper's deployment model: the application's top level stays untouched on
the host, and every AddressLib inter/intra call crosses the PCI bus to
the board.  Segment and segment-indexed addressing are not offloaded (v1
hardware limitation), so :class:`~repro.addresslib.library.AddressLib`
routes those to its software fallback automatically.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..addresslib.addressing import AddressingMode
from ..addresslib.library import (Backend, BatchCall, CallRecord,
                                  ComputedResult)
from ..addresslib.ops import ChannelSet, InterOp, IntraOp
from ..core.config import EngineConfig, inter_config, intra_config
from ..image.frame import Frame
from .driver import AddressEngineDriver, FrameResidencyCache


class EngineBackend(Backend):
    """Executes inter/intra AddressLib calls on the coprocessor model.

    With ``chain_frames=True`` the backend exploits the on-board memory
    between calls: an input that is still resident in its ZBT banks from
    the previous call ships no PCI transfer, and the previous call's
    *result* can be reused as an input for a cheap on-board copy instead
    of a round trip through the host.  (The paper keeps the images on
    the board per call only; chaining is the natural extension its
    "replace the PCI with an on-chip bus" outlook gestures at.)
    """

    name = "address_engine"
    can_record_batches = True

    def __init__(self, driver: Optional[AddressEngineDriver] = None,
                 special_inter_ops: Tuple[str, ...] = (),
                 chain_frames: bool = False,
                 residency_max_age: Optional[int] = None) -> None:
        self.driver = driver or AddressEngineDriver()
        #: Names of inter ops that must wait for both frames on the board
        #: (section 4.1's "special inter operations").
        self.special_inter_ops = frozenset(special_inter_ops)
        self.chain_frames = chain_frames
        #: On-board state between calls (strong-referenced frames).
        self.residency = FrameResidencyCache(max_age=residency_max_age)

    def supports(self, mode: AddressingMode) -> bool:
        return mode.engine_supported_v1

    @property
    def takes_wave_results(self) -> bool:  # type: ignore[override]
        """The fast driver books batch calls around the wave kernel's
        results; the cycle model computes its own."""
        return not self.driver.simulate

    # -- residency tracking ---------------------------------------------------

    def _residency(self, config, frames):
        """Which inputs are already on the board, and the copy cost of
        reusing the previous result as an input."""
        if not self.chain_frames:
            return [False] * len(frames), 0
        return self.residency.plan(config, frames)

    def _after_call(self, config, frames, result_frame) -> None:
        if not self.chain_frames:
            return
        self.residency.record_call(config, frames, result_frame)

    def _submit(self, config, frames, computed=None):
        resident, copy_cycles = self._residency(config, frames)
        can_simulate_residency = copy_cycles == 0
        if self.driver.simulate and not can_simulate_residency:
            # The cycle model has no result-to-input mover; ship instead.
            resident = [False] * len(frames)
        result = self.driver.submit(config, *frames, resident=resident,
                                    onboard_copy_cycles=copy_cycles,
                                    computed=computed)
        self._after_call(config, frames, result.frame)
        record = self._record(config, result)
        record.extra["resident_inputs"] = float(sum(resident))
        return result, record

    # -- call execution -------------------------------------------------------

    def run_call(self, call: BatchCall, computed: ComputedResult
                 ) -> Tuple[Union[Frame, int], CallRecord]:
        """Book one batch call through the same residency and driver
        path as :meth:`intra`/:meth:`inter`; the fast driver takes the
        result from the batch's wave kernel (``computed``), the cycle
        model simulates the call."""
        result, record = self._submit(self._config_for(call),
                                      list(call.frames), computed)
        if call.reduce_to_scalar:
            assert result.scalar is not None
            return result.scalar, record
        assert result.frame is not None
        return result.frame, record

    def inter(self, op: InterOp, frame_a: Frame, frame_b: Frame,
              channels: ChannelSet) -> Tuple[Frame, CallRecord]:
        config = inter_config(
            op, frame_a.format, channels,
            requires_full_frames=op.name in self.special_inter_ops)
        result, record = self._submit(config, [frame_a, frame_b])
        assert result.frame is not None
        return result.frame, record

    def intra(self, op: IntraOp, frame: Frame,
              channels: ChannelSet) -> Tuple[Frame, CallRecord]:
        config = intra_config(op, frame.format, channels)
        result, record = self._submit(config, [frame])
        assert result.frame is not None
        return result.frame, record

    def inter_reduce(self, op: InterOp, frame_a: Frame, frame_b: Frame,
                     channels: ChannelSet) -> Tuple[int, CallRecord]:
        config = inter_config(
            op, frame_a.format, channels, reduce_to_scalar=True,
            requires_full_frames=op.name in self.special_inter_ops)
        result, record = self._submit(config, [frame_a, frame_b])
        assert result.scalar is not None
        return result.scalar, record

    # -- batched (pool-executed) calls ----------------------------------------

    def begin_parallel_wave(self) -> None:
        """Concurrent calls leave the bank state undefined: drop it."""
        if self.chain_frames:
            self.residency.invalidate()

    def _config_for(self, call: BatchCall) -> EngineConfig:
        """The engine configuration a serial submission would build."""
        if call.mode is AddressingMode.INTER:
            assert isinstance(call.op, InterOp)
            return inter_config(
                call.op, call.fmt, call.channels,
                reduce_to_scalar=call.reduce_to_scalar,
                requires_full_frames=(call.op.name
                                      in self.special_inter_ops))
        assert isinstance(call.op, IntraOp)
        return intra_config(call.op, call.fmt, call.channels)

    def batch_record(self, call: BatchCall) -> CallRecord:
        """Price and book one pool-executed call.

        The functional result was computed in a worker; the board cost
        comes from the same :meth:`~AddressEngineDriver.price_call`
        arithmetic a serial :meth:`~AddressEngineDriver.submit` uses.
        Batched calls never claim residency (the wave invalidated it).
        """
        config = self._config_for(call)
        price = self.driver.price_call(config)
        self.driver.account_scheduled(price)
        record = self._base_record(
            config, price.call_seconds, price.board_seconds,
            price.pci_words)
        record.extra["resident_inputs"] = 0.0
        return record

    # -- accounting -----------------------------------------------------------

    @staticmethod
    def _base_record(config: EngineConfig, call_seconds: float,
                     board_seconds: float, pci_words: int) -> CallRecord:
        extra = {
            "call_seconds": call_seconds,
            "board_seconds": board_seconds,
            "pci_words": float(pci_words),
        }
        return CallRecord(
            mode=config.mode,
            op_name=config.op_name
            + ("+reduce" if config.reduce_to_scalar else ""),
            channels=config.channels, format_name=config.fmt.name,
            pixels=config.fmt.pixels, profile=None, extra=extra)

    @staticmethod
    def _record(config: EngineConfig, result) -> CallRecord:
        record = EngineBackend._base_record(
            config, result.call_seconds, result.board_seconds,
            result.pci_words)
        if result.run is not None:
            record.extra["cycles"] = float(result.run.cycles)
            record.extra["zbt_pixel_ops"] = float(result.run.zbt_pixel_ops)
        return record
