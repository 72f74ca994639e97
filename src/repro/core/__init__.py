"""The AddressEngine coprocessor model (paper sections 2-3).

A cycle-level model of the FPGA prototype: ZBT memory banks, PCI/DMA
host link, input/output intermediate memories, the four-stage Process
Unit, the pixel level controller (arbiter, instruction FSM,
startpipeline, control FSM), transmission units and the image level
controller -- plus the structural resource/timing estimator behind
Table 1.
"""

from .config import (EngineConfig, EngineConfigError, IIM_LINES,
                     IIM_LINES_PER_IMAGE_INTER, OIM_LINES, inter_config,
                     intra_config)
from .constraints import (FAST_PATH_MIN_STRIPS, INPUT_TXU_TICKS_PER_CYCLE,
                          PLC_TICKS_PER_CYCLE,
                          RESULT_BANK_PIXELS, default_max_cycles,
                          fast_path_blockers, min_call_cycles)
from .errors import EngineDeadlock, deadlock_message
from .iim import InputIntermediateMemory, LineStoreFifo
from .image_controller import ImageLevelController
from .instructions import Instruction, InstructionKind, bundle_for
from .matrix_register import MatrixRegister
from .oim import OutputIntermediateMemory
from .pci import (DEFAULT_JOB_OVERHEAD_CYCLES, DMAJob, Interrupt, PCIBus,
                  PCI_CLOCK_HZ, PCI_PEAK_BYTES_PER_SECOND, PCI_WORD_BITS)
from .plc import Arbiter, ArbiterConflict, PixelLevelController, PlcStats
from .process_unit import (PixelBundle, ProcessUnit, ResultPixel,
                           ScanCounters)
from .resources import (BRAM_BITS, DeviceCapacity, ModuleEstimate,
                        ResourceEstimate, TimingModel, UtilizationReport,
                        XC2V3000, iim_brams, oim_brams, total_resources,
                        v1_module_inventory, v1_utilization_report,
                        v2_utilization_report)
from .segment_unit import (QUEUE_CAPACITY, QueueOverflow, SegmentCallConfig,
                           SegmentRunResult, SegmentUnit,
                           V2_CONNECTIVITY, v2_module_additions)
from .txu import InputTransmissionUnit, OutputTransmissionUnit
from .zbt import (BANK_COUNT, BANK_WORDS, BankPortConflict, BankStats,
                  IMAGE0_BANKS, IMAGE1_BANKS, RESULT_BANKS, ZBTLayout,
                  ZBTMemory)

#: Names resolved lazily (PEP 562) because their modules pull in the
#: cycle-level stepper: ``import repro.core`` -- and therefore importing
#: the analyzer's diagnostics -- must stay cheap and stepper-free.
_LAZY_EXPORTS = {
    "AddressEngine": "engine",
    "EngineRunResult": "engine",
    "CONFIG_BANDWIDTH_BYTES_PER_S": "reconfig",
    "FULL_BITSTREAM_BYTES": "reconfig",
    "PARTIAL_BITSTREAM_BYTES": "reconfig",
    "ReconfigurableEngine": "reconfig",
    "ReconfigurationModel": "reconfig",
    "ScheduleReport": "reconfig",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value

__all__ = [
    "AddressEngine",
    "Arbiter",
    "ArbiterConflict",
    "BANK_COUNT",
    "BANK_WORDS",
    "BRAM_BITS",
    "BankPortConflict",
    "BankStats",
    "DEFAULT_JOB_OVERHEAD_CYCLES",
    "DMAJob",
    "DeviceCapacity",
    "EngineConfig",
    "EngineConfigError",
    "EngineDeadlock",
    "EngineRunResult",
    "FAST_PATH_MIN_STRIPS",
    "INPUT_TXU_TICKS_PER_CYCLE",
    "IIM_LINES",
    "IIM_LINES_PER_IMAGE_INTER",
    "IMAGE0_BANKS",
    "IMAGE1_BANKS",
    "ImageLevelController",
    "InputIntermediateMemory",
    "InputTransmissionUnit",
    "Instruction",
    "InstructionKind",
    "Interrupt",
    "LineStoreFifo",
    "MatrixRegister",
    "ModuleEstimate",
    "OIM_LINES",
    "OutputIntermediateMemory",
    "OutputTransmissionUnit",
    "PCIBus",
    "PCI_CLOCK_HZ",
    "PCI_PEAK_BYTES_PER_SECOND",
    "PCI_WORD_BITS",
    "PLC_TICKS_PER_CYCLE",
    "PixelBundle",
    "PixelLevelController",
    "PlcStats",
    "ProcessUnit",
    "RESULT_BANKS",
    "RESULT_BANK_PIXELS",
    "ResourceEstimate",
    "ResultPixel",
    "ScanCounters",
    "TimingModel",
    "UtilizationReport",
    "XC2V3000",
    "ZBTLayout",
    "ZBTMemory",
    "bundle_for",
    "deadlock_message",
    "default_max_cycles",
    "fast_path_blockers",
    "min_call_cycles",
    "inter_config",
    "intra_config",
    "iim_brams",
    "oim_brams",
    "total_resources",
    "CONFIG_BANDWIDTH_BYTES_PER_S",
    "FULL_BITSTREAM_BYTES",
    "PARTIAL_BITSTREAM_BYTES",
    "QUEUE_CAPACITY",
    "ReconfigurableEngine",
    "ReconfigurationModel",
    "ScheduleReport",
    "QueueOverflow",
    "SegmentCallConfig",
    "SegmentRunResult",
    "SegmentUnit",
    "V2_CONNECTIVITY",
    "v1_module_inventory",
    "v1_utilization_report",
    "v2_module_additions",
    "v2_utilization_report",
]
