"""Multi-engine sharding: N modelled boards behind one dispatch API.

The paper runs one AddressEngine on the PCI bus; its outlook scales by
adding boards.  This package models that pool: each
:class:`EngineWorker` is one board with private driver books and
ZBT-bank residency, an :class:`EnginePool` routes micro-batched waves
onto them through a pluggable :class:`PlacementPolicy` and spreads
offline batches over all of them (a board's share may run in a worker
process), and results stay bit-exact with serial submission for every
pool size and policy.
"""

from .placement import (LeastLoadedPlacement, PlacementPolicy,
                        ResidencyAffinityPlacement, RoundRobinPlacement)
from .pool import EnginePool, PoolReport, WaveDispatch
from .pricing import call_cost_seconds
from .processes import ProgramOutcome, TransportBooks
from .worker import EngineWorker, WorkerReport

__all__ = [
    "EnginePool",
    "EngineWorker",
    "LeastLoadedPlacement",
    "PlacementPolicy",
    "PoolReport",
    "ProgramOutcome",
    "ResidencyAffinityPlacement",
    "RoundRobinPlacement",
    "TransportBooks",
    "WaveDispatch",
    "WorkerReport",
    "call_cost_seconds",
]
