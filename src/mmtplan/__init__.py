"""mmtplan: planner and simulator for modular multilingual NMT training.

Compiles compact meta-configurations into full explicit task/module/device
configurations and simulates the distributed gradient-synchronization
protocol at desk scale, with oracle verification and communication-cost
accounting.
"""
from .core import (
    ClusterTopology,
    DeviceId,
    ModuleKey,
    Side,
    TaskSpec,
    task_id,
    validate_config,
)
from .sharing import ArchSpec, SharingPattern, build_module_sequence, enumerate_modules
from .allocator import (
    Assignment,
    CommCost,
    comm_cost,
    initial_assignment,
    local_search,
)
from .configgen import FullConfig, MetaConfig, emit, generate, parse

__version__ = "0.1.0"

__all__ = [
    "ArchSpec",
    "Assignment",
    "ClusterTopology",
    "CommCost",
    "DeviceId",
    "FullConfig",
    "MetaConfig",
    "ModuleKey",
    "SharingPattern",
    "Side",
    "TaskSpec",
    "build_module_sequence",
    "comm_cost",
    "emit",
    "enumerate_modules",
    "generate",
    "initial_assignment",
    "local_search",
    "parse",
    "task_id",
    "validate_config",
]
