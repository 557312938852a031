"""Simulated MPSPE substrate: the paper's Storm-based system in virtual time.

See DESIGN.md §2 for how this substitutes the paper's EC2 deployment, and
:mod:`repro.engine.engine` for the protocols implemented.
"""

from repro.engine.checkpoint import Checkpoint, CheckpointStore, CheckpointTimings
from repro.engine.cluster import Cluster, Node, NodeKind, placement_node_map
from repro.engine.config import CostModel, EngineConfig, PassiveStrategy
from repro.engine.engine import StreamEngine
from repro.engine.events import EventHandle, Simulator
from repro.engine.kernels import (
    BatchKernel,
    active_kernel,
    kernel_backend,
    numpy_available,
    set_kernel_backend,
)
from repro.engine.logic import (
    LogicFactory,
    MemoizedSource,
    OperatorLogic,
    SourceFunction,
)
from repro.engine.metrics import (
    MetricsCollector,
    RecoveryMode,
    RecoveryRecord,
    TaskCpu,
)
from repro.engine.recovery import (
    RECOVERY_SCHEMES,
    RecoveryContext,
    RecoveryScheme,
    create_scheme,
)
from repro.engine.routing import Router, stable_hash
from repro.engine.tasks import TaskRuntime, TaskStatus
from repro.engine.tuples import (
    Batch,
    KeyCycleRun,
    KeyedTuple,
    SinkRecord,
    forged_batch,
)

__all__ = [
    "Batch",
    "BatchKernel",
    "Checkpoint",
    "CheckpointStore",
    "CheckpointTimings",
    "Cluster",
    "CostModel",
    "EngineConfig",
    "EventHandle",
    "KeyCycleRun",
    "KeyedTuple",
    "LogicFactory",
    "MemoizedSource",
    "MetricsCollector",
    "Node",
    "NodeKind",
    "OperatorLogic",
    "PassiveStrategy",
    "RECOVERY_SCHEMES",
    "RecoveryContext",
    "RecoveryMode",
    "RecoveryRecord",
    "RecoveryScheme",
    "Router",
    "Simulator",
    "SinkRecord",
    "SourceFunction",
    "StreamEngine",
    "TaskCpu",
    "TaskRuntime",
    "TaskStatus",
    "active_kernel",
    "create_scheme",
    "forged_batch",
    "kernel_backend",
    "numpy_available",
    "placement_node_map",
    "set_kernel_backend",
    "stable_hash",
]
