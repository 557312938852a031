"""Simulated MPSPE substrate: the paper's Storm-based system in virtual time.

Instead of the paper's 36-node EC2 deployment, every task runs in one
process on a discrete-event clock, with per-tuple and per-batch costs taken
from :class:`CostModel`; :mod:`repro.engine.engine` implements the
protocols.  The synthetic operator's selectivity filter runs through the
one batch kernel, :mod:`repro.engine.kernels`, which the kernel tests pin
bit for bit to a per-tuple accumulator loop.
"""

from repro.engine.checkpoint import Checkpoint, CheckpointStore, CheckpointTimings
from repro.engine.cluster import Cluster, Node, NodeKind, placement_node_map
from repro.engine.config import CostModel, EngineConfig
from repro.engine.engine import StreamEngine
from repro.engine.events import EventHandle, Simulator
from repro.engine.kernels import BatchKernel
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
    "RECOVERY_SCHEMES",
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
    "create_scheme",
    "forged_batch",
    "placement_node_map",
    "stable_hash",
]
