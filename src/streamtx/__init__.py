"""streamtx: an embeddable, single-node transactional stream processing engine.

Workflows of stored procedures run over streams, sliding windows, and shared
tables with per-transaction ACID guarantees, trigger-driven dataflow, and
checkpoint + command-log crash recovery.
"""

from .engine import (
    Engine,
    EngineSpec,
    StreamDef,
    TableDef,
    partitioned_engines,
    recover,
    route_partition,
)
from .ingest import BatchingPolicy, FeedSource, StreamIngestor, ingest
from .model import (
    AtomicBatch,
    Edge,
    NestedGroup,
    ProcedureDef,
    ProcedureKind,
    TransactionExecution,
    Tuple,
    WindowSpec,
    Workflow,
    register_workflow,
    topological_orderings,
)
from .recovery import RecoveryMode, recovery_dispatch_count
from .storage import Column, FullWindowEvent, Pred, ScalarType, Store, UndoBuffer
from .validator import enumerate_correct_schedules, validate

__all__ = [
    "AtomicBatch",
    "BatchingPolicy",
    "Column",
    "Edge",
    "Engine",
    "EngineSpec",
    "FeedSource",
    "FullWindowEvent",
    "NestedGroup",
    "Pred",
    "ProcedureDef",
    "ProcedureKind",
    "RecoveryMode",
    "ScalarType",
    "Store",
    "StreamDef",
    "StreamIngestor",
    "TableDef",
    "TransactionExecution",
    "Tuple",
    "UndoBuffer",
    "WindowSpec",
    "Workflow",
    "enumerate_correct_schedules",
    "ingest",
    "partitioned_engines",
    "recover",
    "recovery_dispatch_count",
    "register_workflow",
    "route_partition",
    "topological_orderings",
    "validate",
]

__version__ = "0.1.0"
