"""Exception hierarchy for the engine."""


class StreamTxError(Exception):
    """Base class for all engine errors."""


# --- registration / catalog ---

class DuplicateName(StreamTxError):
    pass


class UnknownStream(StreamTxError):
    pass


class UnknownTable(StreamTxError):
    pass


class UnknownProcedure(StreamTxError):
    pass


class CycleDetected(StreamTxError):
    pass


class WindowOwnedByTwoProcedures(StreamTxError):
    pass


class BadDefinition(StreamTxError):
    """Catch-all for malformed workflow or trigger declarations."""


# --- storage ---

class TypeMismatch(StreamTxError):
    pass


class UnknownColumn(StreamTxError):
    pass


class WindowScopeViolation(StreamTxError):
    pass


# --- execution ---

class BodyAbort(StreamTxError):
    """Raised by a procedure body to abort the enclosing transaction."""

    def __init__(self, reason: str = ""):
        super().__init__(reason)
        self.reason = reason


class MissingInputBatch(StreamTxError):
    pass


class WrongKind(StreamTxError):
    pass


class EngineStopped(StreamTxError):
    pass


class NotPartitionable(StreamTxError):
    pass


# --- durability / recovery ---

class LogWriteFailure(StreamTxError):
    pass


class CorruptLogRecord(StreamTxError):
    pass


class CorruptSnapshot(StreamTxError):
    pass


class VersionMismatch(StreamTxError):
    pass


class ReplayDivergence(StreamTxError):
    """A replayed transaction aborted although it committed before the crash."""


# --- validation ---

class UnknownProcedureInSchedule(StreamTxError):
    pass


class TooLarge(StreamTxError):
    pass


# --- ingestion / config ---

class SchemaMismatch(StreamTxError):
    pass


class ConfigError(StreamTxError):
    pass
