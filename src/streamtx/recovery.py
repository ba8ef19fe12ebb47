"""Durability: command log with group commit, input caching, recovery replay.

Each file is a header, then codec frames; a torn or corrupt frame ends it.

    log header:    magic "STXLOG01" | version u32 (2) | mode u8 | partition u32
    log record:    commit_seq u64 | round u64 | procedure text | args
    cache header:  magic "STXINP02"
    cache record:  one ``{stream: batch}`` in the codec's batch encoding

Border args are that batch encoding too. The input cache backs the
weak-recovery upstream-backup scheme: every external batch is durable there
before its border execution is acknowledged. Whole files are rewritten only
through ``replace_file``.
"""

from __future__ import annotations

import enum
import os
import struct
import time
from dataclasses import dataclass, field
from typing import Optional

from .codec import decode_batches, encode_batches, encode_text, frame, frames, text_at
from .errors import CorruptLogRecord, LogWriteFailure
from .model import AtomicBatch, ProcedureKind

LOG_MAGIC = b"STXLOG01"
CACHE_MAGIC = b"STXINP02"
LOG_VERSION = 2
_LOG_HEAD = struct.Struct("<IBI")  # version, mode, partition
_RECORD_HEAD = struct.Struct("<QQ")  # commit_seq, round


class RecoveryMode(enum.Enum):
    STRONG = 1
    WEAK = 2


def should_log(mode: RecoveryMode, kind: ProcedureKind) -> bool:
    """Strong logs every commit; weak logs only transactions with no
    upstream that could regenerate them (border streaming and OLTP)."""
    if mode is RecoveryMode.STRONG:
        return True
    return kind in (ProcedureKind.BORDER, ProcedureKind.OLTP)


@dataclass(frozen=True, slots=True)
class CommandLogRecord:
    commit_seq: int
    procedure: str
    round: int
    args: bytes

    def encode(self) -> bytes:
        head = _RECORD_HEAD.pack(self.commit_seq, self.round)
        return frame(head + encode_text(self.procedure) + self.args)

    @classmethod
    def decode(cls, payload: bytes) -> "CommandLogRecord":
        seq, round_ = _RECORD_HEAD.unpack_from(payload)
        procedure, off = text_at(payload, _RECORD_HEAD.size)
        return cls(seq, procedure, round_, payload[off:])


def _log_header(mode: RecoveryMode, partition_id: int) -> bytes:
    return LOG_MAGIC + _LOG_HEAD.pack(LOG_VERSION, mode.value, partition_id)


def _open_for_append(path: str, header: bytes):
    """Open ``path`` for appending; a new or empty file gets ``header``."""
    fh = open(path, "ab")
    if fh.tell() == 0:
        fh.write(header)
        fh.flush()
    return fh


def replace_file(path: str, data: bytes) -> None:
    """Make ``path`` hold exactly ``data`` across a crash at any point:
    write and sync a temp file, rename it over ``path``, sync the directory."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class CommandLog:
    """Append-only command log with group commit.

    Records buffer in memory and reach disk on flush; tickets attached to
    buffered records are acknowledged only once their flush completes. A
    flush happens when ``max_batch`` records are pending, when the oldest
    pending record is older than ``max_delay``, or explicitly.
    """

    def __init__(
        self,
        path: str,
        mode: RecoveryMode,
        partition_id: int = 0,
        max_batch: int = 1,
        max_delay: float = 0.005,
        fsync: bool = True,
    ):
        self.path = path
        self.mode = mode
        self.partition_id = partition_id
        self.max_batch = max(1, max_batch)
        self.max_delay = max_delay
        self.fsync = fsync
        self.sync_count = 0
        self.records_written = 0
        self._pending: list[tuple[CommandLogRecord, object]] = []
        self._pending_since: Optional[float] = None
        try:
            self._fh = _open_for_append(path, _log_header(mode, partition_id))
        except OSError as e:
            raise LogWriteFailure(str(e)) from e

    def append(self, record: CommandLogRecord, ticket=None) -> None:
        self._pending.append((record, ticket))
        if self._pending_since is None:
            self._pending_since = time.monotonic()
        if len(self._pending) >= self.max_batch:
            self.flush()

    def maybe_flush(self) -> None:
        """Timer surrogate: flush if the oldest pending record is overdue."""
        if self._pending and (
            time.monotonic() - self._pending_since >= self.max_delay
        ):
            self.flush()

    def flush(self) -> int:
        """Write and sync all pending records, then release their tickets."""
        if not self._pending:
            return 0
        batch, self._pending = self._pending, []
        self._pending_since = None
        try:
            for record, _ in batch:
                self._fh.write(record.encode())
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        except OSError as e:
            raise LogWriteFailure(str(e)) from e
        self.sync_count += 1
        self.records_written += len(batch)
        for _, ticket in batch:
            if ticket is not None:
                ticket.acknowledged = True
        return len(batch)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def reopen(self) -> None:
        """Append to the file now at ``path``, after it was replaced."""
        self._fh.close()
        self._fh = open(self.path, "ab")

    def crash(self) -> None:
        """Drop buffered records and close, as a power failure would."""
        self._pending.clear()
        self._pending_since = None
        self._fh.close()

    def close(self) -> None:
        self.flush()
        self._fh.close()


def read_log(path: str) -> tuple[RecoveryMode, int, list[CommandLogRecord]]:
    """Read a command log; a torn record truncates the tail (standard rule).

    Returns (mode, partition_id, records in file order).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = len(LOG_MAGIC) + _LOG_HEAD.size
    if len(blob) < head_len or not blob.startswith(LOG_MAGIC):
        raise CorruptLogRecord("bad log header")
    version, mode_v, partition_id = _LOG_HEAD.unpack_from(blob, len(LOG_MAGIC))
    if version != LOG_VERSION:
        raise CorruptLogRecord(f"unsupported log version {version}")
    records: list[CommandLogRecord] = []
    for payload in frames(blob, head_len):
        rec = CommandLogRecord.decode(payload)
        if records and rec.commit_seq <= records[-1].commit_seq:
            raise CorruptLogRecord("commit sequence not increasing")
        records.append(rec)
    return RecoveryMode(mode_v), partition_id, records


def truncate_log(path: str, mode: RecoveryMode, partition_id: int) -> None:
    """Start the log over (after a checkpoint made old records redundant)."""
    replace_file(path, _log_header(mode, partition_id))


# --- upstream backup ---


@dataclass
class InputCache:
    """Retained external batches, durable before the border ack (weak mode).

    Only a cache with a file retains anything. A batch may be trimmed only
    once every execution of its round finished; the caller computes that
    low-water round.
    """

    path: Optional[str] = None
    retained: dict[str, list[AtomicBatch]] = field(default_factory=dict)
    low_water: int = 0

    def __post_init__(self):
        path = self.path
        self._fh = None if path is None else _open_for_append(path, CACHE_MAGIC)

    def append(self, stream: str, batch: AtomicBatch, payload: bytes) -> None:
        """Retain ``batch`` and make ``payload``, the codec's encoding of
        ``{stream: batch}``, durable."""
        if self._fh is None:
            return
        self.retained.setdefault(stream, []).append(batch)
        self._fh.write(frame(payload))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def trim(self, low_water: int) -> int:
        """Drop retained batches with round <= low_water. Monotone."""
        if low_water <= self.low_water:
            return 0
        removed = 0
        for stream, batches in self.retained.items():
            keep = [b for b in batches if b.batch_id > low_water]
            removed += len(batches) - len(keep)
            self.retained[stream] = keep
        self.low_water = low_water
        return removed

    def compact(self) -> None:
        """Rewrite the durable file to hold only still-retained batches."""
        if self._fh is None:
            return
        self._fh.close()
        records = [
            frame(encode_batches({s: b}))
            for s in sorted(self.retained)
            for b in self.retained[s]
        ]
        replace_file(self.path, CACHE_MAGIC + b"".join(records))
        self._fh = open(self.path, "ab")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_input_cache(path: str) -> dict[str, list[AtomicBatch]]:
    """All cached batches by stream, in append order; torn tail dropped."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CACHE_MAGIC):
        raise CorruptLogRecord("bad input cache header")
    out: dict[str, list[AtomicBatch]] = {}
    for payload in frames(blob, len(CACHE_MAGIC)):
        for stream, batch in decode_batches(payload).items():
            out.setdefault(stream, []).append(batch)
    return out


@dataclass(frozen=True)
class DispatchCounts:
    """Replay work split by path: client-style dispatches vs trigger-internal."""

    client_path: int
    trigger_path: int

    @property
    def total(self) -> int:
        return self.client_path + self.trigger_path


def recovery_dispatch_count(
    mode: RecoveryMode, n_procedures: int, rounds: int, oltp: int = 0
) -> DispatchCounts:
    """Predicted replay dispatches for an n-procedure chain workload.

    Strong replay drives every logged execution through the client path;
    weak replay drives only border (and OLTP) records that way and lets
    live triggers regenerate the interiors.
    """
    if mode is RecoveryMode.STRONG:
        return DispatchCounts(rounds * n_procedures + oltp, 0)
    return DispatchCounts(rounds + oltp, rounds * (n_procedures - 1))
