"""Durability: command log with group commit, input caching, recovery replay.

All of the partition's durable bytes reach disk through one small file
layer: ``AppendFile`` appends to a file that starts with a header,
``replace_file`` swaps a whole file atomically, and ``_read_frames`` reads
one back. Each file is a header, then codec frames; a torn or corrupt frame
ends it. The log header's snapshot seq is the commit sequence of the
snapshot the log follows: the checkpoint that wrote that snapshot truncated
the log, so the commits up to it are in no log record.

    log header:    magic "STXLOG01" | version u32 (3) | mode u8 | partition u32
                   | snapshot seq u64
    log record:    commit_seq u64 | round u64 | procedure text | args
    cache header:  magic "STXINP02"
    cache record:  one ``{stream: batch}`` in the codec's batch encoding

Border args are that batch encoding too. The input cache backs the
weak-recovery upstream-backup scheme: every external batch is written there
before its border execution runs. One ``fsync`` policy holds for both the
log and the cache: with it on, a new file's header and directory entry are
synced when it is created and an append is synced before it returns; with
it off, appends are flushed to the OS only. ``replace_file`` always syncs.
"""

from __future__ import annotations

import enum
import os
import struct
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .codec import decode_batches, encode_batches, encode_text, frame, frames, text_at
from .errors import CorruptLogRecord, LogWriteFailure
from .model import AtomicBatch, ProcedureKind

LOG_MAGIC = b"STXLOG01"
CACHE_MAGIC = b"STXINP02"
LOG_VERSION = 3
_LOG_HEAD = struct.Struct("<IBIQ")  # version, mode, partition, snapshot seq
_RECORD_HEAD = struct.Struct("<QQ")  # commit_seq, round
TEMP_SUFFIX = ".tmp"  # replace_file writes here before the rename


class RecoveryMode(enum.Enum):
    STRONG = 1
    WEAK = 2


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


# the procedure kinds whose commits each log mode logs: strong logs every
# commit; weak only transactions with no upstream that could regenerate
# them (border streaming and OLTP); an engine without a log logs nothing
LOGGED_KINDS: dict[Optional[RecoveryMode], frozenset[ProcedureKind]] = {
    RecoveryMode.STRONG: frozenset(ProcedureKind),
    RecoveryMode.WEAK: frozenset((ProcedureKind.BORDER, ProcedureKind.OLTP)),
    None: frozenset(),
}


def _log_header(mode: RecoveryMode, partition_id: int, snapshot_seq: int = 0) -> bytes:
    head = _LOG_HEAD.pack(LOG_VERSION, mode.value, partition_id, snapshot_seq)
    return LOG_MAGIC + head


def replace_file(path: str, data: bytes) -> None:
    """Make ``path`` hold exactly ``data`` across a crash at any point:
    write and sync a temp file, rename it over ``path``, sync the directory."""
    tmp = path + TEMP_SUFFIX
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _sync_dir(path)


def _sync_dir(path: str) -> None:
    """Sync the directory holding ``path``, so its entry survives a crash."""
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class AppendFile:
    """A file that starts with ``header`` and grows by appends.

    With ``fsync`` set, creating the file syncs the header and the
    directory entry, so later synced appends are never orphaned by a
    power loss that drops the new file itself.
    """

    def __init__(self, path: str, header: bytes, fsync: bool):
        self.path = path
        self.fsync = fsync
        try:
            self._fh = open(path, "ab")
            if self._fh.tell() == 0:
                self._fh.write(header)
                self._fh.flush()
                if fsync:
                    os.fsync(self._fh.fileno())
                    _sync_dir(path)
        except OSError as e:
            raise LogWriteFailure(str(e)) from e

    def append(self, data: bytes) -> None:
        """Write ``data``; sync it too when the engine's ``fsync`` is set."""
        try:
            self._fh.write(data)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        except OSError as e:
            raise LogWriteFailure(str(e)) from e

    def rewrite(self, body: bytes) -> None:
        """Replace the whole file with ``body`` and append after it."""
        replace_file(self.path, body)
        self.reopen()

    def reopen(self) -> None:
        """Append to the file now at ``path``, after it was replaced."""
        self._fh.close()
        self._fh = open(self.path, "ab")

    def close(self) -> None:
        self._fh.close()


def _read_frames(
    path: str, magic: bytes, head_size: int
) -> tuple[bytes, Iterator[bytes]]:
    """The ``head_size`` header bytes after ``magic`` (fewer when the file
    is shorter; the caller checks) and the frame payloads after them."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise CorruptLogRecord(f"missing {os.path.basename(path)}") from None
    start = len(magic) + head_size
    if not blob.startswith(magic):
        raise CorruptLogRecord(f"bad header in {os.path.basename(path)}")
    return blob[len(magic) : start], frames(blob, start)


class CommandLog:
    """Append-only command log with group commit.

    Records buffer in memory and reach disk on flush; tickets attached to
    buffered records are acknowledged only once their flush completes. A
    flush happens when ``max_batch`` records are pending, when the oldest
    pending record is older than ``max_delay``, or explicitly. A log without
    a file (no data dir or no recovery mode) has no mode and logs nothing.
    Every flush counts in ``counters.sync_count``.
    """

    def __init__(
        self,
        path: Optional[str],
        mode: Optional[RecoveryMode],
        counters,
        partition_id: int = 0,
        max_batch: int = 1,
        max_delay: float = 0.005,
        fsync: bool = True,
    ):
        self.path = path
        self.mode = mode
        self.counters = counters
        self.max_batch = max(1, max_batch)
        self.max_delay = max_delay
        self._pending: list[tuple[CommandLogRecord, object]] = []
        self._pending_since: Optional[float] = None
        self._file = None
        if mode is not None:
            self._file = AppendFile(path, _log_header(mode, partition_id), fsync)

    @property
    def sync_count(self) -> int:
        return self.counters.sync_count

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
        self._file.append(b"".join(record.encode() for record, _ in batch))
        self.counters.sync_count += 1
        for _, ticket in batch:
            if ticket is not None:
                ticket.acknowledged = True
        return len(batch)

    def reopen(self) -> None:
        """Append to the file now at ``path``, after it was replaced."""
        self._file.reopen()

    def crash(self) -> None:
        """Drop buffered records and close, as a power failure would."""
        self._pending.clear()
        self._pending_since = None
        if self._file is not None:
            self._file.close()

    def close(self) -> None:
        self.flush()
        if self._file is not None:
            self._file.close()


def read_log(path: str) -> tuple[RecoveryMode, int, int, list[CommandLogRecord]]:
    """Read a command log; a torn record truncates the tail (standard rule).

    Returns (mode, partition_id, snapshot seq, records in file order).
    """
    head, payloads = _read_frames(path, LOG_MAGIC, _LOG_HEAD.size)
    # the version leads, so an older header, shorter than this one, still
    # reads as its version
    version = int.from_bytes(head[:4], "little")
    if len(head) >= 4 and version != LOG_VERSION:
        raise CorruptLogRecord(f"unsupported log version {version}")
    if len(head) < _LOG_HEAD.size:
        raise CorruptLogRecord(f"bad header in {os.path.basename(path)}")
    _, mode_v, partition_id, snapshot_seq = _LOG_HEAD.unpack(head)
    records: list[CommandLogRecord] = []
    for payload in payloads:
        rec = CommandLogRecord.decode(payload)
        if records and rec.commit_seq <= records[-1].commit_seq:
            raise CorruptLogRecord("commit sequence not increasing")
        records.append(rec)
    return RecoveryMode(mode_v), partition_id, snapshot_seq, records


def truncate_log(
    path: str, mode: RecoveryMode, partition_id: int, snapshot_seq: int = 0
) -> None:
    """Start the log over after the snapshot at ``snapshot_seq`` made the
    records up to it redundant; recovery then needs that snapshot or a
    newer one."""
    replace_file(path, _log_header(mode, partition_id, snapshot_seq))


# --- upstream backup ---


@dataclass
class InputCache:
    """Retained external batches, written before the border runs (weak mode).

    Only a cache with a file retains anything. A checkpoint sets
    ``retained`` to the batches of the rounds whose border has not run and
    calls ``compact``; in between, every appended batch is kept.
    """

    path: Optional[str] = None
    fsync: bool = True
    retained: dict[str, list[AtomicBatch]] = field(default_factory=dict)

    def __post_init__(self):
        path = self.path
        self._file = None if path is None else AppendFile(path, CACHE_MAGIC, self.fsync)

    def append(self, stream: str, batch: AtomicBatch, payload: bytes) -> None:
        """Retain ``batch`` and write ``payload``, the codec's encoding of
        ``{stream: batch}``, to the file."""
        if self._file is None:
            return
        self.retained.setdefault(stream, []).append(batch)
        self._file.append(frame(payload))

    def compact(self) -> None:
        """Rewrite the durable file to hold only still-retained batches."""
        if self._file is None:
            return
        records = [
            frame(encode_batches({s: b}))
            for s in sorted(self.retained)
            for b in self.retained[s]
        ]
        self._file.rewrite(CACHE_MAGIC + b"".join(records))

    def close(self) -> None:
        if self._file is not None:
            self._file.close()


def read_input_cache(path: str) -> dict[str, list[AtomicBatch]]:
    """All cached batches by stream, in append order; torn tail dropped."""
    out: dict[str, list[AtomicBatch]] = {}
    for payload in _read_frames(path, CACHE_MAGIC, 0)[1]:
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
