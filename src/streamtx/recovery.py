"""Durability: command log with group commit, input caching, recovery replay.

All of the partition's durable bytes reach disk through one small file
layer: ``AppendFile`` appends to a file that starts with a header,
``replace_file`` swaps a whole file atomically, and ``_read_frames`` reads
one back. Each file is a header, then codec frames; a torn or corrupt frame
ends it, and recovery cuts a log's torn tail (``cut_torn_tail``) before the
engine appends to it again. The log header's snapshot seq is the commit
sequence of the snapshot the log follows: the checkpoint that wrote that
snapshot truncated the log, so the commits up to it are in no log record.
A record is one transaction: a nested group's record names its entry child
and carries the group's first commit seq, and strong replay runs the group
again whole.

An abort ends its round as a commit does: it raises its transaction's
input marks (``StreamTable.last_consumed_batch``) to the round and drops
what the inputs hold up to it, and it changes no other state. It is logged
as its command, not its effects. A record carries the (procedure, round)
of each abort since the previous record that the log mode logs, by the
rule that logs a commit. A snapshot keeps the marks of every abort before
it, so a checkpoint that truncates the record, or comes before any record
carries the abort, keeps the abort too.

Both modes replay in one loop over the records after the snapshot. Per
record it runs each carried abort's drop rule (``Partition.drop_aborted``),
then the record. Strong mode runs it with procedure triggers off and
checks that the commit sequence has no gap; weak mode runs it with them
live and runs the triggered work after each record. After the loop, both
modes refire the batches the procedure-trigger streams hold. Recovery
rebuilds ``Partition.last_queued``, the one record of the rounds each
procedure took, once, from the marks alone: a border has ended round r
exactly when r is at most the highest mark of its inputs, so intake
refuses those rounds. Weak recovery re-submits the cached rounds above the
mark, the rule a checkpoint keeps them by. An abort is acknowledged at
once, so one that neither a record nor a snapshot holds when the process
dies is lost: weak recovery runs it again, and strong recovery forgets it.

    log header:    magic "STXLOG01" | version u32 (6) | mode u8 | partition u32
                   | snapshot seq u64
    log record:    commit_seq u64 | round u64 | aborted count u32 | procedure
                   text | per abort: procedure text | round u64 | args
    cache header:  magic "STXINP03"
    cache record:  one ``{stream: batch}`` in the codec's batch encoding

Border args are that batch encoding too: a batch's column types, then its
rows in the row encoding snapshots use. The input cache backs the
weak-recovery upstream-backup scheme: every external batch is written there
before its border execution runs. One ``fsync`` policy holds for both the
log and the cache: with it on, a new data directory's entry, a new file's
header and its directory entry are synced when they are created, and an
append is synced before it returns; with it off, appends are flushed to
the OS only. ``replace_file`` always syncs.
"""

from __future__ import annotations

import enum
import functools
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

from .codec import (
    FRAME_OVERHEAD,
    decode_batches,
    encode_batches,
    frame,
    frames,
    name_bytes,
    text_at,
)
from .errors import CorruptLogRecord, LogWriteFailure
from .model import AtomicBatch, ProcedureKind

LOG_MAGIC = b"STXLOG01"
CACHE_MAGIC = b"STXINP03"
LOG_VERSION = 6
_LOG_HEAD = struct.Struct("<IBIQ")  # version, mode, partition, snapshot seq
_RECORD_HEAD = struct.Struct("<QQI")  # commit_seq, round, aborted count
_ROUND = struct.Struct("<Q")
_CRC = struct.Struct("<I")  # a frame's CRC of its length and payload
TEMP_SUFFIX = ".tmp"  # replace_file writes here before the rename


class RecoveryMode(enum.Enum):
    STRONG = 1
    WEAK = 2


class CommandLogRecord(NamedTuple):
    """One committed transaction, and the (procedure, round) of each logged
    transaction that aborted since the previous record."""

    commit_seq: int
    procedure: str
    round: int
    args: bytes
    aborted: tuple[tuple[str, int], ...] = ()

    def encode(self) -> bytes:
        """The record's frame: one compiled head packs the frame's length,
        the record head and the procedure's name (``_frame_head``); the
        carried aborts and the args follow, then the CRC. The bytes equal
        ``frame`` of the record's payload."""
        seq, procedure, round_, args, aborted = self
        pack, size, name = _frame_head(procedure)
        if aborted:
            carried = [name_bytes(p) + _ROUND.pack(r) for p, r in aborted]
            args = b"".join(carried) + args
        body = pack(size + len(args), seq, round_, len(aborted), name) + args
        return body + _CRC.pack(zlib.crc32(body))

    @classmethod
    def decode(cls, payload: bytes) -> "CommandLogRecord":
        seq, round_, n = _RECORD_HEAD.unpack_from(payload)
        procedure, off = text_at(payload, _RECORD_HEAD.size)
        aborted = []
        for _ in range(n):
            name, off = text_at(payload, off)
            aborted.append((name, _ROUND.unpack_from(payload, off)[0]))
            off += _ROUND.size
        return cls(seq, procedure, round_, payload[off:], tuple(aborted))


@functools.lru_cache(maxsize=1024)
def _frame_head(procedure: str) -> tuple[Callable, int, bytes]:
    """For ``procedure``, made once: the packer of a record frame's start
    (frame length u32, record head, then the name's text, which it takes
    last), how many payload bytes that start holds, and the name's text."""
    name = name_bytes(procedure)
    head = struct.Struct(f"<I{_RECORD_HEAD.format[1:]}{len(name)}s")
    return head.pack, _RECORD_HEAD.size + len(name), name


# the procedure kinds whose transactions each log mode logs, by the kind of
# the transaction's entry procedure: strong logs every transaction; weak
# only those with no upstream that could regenerate them (border streaming
# and OLTP); an engine without a log logs nothing
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
    write and sync a temp file, rename it over ``path``, sync the directory.
    An I/O error raises ``LogWriteFailure``."""
    tmp = path + TEMP_SUFFIX
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _sync_dir(path)
    except OSError as e:
        raise LogWriteFailure(str(e)) from e


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
        try:
            self._fh = open(self.path, "ab")
        except OSError as e:
            raise LogWriteFailure(str(e)) from e

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
    pending record is older than ``max_delay``, or explicitly. ``pending``
    lists the buffered (record, ticket) pairs, and ``deadline`` is when the
    oldest of them is overdue: ``append`` sets it for the first record to
    wait and flushes a record appended after it at once, and the
    partition, while a record waits, compares ``time.monotonic()`` with it
    inline and calls ``flush`` once it has passed. A log without a file (no
    data dir or no recovery mode) has no mode and logs nothing. Every flush
    counts in ``counters.sync_count``.
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
        self.pending: list[tuple[CommandLogRecord, object]] = []
        # when the oldest pending record is overdue (``time.monotonic``);
        # None while nothing waits
        self.deadline: Optional[float] = None
        self._file = None
        if mode is not None:
            self._file = AppendFile(path, _log_header(mode, partition_id), fsync)

    def append(self, record: CommandLogRecord, ticket=None) -> None:
        """Buffer ``record``, setting the deadline when it is the first to
        wait; flush once ``max_batch`` records are pending or the deadline
        has passed."""
        pending = self.pending
        pending.append((record, ticket))
        now = time.monotonic()
        if len(pending) == 1:
            self.deadline = now + self.max_delay
        if len(pending) >= self.max_batch or now >= self.deadline:
            self.flush()

    def flush(self) -> int:
        """Write and sync all pending records, then release their tickets."""
        if not self.pending:
            return 0
        batch, self.pending = self.pending, []
        self.deadline = None
        self._file.append(b"".join([record.encode() for record, _ in batch]))
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
        self.pending.clear()
        self.deadline = None
        if self._file is not None:
            self._file.close()

    def close(self) -> None:
        """Flush, then close the file even when the flush fails."""
        try:
            self.flush()
        finally:
            if self._file is not None:
                self._file.close()


def read_log(
    path: str,
) -> tuple[RecoveryMode, int, int, int, list[CommandLogRecord]]:
    """Read a command log; a torn record truncates the tail (standard rule).

    Returns (mode, partition_id, snapshot seq, the offset where the last
    whole frame ends, records in file order).
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
    end = len(LOG_MAGIC) + _LOG_HEAD.size
    records: list[CommandLogRecord] = []
    for payload in payloads:
        rec = CommandLogRecord.decode(payload)
        if records and rec.commit_seq <= records[-1].commit_seq:
            raise CorruptLogRecord("commit sequence not increasing")
        records.append(rec)
        end += len(payload) + FRAME_OVERHEAD
    return RecoveryMode(mode_v), partition_id, snapshot_seq, end, records


def cut_torn_tail(path: str, end: int, fsync: bool) -> None:
    """Cut ``path`` back to its first ``end`` bytes, the whole frames before
    a torn tail, so that later appends follow them instead of bytes no read
    gets past; sync the cut when ``fsync`` is set. A file no longer than
    ``end`` is left as it is. An I/O error raises ``LogWriteFailure``."""
    try:
        with open(path, "r+b") as fh:
            if fh.seek(0, os.SEEK_END) <= end:
                return
            fh.truncate(end)
            if fsync:
                os.fsync(fh.fileno())
    except OSError as e:
        raise LogWriteFailure(str(e)) from e


def make_dirs(path: str, fsync: bool) -> None:
    """``os.makedirs(path, exist_ok=True)``; with ``fsync`` set, also sync
    the parent of each directory it creates, so that the new entries
    survive a crash."""
    created = []
    d = os.path.abspath(path)
    while not os.path.isdir(d):
        created.append(d)
        d = os.path.dirname(d)
    os.makedirs(path, exist_ok=True)
    if fsync:
        for new in reversed(created):
            _sync_dir(new)


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
    ``retained`` to the batches above their border's consumption mark and
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
