"""Durability: command log with group commit, input caching, recovery replay.

This module owns the data directory, its file names and every file-system
call the engine makes, through one small file layer: ``open_data_dir``
lists the directory once when an engine opens it, ``AppendFile`` appends
to a file that starts with a header and cuts it back in place,
``truncate_log`` cuts the log back to a new header in place,
``replace_file`` swaps a whole file atomically, ``_read_frames`` reads one
back, and the snapshot calls write, prune (to ``KEEP_SNAPSHOTS``) and read
them, newest first. A call that changes the directory raises
``LogWriteFailure`` on an I/O error.
Each file is a header, then codec frames. A torn frame ends it, and
recovery cuts the log and the cache back to their last whole frame
(``AppendFile.cut``) before the engine appends again; a corrupt one raises
(``codec.frames`` tells them apart: a crash tears only the last write). A
file holding only a prefix of its header holds no frame, and opening it
writes the header whole (``AppendFile``), but for a log beside a snapshot.
The log header's snapshot seq is the commit sequence of the snapshot the
log follows: the checkpoint that wrote that snapshot truncated the log, so
the commits up to it are in no log record.
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

    log header:    magic "STXLOG01" | version u32 (7) | mode u8 | partition u32
                   | snapshot seq u64
    log frame:     the records of one group commit, in commit order
    log record:    len u32 | commit_seq u64 | round u64 | aborted count u32 |
                   procedure text | per abort: procedure text | round u64 |
                   args, where len counts the bytes after it
    cache header:  magic "STXINP04"
    cache frame:   one ``{stream: batch}`` in the codec's batch encoding

Border args are that batch encoding too: a batch's column types, then its
rows without the batch id, which the batch's head holds. The input cache
backs the weak-recovery upstream-backup scheme: every external batch is
written there before its border execution runs.

One ``fsync`` policy holds for every durable byte: the log, the cache and
the file steps a checkpoint takes. A checkpoint replaces the snapshot
whole, cuts the log back to a new header in place, and cuts the cache
back to its header in place when it keeps no batch, or else replaces it
whole. With ``fsync`` on, a new data directory's entry, a new file's
header and its directory entry are synced when they are created, an
append is synced before it returns, a cut in place is synced once it is
made, and ``replace_file`` syncs the temp file before its rename and the
directory after it, so that a power loss, too, should keep what the
recovery mode promises. With it off, nothing is synced: appends are
flushed to the OS, a cut is a write and a truncate, and a replacement is
a write and a rename. That still keeps the promise across a process
crash, since the OS keeps every written byte and a rename is seen whole
or not at all, but it promises nothing across a power loss.
"""

from __future__ import annotations

import enum
import errno
import functools
import os
import re
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

from .codec import decode_batches, encode_batches, frame, frames, name_bytes, text_at
from .errors import CorruptLogRecord, LogWriteFailure
from .model import AtomicBatch, ProcedureKind

LOG_MAGIC = b"STXLOG01"
CACHE_MAGIC = b"STXINP04"
LOG_VERSION = 7
_LOG_HEAD = struct.Struct("<IBIQ")  # version, mode, partition, snapshot seq
_RECORD_HEAD = struct.Struct("<IQQI")  # len, commit_seq, round, aborted count
_RECORD_READ = struct.Struct("<IQQIH")  # that head and the procedure's text length
_ROUND = struct.Struct("<Q")
_U32 = struct.Struct("<I")  # a frame's length, and its CRC of length and payload
TEMP_SUFFIX = ".tmp"  # replace_file writes here before the rename
LOG_FILE = "command.log"
CACHE_FILE = "input.cache"
KEEP_SNAPSHOTS = 2  # recovery falls back to the older one if the newest is damaged
_SNAPSHOT_RE = re.compile(r"^snapshot-\d{12}\.snap$")  # sorts as its commit seq


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
        """The record, unframed: one compiled head packs its length, the
        record head and the procedure's name (``_record_head``); the
        carried aborts and the args follow. ``CommandLog.flush`` frames the
        records of a group commit together."""
        seq, procedure, round_, args, aborted = self
        pack, size, name = _record_head(procedure)
        if aborted:
            carried = [name_bytes(p) + _ROUND.pack(r) for p, r in aborted]
            args = b"".join(carried) + args
        return pack(size + len(args), seq, round_, len(aborted), name) + args


@functools.lru_cache(maxsize=1024)
def _record_head(procedure: str) -> tuple[Callable, int, bytes]:
    """For ``procedure``, made once: the packer of a record's head, then
    the name's text, which it takes last; how many bytes after the length
    that packs; and the name's text."""
    name = name_bytes(procedure)
    head = struct.Struct(f"{_RECORD_HEAD.format}{len(name)}s")
    return head.pack, _RECORD_HEAD.size - 4 + len(name), name


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


def _write_failure(fn: Callable) -> Callable:
    """``fn``, raising ``LogWriteFailure`` for an I/O error."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OSError as e:
            raise LogWriteFailure(str(e)) from e
    return call


@_write_failure
def replace_file(path: str, data: bytes, fsync: bool) -> None:
    """Make ``path`` hold exactly ``data`` across a crash at any point:
    write a temp file and rename it over ``path``, so a crash leaves the
    old file or the new one whole. With ``fsync`` set, the temp file is
    synced before the rename and the directory after it, so that this
    holds across a power loss too (the engine's one ``fsync`` policy; see
    the module docstring)."""
    tmp = path + TEMP_SUFFIX
    with open(tmp, "wb") as fh:
        fh.write(data)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
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

    Opening a new file, or one that a crash left holding a prefix of the
    header, writes the header whole; any other file shorter than it raises
    ``CorruptLogRecord``. With ``fsync`` set, the header and the directory
    entry are synced, so later synced appends are never orphaned by a
    power loss that drops the new file itself.
    """

    @_write_failure
    def __init__(self, path: str, header: bytes, fsync: bool):
        self.path = path
        self.fsync = fsync
        self._fh = open(path, "ab")
        held = self._fh.tell()
        if held < len(header):
            if held and not header.startswith(_read(path)):
                self._fh.close()
                raise CorruptLogRecord(f"bad header in {os.path.basename(path)}")
            self._fh.write(header[held:])
            self._fh.flush()
            if fsync:
                os.fsync(self._fh.fileno())
                _sync_dir(path)

    def append(self, data: bytes) -> None:
        """Write ``data``; sync it too when the engine's ``fsync`` is set."""
        try:
            self._fh.write(data)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        except OSError as e:
            raise LogWriteFailure(str(e)) from e

    @_write_failure
    def reopen(self) -> None:
        """Append to the file now at ``path``, after it was replaced."""
        self._fh.close()
        self._fh = open(self.path, "ab")

    @_write_failure
    def cut(self, size: int) -> None:
        """Cut a file longer than ``size`` bytes back to them in place;
        appends go on after them. The cut is synced when ``fsync`` is set."""
        fd = self._fh.fileno()
        if os.fstat(fd).st_size <= size:
            return
        os.ftruncate(fd, size)
        if self.fsync:
            os.fsync(fd)

    def close(self) -> None:
        self._fh.close()


def _read(path: str, size: int = -1) -> bytes:
    """The first ``size`` bytes of ``path``, or all of them."""
    try:
        with open(path, "rb") as fh:
            return fh.read(size)
    except FileNotFoundError:
        raise CorruptLogRecord(f"missing {os.path.basename(path)}") from None


def _read_frames(
    path: str, magic: bytes, head_size: int
) -> tuple[bytes, list[bytes], int]:
    """The ``head_size`` header bytes after ``magic`` (fewer in a shorter
    file, whose frames end with the header it lacks; the caller checks),
    the frame payloads after them and the offset where the last one ends."""
    blob = _read(path)
    start = len(magic) + head_size
    if not (blob.startswith(magic) or magic.startswith(blob)):
        raise CorruptLogRecord(f"bad header in {os.path.basename(path)}")
    if len(blob) < start:
        return blob[len(magic) :], [], start
    return blob[len(magic) : start], *frames(blob, start, os.path.basename(path))


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
    inline and calls ``flush`` once it has passed. A log without a ``file``
    (no data dir or no recovery mode) has no mode and logs nothing. Every
    flush counts in ``counters.sync_count``.
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
        self.file = None
        if mode is not None:
            self.file = AppendFile(path, _log_header(mode, partition_id), fsync)

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
        """Write and sync all pending records as one frame, built inline as
        ``codec.frame`` builds one, then release their tickets."""
        if not self.pending:
            return 0
        batch, self.pending = self.pending, []
        self.deadline = None
        records = b"".join([record.encode() for record, _ in batch])
        body = _U32.pack(len(records)) + records
        self.file.append(body + _U32.pack(zlib.crc32(body)))
        self.counters.sync_count += 1
        for _, ticket in batch:
            if ticket is not None:
                ticket.acknowledged = True
        return len(batch)

    def crash(self) -> None:
        """Drop buffered records and close, as a power failure would."""
        self.pending.clear()
        self.deadline = None
        if self.file is not None:
            self.file.close()

    def close(self) -> None:
        """Flush, then close the file even when the flush fails."""
        try:
            self.flush()
        finally:
            if self.file is not None:
                self.file.close()


def read_log(
    path: str,
) -> tuple[Optional[RecoveryMode], Optional[int], int, int, list[CommandLogRecord]]:
    """Read a command log; a torn frame ends it (``codec.frames``).

    Returns (mode, partition_id, snapshot seq, the offset where the last
    whole frame ends, records in file order); a log shorter than its header
    holds no record, and its mode and partition read as None.
    """
    head, payloads, end = _read_frames(path, LOG_MAGIC, _LOG_HEAD.size)
    # the version leads, so an older header, shorter than this one, still
    # reads as its version
    version = int.from_bytes(head[:4], "little")
    if len(head) >= 4 and version != LOG_VERSION:
        raise CorruptLogRecord(f"unsupported log version {version}")
    if len(head) < _LOG_HEAD.size:
        return None, None, 0, end, []
    _, _, partition_id, snapshot_seq = _LOG_HEAD.unpack(head)
    records: list[CommandLogRecord] = []
    names: dict[bytes, str] = {}  # each procedure's text, decoded once
    new, unpack, last = tuple.__new__, _RECORD_READ.unpack_from, -1
    try:
        for payload in payloads:
            off = 0
            while off < len(payload):
                size, seq, round_, n, name_len = unpack(payload, off)
                if seq <= last:
                    raise CorruptLogRecord("commit sequence not increasing")
                last, stop = seq, off + 4 + size
                off += _RECORD_READ.size + name_len
                name = payload[off - name_len : off]
                procedure = names.get(name) or names.setdefault(name, name.decode())
                aborted = ()
                if n:  # rare: the aborts since the previous record
                    carried = []
                    for _ in range(n):
                        proc, off = text_at(payload, off)
                        carried.append((proc, _ROUND.unpack_from(payload, off)[0]))
                        off += _ROUND.size
                    aborted = tuple(carried)
                if not off <= stop <= len(payload):
                    raise ValueError("record runs past its frame")
                rec = (seq, procedure, round_, payload[off:stop], aborted)
                records.append(new(CommandLogRecord, rec))
                off = stop
    except (struct.error, ValueError) as e:  # UnicodeDecodeError is a ValueError
        raise CorruptLogRecord(f"malformed record in {os.path.basename(path)}: {e}") from None
    return _mode(head, path), partition_id, snapshot_seq, end, records


def read_log_mode(path: str) -> RecoveryMode:
    """The mode byte of the log at ``path``, read alone; a log missing or
    too short to hold it raises ``CorruptLogRecord``."""
    return _mode(_read(path, len(LOG_MAGIC) + 5)[len(LOG_MAGIC) :], path)


def _mode(head: bytes, path: str) -> RecoveryMode:
    """The mode in ``head``, a log header's bytes after its magic; a head
    too short to hold one, or holding none, raises ``CorruptLogRecord``."""
    try:
        return RecoveryMode(head[4])  # after the u32 version
    except (IndexError, ValueError):
        raise CorruptLogRecord(f"bad header in {os.path.basename(path)}") from None


@_write_failure
def truncate_log(
    path: str,
    mode: RecoveryMode,
    partition_id: int,
    snapshot_seq: int = 0,
    fsync: bool = True,
) -> None:
    """Start the log over after the snapshot at ``snapshot_seq`` made the
    records up to it redundant; recovery then needs that snapshot or a
    newer one. The log is cut in place, so a handle that appends to it
    appends after the new header: the header is written over the old one,
    then the file is cut to it, and the cut is synced when ``fsync`` is
    set. A crash between the two leaves the new header before records up
    to ``snapshot_seq``, which recovery skips. A missing log is created,
    and with ``fsync`` set its directory entry is synced too."""
    header = _log_header(mode, partition_id, snapshot_seq)
    # no O_APPEND: on Linux, pwrite on such a descriptor appends
    try:
        fd, created = os.open(path, os.O_WRONLY), False
    except FileNotFoundError:
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), True
    try:
        if os.pwrite(fd, header, 0) != len(header):
            raise OSError(errno.EIO, f"short header write to {path}")
        os.ftruncate(fd, len(header))
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    if created and fsync:
        _sync_dir(path)


# --- the data directory ---


def data_path(data_dir: str, name: str) -> str:
    return os.path.join(data_dir, name)


@_write_failure
def open_data_dir(data_dir: str, fsync: bool) -> list[str]:
    """List ``data_dir`` once: remove the temp file of each ``replace_file``
    that a crash cut short, and return the names of the log, the cache and
    the snapshots it holds, in name order. A missing ``data_dir`` holds
    none; it is made, syncing with ``fsync`` set each new entry's parent."""
    try:
        names = os.listdir(data_dir)
    except FileNotFoundError:
        made = []
        d = os.path.abspath(data_dir)
        while not os.path.isdir(d):
            made.append(d)
            d = os.path.dirname(d)
        os.makedirs(data_dir, exist_ok=True)
        if fsync:
            for new in reversed(made):
                _sync_dir(new)
        return []
    for name in names:
        if name.endswith(TEMP_SUFFIX):
            os.remove(os.path.join(data_dir, name))
    return sorted(n for n in names if n in (LOG_FILE, CACHE_FILE) or _SNAPSHOT_RE.match(n))


def write_snapshot(data_dir: str, commit_seq: int, blob: bytes, fsync: bool) -> str:
    """Write the snapshot at ``commit_seq`` with ``replace_file``; its path."""
    path = os.path.join(data_dir, f"snapshot-{commit_seq:012d}.snap")
    replace_file(path, blob, fsync)
    return path


@_write_failure
def prune_snapshots(data_dir: str) -> None:
    """Remove all but the newest ``KEEP_SNAPSHOTS`` snapshots."""
    names = sorted(n for n in os.listdir(data_dir) if _SNAPSHOT_RE.match(n))
    for name in names[:-KEEP_SNAPSHOTS]:
        os.remove(os.path.join(data_dir, name))


def read_snapshots(data_dir: str, names: list[str]) -> Iterator[bytes]:
    """The bytes of each snapshot of ``data_dir`` that ``names`` lists,
    oldest first, read newest first and each when it is asked for."""
    for name in reversed(names):
        yield _read(os.path.join(data_dir, name))


# --- upstream backup ---


@dataclass
class InputCache:
    """Retained external batches, written before the border runs (weak mode).

    Only a cache with a ``file`` retains anything. A checkpoint sets
    ``retained`` to the batches above their border's consumption mark and
    calls ``compact``; in between, every appended batch is kept.
    """

    path: Optional[str] = None
    fsync: bool = True
    retained: dict[str, list[AtomicBatch]] = field(default_factory=dict)

    def __post_init__(self):
        path = self.path
        self.file = None if path is None else AppendFile(path, CACHE_MAGIC, self.fsync)

    def append(self, stream: str, batch: AtomicBatch, payload: bytes) -> None:
        """Retain ``batch`` and write ``payload``, the codec's encoding of
        ``{stream: batch}``, to the file."""
        if self.file is None:
            return
        self.retained.setdefault(stream, []).append(batch)
        self.file.append(frame(payload))

    def compact(self) -> None:
        """Make the durable file hold only the still-retained batches: with
        none retained, cut it back to its header in place; else replace it
        whole, since a rewrite in place that a crash cut short could lose a
        retained batch."""
        if self.file is None:
            return
        records = [
            frame(encode_batches({s: b}))
            for s in sorted(self.retained)
            for b in self.retained[s]
        ]
        if not records:
            self.file.cut(len(CACHE_MAGIC))
            return
        replace_file(self.path, CACHE_MAGIC + b"".join(records), self.fsync)
        self.file.reopen()

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def read_input_cache(path: str) -> tuple[dict[str, list[AtomicBatch]], int]:
    """All cached batches by stream, in append order, and the offset where
    the last whole frame ends; a torn frame ends the cache (``codec.frames``)."""
    out: dict[str, list[AtomicBatch]] = {}
    _, payloads, end = _read_frames(path, CACHE_MAGIC, 0)
    for payload in payloads:
        for stream, batch in decode_batches(payload).items():
            out.setdefault(stream, []).append(batch)
    return out, end


@dataclass(frozen=True)
class DispatchCounts:
    """Replay work split by path: client-style dispatches vs trigger-internal."""

    client_path: int
    trigger_path: int


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
