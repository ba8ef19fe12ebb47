"""Engine assembly: builds a partition from a declarative spec, feeds it
atomic batches, takes checkpoints, and recovers after a crash.

One Engine wraps one partition. Partitioned deployments instantiate several
engines that share nothing (see ``partitioned_engines``). An engine with a
data directory and a recovery mode starts fresh in one that holds none of
its files, and recovers any other (``Engine._recover``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import (
    BadDefinition,
    CorruptLogRecord,
    CorruptSnapshot,
    EngineStopped,
    NotPartitionable,
    ReplayDivergence,
    StreamTxError,
    VersionMismatch,
    WrongKind,
)
from .executor import (
    Counters,
    Origin,
    Partition,
    ProcedurePlan,
    TERequest,
    Ticket,
    batches_to_args,
    encode_args,
    make_plans,
)
from .model import AtomicBatch, ProcedureKind, Tuple, Workflow
from .recovery import (  # the file layer: the engine makes no file-system call
    CACHE_FILE, LOG_FILE, CommandLog, CommandLogRecord, InputCache, RecoveryMode,
    data_path, open_data_dir, prune_snapshots, read_input_cache, read_log,
    read_log_mode, read_snapshots, truncate_log, write_snapshot,
)
from .snapshot import restore_state, snapshot_state, verify_snapshot
from .storage import Store, UndoBuffer, make_schema
from .triggers import StatementTrigger, TriggerEngine


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[tuple[str, str], ...]
    indexes: tuple[str, ...] = ()


@dataclass(frozen=True)
class StreamDef:
    name: str
    columns: tuple[tuple[str, str], ...]


@dataclass
class EngineSpec:
    """Everything needed to build (or rebuild, for recovery) an engine."""

    workflows: list[Workflow] = field(default_factory=list)
    tables: list[TableDef] = field(default_factory=list)
    streams: list[StreamDef] = field(default_factory=list)
    window_columns: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)
    statement_triggers: list[StatementTrigger] = field(default_factory=list)
    use_procedure_triggers: bool = True  # off = client-driven baseline mode
    partition_key: Optional[str] = None  # hash column for partitioned runs
    seed_rows: dict[str, list[tuple]] = field(default_factory=dict)


class Engine:
    # the rows each table's last checkpoint encoded (``snapshot_state``);
    # None before the engine's first checkpoint
    _snapshot_memo: Optional[dict] = None

    def __init__(
        self,
        spec: EngineSpec,
        partition_id: int = 0,
        data_dir: Optional[str] = None,
        recovery_mode: Optional[RecoveryMode] = None,
        group_commit_max_batch: int = 1,
        group_commit_max_delay: float = 0.005,
        fsync: bool = True,
        schedule_capacity: Optional[int] = None,
        post_commit_hook: Optional[Callable] = None,
        queue_bound: int = 10_000,
    ):
        self.spec = spec
        self.data_dir = data_dir
        self.queue_bound = queue_bound

        store = Store()
        for t in spec.tables:
            store.create_public(t.name, make_schema(*t.columns), t.indexes)
        for s in spec.streams:
            store.create_stream(s.name, make_schema(*s.columns))
        seed_undo = UndoBuffer()  # never rolled back
        for table, rows in spec.seed_rows.items():
            for row in rows:
                store.insert(table, Tuple(tuple(row)), seed_undo)
        # without a data dir or a recovery mode the log and the cache hold no
        # file: nothing is logged and every commit is acknowledged at once
        mode = recovery_mode if data_dir is not None else None
        plans = make_plans(spec.workflows, store, mode)
        for plan in plans.values():
            for wd in plan.proc.window_defs:
                if wd.name not in spec.window_columns:
                    raise BadDefinition(f"window {wd.name} has no schema")
                store.create_window(wd, make_schema(*spec.window_columns[wd.name]))
        triggers = TriggerEngine(store)
        for st in spec.statement_triggers:
            triggers.register_statement_trigger(st)
        triggers.unread_windows_carry_no_rows()
        if spec.use_procedure_triggers:
            for w in spec.workflows:
                for e in w.edges:
                    consumer = plans[e.consumer]
                    group = consumer.group
                    # an edge between two children of a group runs inside it
                    if group is None or plans[e.producer].group is not group:
                        triggers.register_procedure_trigger(
                            e.stream, consumer.proc, group
                        )
        log_path = cache_path = found = None
        if mode is not None:
            names = open_data_dir(data_dir, fsync)
            log_path = data_path(data_dir, LOG_FILE)
            if mode is RecoveryMode.WEAK:
                cache_path = data_path(data_dir, CACHE_FILE)
            if names:  # a used directory: its log is read before it is opened
                snapshots = [n for n in names if n not in (LOG_FILE, CACHE_FILE)]
                log_mode, owner, *found = read_log(log_path)
                if log_mode not in (None, mode):
                    raise VersionMismatch(
                        f"log was written in {log_mode.name} mode, not {mode.name}"
                    )
                if owner not in (None, partition_id):
                    raise VersionMismatch(
                        f"log belongs to partition {owner}, not {partition_id}"
                    )
                # a short log holds no record, but it cannot say which
                # snapshot it follows
                if owner is None and snapshots:
                    raise CorruptLogRecord(f"bad header in {LOG_FILE}")
        # border -> round -> (its batches so far, its ticket), for the rounds
        # of a border with more than one input that miss a batch or wait
        # behind a lower round
        self._feeder_pending: dict[str, dict[int, tuple[dict, Ticket]]] = {}
        # a border's inputs are exactly the streams no edge produces
        self._border_for_stream: dict[str, ProcedurePlan] = {
            s: plan
            for plan in plans.values()
            if plan.proc.kind is ProcedureKind.BORDER
            for s in plan.proc.stream_inputs
        }
        log = CommandLog(
            log_path, mode, Counters(), partition_id, max_batch=group_commit_max_batch,
            max_delay=group_commit_max_delay, fsync=fsync,
        )
        cache = None
        try:
            cache = InputCache(cache_path, fsync)
            self.partition = Partition(
                partition_id, store, triggers, plans, log=log, input_cache=cache,
                schedule_capacity=schedule_capacity, post_commit_hook=post_commit_hook,
            )
            if found is not None:
                self._recover(*found, snapshots)
        except BaseException:
            log.crash()  # close the files it opened
            if cache is not None:
                cache.close()
            raise

    def _recover(
        self, log_snapshot_seq: int, log_end: int, records: list[CommandLogRecord],
        snapshots: list[str],
    ) -> None:
        """Bring back what the data dir holds, as the ``recovery`` module
        says. A snapshot of another partition, or a cache of another spec,
        raises ``VersionMismatch``; a newest valid snapshot older than the
        one the log follows raises ``CorruptSnapshot``."""
        p = self.partition
        strong = p.log.mode is RecoveryMode.STRONG
        p.log.file.cut(log_end)
        if not strong:
            cached, cache_end = read_input_cache(p.input_cache.path)
            p.input_cache.file.cut(cache_end)
        snapshot_seq = 0
        for blob in read_snapshots(self.data_dir, snapshots):  # newest first
            try:
                verify_snapshot(blob)
            except CorruptSnapshot:
                continue  # a torn snapshot: fall back to the older one
            owner, snapshot_seq = restore_state(blob, self.store)
            if owner != p.id:
                raise VersionMismatch(f"snapshot belongs to partition {owner}, not {p.id}")
            p.commit_seq = snapshot_seq
            break
        if snapshot_seq < log_snapshot_seq:
            # the log was truncated after a snapshot that is now unreadable:
            # the commits between the two are gone
            raise CorruptSnapshot(
                f"newest valid snapshot is at commit {snapshot_seq}, but the "
                f"log follows the snapshot at commit {log_snapshot_seq}"
            )
        # every record after the snapshot runs once, or replay raises
        replayed = [rec for rec in records if rec.commit_seq > snapshot_seq]
        c = self.counters
        crossings = c.boundary_crossings
        # strong replays every transaction with procedure triggers off; weak
        # replays border and OLTP records, and the triggers bring back the
        # interiors. A replay that raises fails the constructor.
        p.trigger_engine.pe_enabled = not strong
        for rec in replayed:
            if strong and rec.commit_seq != p.commit_seq + 1:
                raise ReplayDivergence(
                    f"expected commit {p.commit_seq + 1}, log has {rec.commit_seq}"
                )
            for proc, round_ in rec.aborted:
                p.drop_aborted(proc, round_)
            req = TERequest(rec.procedure, rec.round, rec.args, Origin.RECOVERY)
            if p.execute(req) != "committed":
                raise ReplayDivergence(
                    f"{rec.procedure} round {rec.round} aborted during replay"
                )
            if not strong:
                p.run_until_idle()
        p.trigger_engine.pe_enabled = True
        c.replay_client_dispatches = len(replayed)
        c.replay_trigger_dispatches = c.boundary_crossings - crossings
        # a border took each round its transaction ended, by commit or abort
        for plan in p.plans.values():
            if plan.proc.kind is ProcedureKind.BORDER:
                p.last_queued[plan.proc.name] = _mark(plan)
        p.refire_nonempty_streams()
        if not strong:
            # re-submit the cached rounds no border has ended. Weak replay
            # numbers the commits it runs afresh, so a fresh checkpoint
            # starts the log over after them; with no record replayed, the
            # log holds no commit after the snapshot and needs none
            p.input_cache.retained = self._unended(cached)
            for stream in sorted(p.input_cache.retained):
                for batch in p.input_cache.retained[stream]:
                    self.ingest_batch(stream, batch, resubmit=True)
            if replayed:
                self.checkpoint()

    # --- convenience accessors ---

    @property
    def store(self) -> Store:
        return self.partition.store

    @property
    def counters(self):
        return self.partition.counters

    @property
    def committed_schedule(self):
        return self.partition.committed_schedule

    # --- ingestion and client calls ---

    def ingest_batch(
        self, stream: str, batch: AtomicBatch, resubmit: bool = False
    ) -> Optional[Ticket]:
        """Hand one external batch to its border procedure.

        A border runs its rounds in increasing order: a round with every
        input batch is submitted once no lower round waits for one, and a
        batch for a round the border already took (``Partition.last_queued``),
        or a second one from a stream, raises ``BadDefinition``. A one-input
        border's batch is its whole round and goes straight to the client
        queue; a border with more inputs keeps a round's batches in a feeder
        slot until the round is complete and no lower round waits. A round
        queues behind the rounds that a full queue's pump (``queue_bound``)
        runs first; should that pump stop the partition, the call raises,
        with the failed write's ``LogWriteFailure`` or else
        ``EngineStopped``, and the border does not take the round: a
        one-input round is neither cached nor queued, and a slot keeps its
        round. A call made while an execution runs, from a procedure body,
        raises ``StreamTxError`` before it changes anything, so only that
        execution aborts. The stream's ``check_row``, the one value rule,
        accepts every tuple here, once: nothing downstream checks the batch
        again. A batch is encoded only for a file that keeps it. In weak
        mode the input cache writes it before the round runs, so an
        unacknowledged round survives a crash; a border the log keeps gets
        its encoded round as the request's args, which for a one-input
        round in weak mode is the cache's encoding. The request carries
        the batches themselves, so the live execution decodes nothing, and
        an unlogged border's args stay empty. The call that completes a
        round returns its ticket, even while the round waits; earlier calls
        return None.
        """
        p = self.partition
        if p.stopped:
            raise EngineStopped("partition is stopped")
        if p.executing:  # a body feeding its own partition aborts alone
            raise StreamTxError("serial execution violated")
        plan = self._border_for_stream.get(stream)
        if plan is None:
            raise BadDefinition(f"stream {stream} is not a border input")
        proc_name = plan.proc.name
        table = p.stream_plans[stream].table
        round_ = batch.batch_id
        pending = self._feeder_pending.get(proc_name)
        slot = None if pending is None else pending.get(round_)
        if slot is not None and stream in slot[0]:
            raise BadDefinition(f"{proc_name} round {round_} already has {stream}")
        if slot is None and round_ <= p.last_queued.get(proc_name, 0):
            raise BadDefinition(f"{proc_name} already took round {round_}")
        table.check_rows(batch.tuples)
        by_stream = {stream: batch}
        n_inputs = len(plan.inputs)
        # the queue-bound pump runs before the round is cached or queued
        if n_inputs == 1 and (
            len(p.client_queue) + len(p.fast_track) >= self.queue_bound
        ):
            self.run_until_idle()
            if p.stopped:
                raise EngineStopped("partition is stopped")
        cached = None  # the cache's encoding of this batch, if it keeps one
        if not resubmit and p.input_cache.path is not None:
            cached = batches_to_args(by_stream)
            p.fail_stop(p.input_cache.append, stream, batch, cached)
        if n_inputs == 1:
            # this batch completes the round, and no lower round of a
            # one-input border can wait for a batch: queue it, with no slot
            args = b""
            if plan.logged:  # the cache may have encoded the round already
                args = cached or batches_to_args(by_stream)
            p.last_queued[proc_name] = round_
            ticket = Ticket()
            p.client_queue.append(
                TERequest(proc_name, round_, args, Origin.CLIENT, ticket, by_stream)
            )
            return ticket
        if pending is None:
            pending = self._feeder_pending[proc_name] = {}
        if slot is None:
            slot = pending[round_] = ({}, Ticket())
        batches, ticket = slot
        batches[stream] = batch
        if len(batches) < n_inputs:
            return None
        while pending:
            low = min(pending)
            ready, low_ticket = pending[low]
            if len(ready) < n_inputs:
                break
            if len(p.client_queue) + len(p.fast_track) >= self.queue_bound:
                self.run_until_idle()
                if p.stopped:
                    raise EngineStopped("partition is stopped")
            del pending[low]
            p.last_queued[proc_name] = low
            args = batches_to_args(ready) if plan.logged else b""
            p.client_queue.append(
                TERequest(proc_name, low, args, Origin.CLIENT, low_ticket, ready)
            )
        return ticket

    def call_oltp(self, proc: str, args=None) -> Ticket:
        p = self.partition.plan(proc).proc
        if p.kind is not ProcedureKind.OLTP:
            raise WrongKind(f"{proc} is not an OLTP procedure")
        req = TERequest(proc, 0, encode_args(args), Origin.CLIENT)
        return self.partition.submit_client(req)

    def await_ticket(self, ticket: Ticket) -> Ticket:
        """Pump until the outcome is known, then force the flush that
        acknowledges it if the acknowledgment still waits for one."""
        while not ticket.done:
            if not self.partition.step():
                break
        if ticket.done and not ticket.acknowledged:
            self.partition.fail_stop(self.partition.log.flush)
        return ticket

    # --- execution pumps ---

    def step(self) -> bool:
        return self.partition.step()

    def run_until_idle(self) -> None:
        self.partition.run_until_idle()

    def drain_and_quiesce(self) -> None:
        self.partition.drain_and_quiesce()

    # --- durability ---

    def snapshot_bytes(self) -> bytes:
        return snapshot_state(self.store, self.partition.id, self.partition.commit_seq)

    def checkpoint(self) -> str:
        """Quiesce, write a snapshot, truncate the log, compact the input
        cache to the batches above their border's mark (``_unended``), and
        prune the snapshots (``KEEP_SNAPSHOTS``). Each file step is a call
        into the ``recovery`` file layer that syncs only when the engine's
        ``fsync`` is set, which the input cache holds for the engine. A
        failed file step stops the partition, as a failed log write does.
        The snapshot encodes only the rows that public tables and streams
        gained since the last checkpoint (``snapshot_state``'s memo): with
        no execution open once ``drain_and_quiesce`` returns, every row it
        reuses is committed."""
        if self.data_dir is None:
            raise BadDefinition("checkpoint needs a data directory")
        p = self.partition
        cache = p.input_cache
        fsync = cache.fsync  # the engine's one fsync setting
        if self._snapshot_memo is None:
            if p.log.mode is None:
                # an engine without a log first writes to its data dir here
                used = p.fail_stop(open_data_dir, self.data_dir, fsync)
                if used:
                    raise BadDefinition(f"{self.data_dir} already holds {used[0]}")
            self._snapshot_memo = {}
        self.drain_and_quiesce()  # also flushes the log
        blob = snapshot_state(self.store, p.id, p.commit_seq, self._snapshot_memo)
        path = p.fail_stop(write_snapshot, self.data_dir, p.commit_seq, blob, fsync)
        if p.log.mode is not None:
            # cut in place: the log's open handle appends after the new header
            p.fail_stop(truncate_log, p.log.path, p.log.mode, p.id, p.commit_seq, fsync)
        cache.retained = self._unended(cache.retained)
        p.fail_stop(cache.compact)
        p.fail_stop(prune_snapshots, self.data_dir)
        return path

    def _unended(
        self, cached: dict[str, list[AtomicBatch]]
    ) -> dict[str, list[AtomicBatch]]:
        """The batches of ``cached`` whose round their border has not ended.
        A border has ended round r, by commit or abort, exactly when r is at
        most its mark, the highest ``last_consumed_batch`` of its inputs.
        Borders take their rounds in order, so with the fast track drained
        these are the rounds queued for a client or held in a feeder slot.
        A stream that no border reads, from a cache another spec wrote,
        raises ``VersionMismatch``."""
        out = {}
        for s, bs in cached.items():
            if s not in self._border_for_stream:
                raise VersionMismatch(f"input cache holds {s}, which no border reads")
            mark = _mark(self._border_for_stream[s])
            out[s] = [b for b in bs if b.batch_id > mark]
        return out

    def crash(self) -> None:
        """Die without flushing anything buffered, like a power failure."""
        self.partition.stopped = True
        self.partition.log.crash()
        self.partition.input_cache.close()  # the cache buffers nothing

    def close(self) -> None:
        """Flush the log and close both files. The partition stops whatever
        the flush does; a failed flush raises ``LogWriteFailure``."""
        p = self.partition
        p.stopped = True
        try:
            p.log.close()
        finally:
            p.input_cache.close()


def recover(
    spec: EngineSpec, data_dir: str, partition_id: int = 0, **engine_kwargs
) -> Engine:
    """Open ``data_dir`` with an ``Engine`` of the mode its log records. A
    log too short to hold its mode byte raises ``CorruptLogRecord`` here,
    although an ``Engine`` given the mode opens it."""
    mode = read_log_mode(data_path(data_dir, LOG_FILE))
    return Engine(spec, partition_id, data_dir, mode, **engine_kwargs)


def _mark(border: ProcedurePlan) -> int:
    """The highest round ``border`` has ended, by commit or abort: both
    raise its inputs' ``last_consumed_batch`` to the round."""
    return max((t.last_consumed_batch for t in border.inputs), default=0)


def partitioned_engines(
    spec_builder: Callable[[int], EngineSpec],
    p: int,
    **engine_kwargs,
) -> list[Engine]:
    """p share-nothing engines for a hash-partitionable workload."""
    spec0 = spec_builder(0)
    if spec0.partition_key is None:
        raise NotPartitionable("workload declares no partition key")
    if p < 1:
        raise BadDefinition("partition count must be >= 1")
    return [
        Engine(spec_builder(i), partition_id=i, **engine_kwargs) for i in range(p)
    ]


def route_partition(key_value, p: int) -> int:
    """Stable hash routing; identical across processes and runs."""
    return zlib.crc32(repr(key_value).encode()) % p
