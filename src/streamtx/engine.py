"""Engine assembly: builds a partition from a declarative spec, feeds it
atomic batches, takes checkpoints, and recovers after a crash.

One Engine wraps one partition. Partitioned deployments instantiate several
engines that share nothing (see ``partitioned_engines``).
"""

from __future__ import annotations

import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import (
    BadDefinition,
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
from .recovery import (
    TEMP_SUFFIX,
    CommandLog,
    InputCache,
    RecoveryMode,
    cut_torn_tail,
    make_dirs,
    read_input_cache,
    read_log,
    replace_file,
    truncate_log,
)
from .snapshot import restore_state, snapshot_state, verify_snapshot
from .storage import Store, UndoBuffer, make_schema
from .triggers import StatementTrigger, TriggerEngine

SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.snap$")
LOG_FILE = "command.log"
CACHE_FILE = "input.cache"
KEEP_SNAPSHOTS = 2  # recovery falls back to the older one if the newest is damaged


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
    # whether this engine may write into data_dir: recover() sets it for the
    # directory it reopens, and any other engine's first write claims it
    _owns_data_dir = False

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
        log_path = cache_path = None
        if mode is not None:
            self._claim_data_dir()
            make_dirs(data_dir, fsync)
            log_path = os.path.join(data_dir, LOG_FILE)
            if mode is RecoveryMode.WEAK:
                cache_path = os.path.join(data_dir, CACHE_FILE)
        log = CommandLog(
            log_path,
            mode,
            Counters(),
            partition_id,
            max_batch=group_commit_max_batch,
            max_delay=group_commit_max_delay,
            fsync=fsync,
        )
        self.partition = Partition(
            partition_id,
            store,
            triggers,
            plans,
            log=log,
            input_cache=InputCache(cache_path, fsync),
            schedule_capacity=schedule_capacity,
            post_commit_hook=post_commit_hook,
        )
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
        border's batch is its whole round, which goes straight to the client
        queue, behind the rounds that a full queue's pump (``queue_bound``)
        runs first; should that pump stop the partition, the call raises,
        with the failed write's ``LogWriteFailure`` or else
        ``EngineStopped``, and neither caches nor queues the round. A border
        with more inputs keeps a round's batches in a feeder
        slot until the round is complete and no lower round waits. A call
        made while an execution runs, from a procedure body, raises
        ``StreamTxError`` before it changes anything, so only that
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
        # a one-input border's round runs behind the rounds the queue-bound
        # pump runs first; a pump that stops the partition leaves the round
        # uncached and unqueued
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
            del pending[low]
            p.last_queued[proc_name] = low
            if len(p.client_queue) + len(p.fast_track) >= self.queue_bound:
                self.run_until_idle()
            args = batches_to_args(ready) if plan.logged else b""
            req = TERequest(
                proc_name, low, args, Origin.CLIENT, low_ticket, batches=ready
            )
            p.submit_client(req)
        return ticket

    def call_oltp(self, proc: str, args=None) -> Ticket:
        p = self.partition.plan(proc).proc
        if p.kind is not ProcedureKind.OLTP:
            raise WrongKind(f"{proc} is not an OLTP procedure")
        req = TERequest(proc, 0, encode_args(args), Origin.CLIENT)
        return self.partition.submit_client(req)

    def await_ticket(self, ticket: Ticket) -> Ticket:
        """Pump until the outcome is known, then force the group-commit
        timer if the acknowledgment is still buffered."""
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
        """Quiesce, write a snapshot, truncate the log, and compact the input
        cache to the batches above their border's mark (``_unended``). A
        failed file step stops the partition, as a failed log write does."""
        if self.data_dir is None:
            raise BadDefinition("checkpoint needs a data directory")
        self._claim_data_dir()
        self.drain_and_quiesce()  # also flushes the log
        p = self.partition
        blob = self.snapshot_bytes()
        path = os.path.join(self.data_dir, f"snapshot-{p.commit_seq:012d}.snap")
        p.fail_stop(replace_file, path, blob)
        if p.log.mode is not None:
            p.fail_stop(
                truncate_log,
                os.path.join(self.data_dir, LOG_FILE),
                p.log.mode,
                p.id,
                p.commit_seq,
            )
            p.fail_stop(p.log.reopen)
        cache = p.input_cache
        cache.retained = self._unended(cache.retained)
        p.fail_stop(cache.compact)
        for _, name in _snapshots(self.data_dir)[:-KEEP_SNAPSHOTS]:
            os.remove(os.path.join(self.data_dir, name))
        return path

    def _unended(
        self, cached: dict[str, list[AtomicBatch]]
    ) -> dict[str, list[AtomicBatch]]:
        """The batches of ``cached`` whose round their border has not ended.
        A border has ended round r, by commit or abort, exactly when r is at
        most its mark, the highest ``last_consumed_batch`` of its inputs.
        Borders take their rounds in order, so with the fast track drained
        these are the rounds queued for a client or held in a feeder slot."""
        out = {}
        for s, bs in cached.items():
            mark = _mark(self._border_for_stream[s])
            out[s] = [b for b in bs if b.batch_id > mark]
        return out

    def _claim_data_dir(self) -> None:
        """Before this engine first writes into its data directory, refuse
        one that holds a log, cache or snapshot: starting empty, it would
        write commits that recovery cannot order after the old ones."""
        if not self._owns_data_dir and os.path.isdir(self.data_dir):
            for name in sorted(os.listdir(self.data_dir)):
                if name in (LOG_FILE, CACHE_FILE) or SNAPSHOT_RE.match(name):
                    raise BadDefinition(
                        f"{self.data_dir} already holds {name}; recover() reopens it"
                    )
        self._owns_data_dir = True

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


def _snapshots(data_dir: str) -> list[tuple[int, str]]:
    """(commit_seq, file name) of every snapshot, oldest first."""
    found = []
    for name in os.listdir(data_dir):
        m = SNAPSHOT_RE.match(name)
        if m:
            found.append((int(m.group(1)), name))
    return sorted(found)


def latest_valid_snapshot(data_dir: str) -> Optional[bytes]:
    """Newest snapshot that passes its checksum; torn ones are skipped."""
    for _, name in reversed(_snapshots(data_dir)):
        with open(os.path.join(data_dir, name), "rb") as fh:
            blob = fh.read()
        try:
            verify_snapshot(blob)
        except CorruptSnapshot:
            continue
        return blob
    return None


def recover(
    spec: EngineSpec,
    data_dir: str,
    partition_id: int = 0,
    expect_mode: Optional[RecoveryMode] = None,
    **engine_kwargs,
) -> Engine:
    """Bring a crashed engine back per the mode recorded in its log: cut
    the log's torn tail, if it has one, so that new records follow the
    ones recovery reads, load the newest valid snapshot into the tables
    ``spec`` builds, then replay the records after it, in one loop for
    both modes (see the ``recovery`` module). A log or snapshot of another
    partition, or with ``expect_mode`` set a log written in the other mode,
    raises ``VersionMismatch``. A newest valid snapshot older than the one the log
    follows raises ``CorruptSnapshot``."""
    for name in os.listdir(data_dir):
        if name.endswith(TEMP_SUFFIX):  # a replace_file the crash cut short
            os.remove(os.path.join(data_dir, name))
    log_path = os.path.join(data_dir, LOG_FILE)
    mode, log_partition, log_snapshot_seq, log_end, records = read_log(log_path)
    if expect_mode is not None and mode is not expect_mode:
        raise VersionMismatch(
            f"log was written in {mode.name} mode, not {expect_mode.name}"
        )
    if log_partition != partition_id:
        raise VersionMismatch(
            f"log belongs to partition {log_partition}, not {partition_id}"
        )
    cut_torn_tail(log_path, log_end, engine_kwargs.get("fsync", True))
    engine = Engine.__new__(Engine)
    engine._owns_data_dir = True
    engine.__init__(
        spec,
        partition_id=partition_id,
        data_dir=data_dir,
        recovery_mode=mode,
        **engine_kwargs,
    )
    try:
        blob = latest_valid_snapshot(data_dir)
        snapshot_seq = 0
        if blob is not None:
            owner, snapshot_seq = restore_state(blob, engine.store)
            if owner != partition_id:
                raise VersionMismatch(
                    f"snapshot belongs to partition {owner}, not {partition_id}"
                )
            engine.partition.commit_seq = snapshot_seq
        if snapshot_seq < log_snapshot_seq:
            # the log was truncated after a snapshot that is now unreadable:
            # the commits between the two are gone
            raise CorruptSnapshot(
                f"newest valid snapshot is at commit {snapshot_seq}, but the "
                f"log follows the snapshot at commit {log_snapshot_seq}"
            )
        # every record after the snapshot runs once, or replay raises
        replayed = [rec for rec in records if rec.commit_seq > snapshot_seq]
        p = engine.partition
        strong = mode is RecoveryMode.STRONG
        c = engine.counters
        crossings = c.boundary_crossings
        # strong replays every transaction with procedure triggers off; weak
        # replays border and OLTP records, and the triggers bring back the
        # interiors. A replay that raises crashes the engine below.
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
            # re-submit the cached rounds no border has ended, then take a
            # fresh checkpoint so commit sequences stay consistent with the
            # (rotated) log
            cached = read_input_cache(os.path.join(data_dir, CACHE_FILE))
            p.input_cache.retained = engine._unended(cached)
            for stream in sorted(p.input_cache.retained):
                for batch in p.input_cache.retained[stream]:
                    engine.ingest_batch(stream, batch, resubmit=True)
            engine.checkpoint()
    except BaseException:
        engine.crash()  # close its files
        raise
    return engine


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
