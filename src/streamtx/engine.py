"""Engine assembly: builds a partition from a declarative spec, feeds it
atomic batches, takes checkpoints, and recovers after a crash.

One Engine wraps one partition. Partitioned deployments instantiate several
engines that share nothing (see ``partitioned_engines``).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import (
    BadDefinition,
    CorruptSnapshot,
    EngineStopped,
    NotPartitionable,
    ReplayDivergence,
    VersionMismatch,
)
from .executor import (
    Catalog,
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
from .model import AtomicBatch, ProcedureKind, Workflow
from .recovery import (
    TEMP_SUFFIX,
    CommandLog,
    InputCache,
    RecoveryMode,
    read_input_cache,
    read_log,
    replace_file,
    truncate_log,
)
from .snapshot import restore_state, snapshot_state, verify_snapshot
from .storage import Store, make_schema
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
        self.partition_id = partition_id
        self.data_dir = data_dir
        self.recovery_mode = recovery_mode
        self.queue_bound = queue_bound

        store = Store()
        for t in spec.tables:
            store.create_public(t.name, make_schema(*t.columns), t.indexes)
        for s in spec.streams:
            store.create_stream(s.name, make_schema(*s.columns))
        if spec.seed_rows:
            from .model import Tuple
            from .storage import UndoBuffer

            seed_undo = UndoBuffer()
            for table, rows in spec.seed_rows.items():
                for row in rows:
                    store.insert(table, Tuple(tuple(row)), seed_undo)
        catalog = Catalog()
        for w in spec.workflows:
            catalog.add_workflow(w)
            for p in w.procedures:
                for wd in p.window_defs:
                    if wd.name not in spec.window_columns:
                        raise BadDefinition(f"window {wd.name} has no schema")
                    store.create_window(
                        wd, make_schema(*spec.window_columns[wd.name])
                    )
        triggers = TriggerEngine(store)
        for st in spec.statement_triggers:
            triggers.register_statement_trigger(st)
        if spec.use_procedure_triggers:
            for w in spec.workflows:
                for e in w.edges:
                    triggers.register_procedure_trigger(
                        e.stream,
                        catalog.procedures[e.consumer],
                        catalog.group_of.get(e.consumer),
                    )

        # without a data dir or a recovery mode the log and the cache hold no
        # file: nothing is logged and every commit is acknowledged at once
        mode = recovery_mode if data_dir is not None else None
        plans, stream_plans = make_plans(catalog, store, triggers, mode)
        log_path = cache_path = None
        if mode is not None:
            os.makedirs(data_dir, exist_ok=True)
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
            catalog,
            plans,
            stream_plans,
            log=log,
            input_cache=InputCache(cache_path, fsync),
            schedule_capacity=schedule_capacity,
            post_commit_hook=post_commit_hook,
        )
        # border -> round -> (its batches so far, its ticket), for rounds that
        # miss a batch or wait behind a lower round
        self._feeder_pending: dict[str, dict[int, tuple[dict, Ticket]]] = {}
        self._released: dict[str, int] = {}  # border -> last round submitted
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

    @property
    def catalog(self) -> Catalog:
        return self.partition.catalog

    # --- ingestion and client calls ---

    def ingest_batch(
        self, stream: str, batch: AtomicBatch, resubmit: bool = False
    ) -> Optional[Ticket]:
        """Hand one external batch to its border procedure.

        A border runs its rounds in increasing order: a round with every
        input batch is submitted once no lower round waits for one, and a
        batch for a round already submitted or consumed, or a second one from
        a stream, raises ``BadDefinition``. Encoding checks the values before
        anything keeps the batch; it then lands in the input cache (written
        to its file in weak mode), so an unacknowledged round survives a
        crash. The encoded round is the request's args, which the log keeps;
        the request also carries the batches themselves, so the live
        execution decodes nothing. The call that completes a round returns
        its ticket, even while the round waits; earlier calls return None.
        """
        if self.partition.stopped:
            raise EngineStopped("partition is stopped")
        plan = self._border_for_stream.get(stream)
        if plan is None:
            raise BadDefinition(f"stream {stream} is not a border input")
        proc_name = plan.proc.name
        round_ = batch.batch_id
        slot = self._feeder_pending.get(proc_name, {}).get(round_)
        if slot is not None and stream in slot[0]:
            raise BadDefinition(f"{proc_name} round {round_} already has {stream}")
        if slot is None and round_ <= max(
            self._released.get(proc_name, 0),
            self.partition.stream_plans[stream].table.last_consumed_batch,
        ):
            raise BadDefinition(f"{proc_name} already took round {round_}")
        args = batches_to_args({stream: batch})
        if not resubmit:
            p = self.partition
            p.fail_stop(p.input_cache.append, stream, batch, args)
        pending = self._feeder_pending.setdefault(proc_name, {})
        if slot is None:
            slot = pending[round_] = ({}, Ticket())
        batches, ticket = slot
        batches[stream] = batch
        n_inputs = len(plan.inputs)
        if len(batches) < n_inputs:
            return None
        while pending:
            low = min(pending)
            ready, low_ticket = pending[low]
            if len(ready) < n_inputs:
                break
            del pending[low]
            self._released[proc_name] = low
            self._backpressure()
            if n_inputs > 1:
                args = batches_to_args(ready)
            req = TERequest(
                proc_name, low, args, Origin.CLIENT, low_ticket, batches=ready
            )
            self.partition.submit_client(req)
        return ticket

    def _backpressure(self) -> None:
        depth = len(self.partition.client_queue) + len(self.partition.fast_track)
        if depth >= self.queue_bound:
            self.run_until_idle()

    def call_oltp(self, proc: str, args=None) -> Ticket:
        from .errors import WrongKind

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

    def drain_and_quiesce(self, timeout: Optional[float] = None) -> None:
        self.partition.drain_and_quiesce(timeout)

    # --- durability ---

    def snapshot_bytes(self) -> bytes:
        return snapshot_state(
            self.store, self.partition_id, self.partition.commit_seq
        )

    def checkpoint(self) -> str:
        """Quiesce, write a snapshot, truncate the log, and compact the input
        cache to the rounds whose border has not run."""
        if self.data_dir is None:
            raise BadDefinition("checkpoint needs a data directory")
        self.drain_and_quiesce()  # also flushes the log
        blob = self.snapshot_bytes()
        path = os.path.join(
            self.data_dir, f"snapshot-{self.partition.commit_seq:012d}.snap"
        )
        replace_file(path, blob)
        if self.recovery_mode is not None:
            truncate_log(
                os.path.join(self.data_dir, LOG_FILE),
                self.recovery_mode,
                self.partition_id,
                self.partition.commit_seq,
            )
            self.partition.log.reopen()
        # with the fast track drained, a border round has not run exactly
        # when it is queued or held in a feeder slot
        waiting = {(q.proc, q.round) for q in self.partition.client_queue}
        waiting.update((b, r) for b, rs in self._feeder_pending.items() for r in rs)
        cache = self.partition.input_cache
        cache.retained = {
            s: [
                b for b in bs
                if (self._border_for_stream[s].proc.name, b.batch_id) in waiting
            ]
            for s, bs in cache.retained.items()
        }
        cache.compact()
        for _, name in _snapshots(self.data_dir)[:-KEEP_SNAPSHOTS]:
            os.remove(os.path.join(self.data_dir, name))
        return path

    def crash(self) -> None:
        """Die without flushing anything buffered, like a power failure."""
        self.partition.stopped = True
        self.partition.log.crash()
        self.partition.input_cache.close()  # the cache buffers nothing

    def close(self) -> None:
        self.partition.log.close()
        self.partition.input_cache.close()
        self.partition.stopped = True


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
    """Bring a crashed engine back per the mode recorded in its log: load
    the newest valid snapshot into the tables ``spec`` builds, then replay.
    A log or snapshot of another partition, or with ``expect_mode`` set a
    log written in the other mode, raises ``VersionMismatch``. A newest
    valid snapshot older than the one the log follows raises
    ``CorruptSnapshot``."""
    for name in os.listdir(data_dir):
        if name.endswith(TEMP_SUFFIX):  # a replace_file the crash cut short
            os.remove(os.path.join(data_dir, name))
    log_path = os.path.join(data_dir, LOG_FILE)
    mode, log_partition, log_snapshot_seq, records = read_log(log_path)
    if expect_mode is not None and mode is not expect_mode:
        raise VersionMismatch(
            f"log was written in {mode.name} mode, not {expect_mode.name}"
        )
    if log_partition != partition_id:
        raise VersionMismatch(
            f"log belongs to partition {log_partition}, not {partition_id}"
        )
    engine = Engine(
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
        if mode is RecoveryMode.STRONG:
            _replay_strong(engine, records, snapshot_seq)
        else:
            _replay_weak(engine, records, snapshot_seq, data_dir)
    except BaseException:
        engine.crash()  # close its files
        raise
    return engine


def _replay_strong(engine: Engine, records, snapshot_seq: int) -> None:
    """Replay every logged execution once, triggers off, then refire."""
    p = engine.partition
    p.trigger_engine.pe_enabled = False
    p._replaying = True
    try:
        for rec in records:
            if rec.commit_seq <= snapshot_seq:
                continue
            if rec.commit_seq != p.commit_seq + 1:
                raise ReplayDivergence(
                    f"expected commit {p.commit_seq + 1}, log has {rec.commit_seq}"
                )
            req = TERequest(
                rec.procedure, rec.round, rec.args, Origin.RECOVERY, solo=True
            )
            outcome = p.execute(req)
            if outcome != "committed":
                raise ReplayDivergence(
                    f"{rec.procedure} round {rec.round} aborted during replay"
                )
    finally:
        p._replaying = False
        p.trigger_engine.pe_enabled = True
    p.refire_nonempty_streams()


def _replay_weak(engine: Engine, records, snapshot_seq: int, data_dir: str) -> None:
    """Replay border and OLTP records with triggers live; interiors come back
    through the triggers. Ends with a fresh checkpoint so commit sequences
    stay consistent with the (rotated) log."""
    p = engine.partition
    p._replaying = True
    try:
        p.refire_nonempty_streams()
        p.run_until_idle()
        for rec in records:
            if rec.commit_seq <= snapshot_seq:
                continue
            req = TERequest(rec.procedure, rec.round, rec.args, Origin.RECOVERY)
            outcome = p.execute(req)
            if outcome != "committed":
                raise ReplayDivergence(
                    f"{rec.procedure} round {rec.round} aborted during replay"
                )
            p.run_until_idle()
    finally:
        p._replaying = False
    # a border runs its rounds in order, so the cached batches it never
    # committed are exactly those above what its streams consumed
    cached = read_input_cache(os.path.join(data_dir, CACHE_FILE))
    p.input_cache.retained = {
        s: [b for b in bs if b.batch_id > engine.store.stream(s).last_consumed_batch]
        for s, bs in cached.items()
    }
    for stream in sorted(p.input_cache.retained):
        for batch in p.input_cache.retained[stream]:
            engine.ingest_batch(stream, batch, resubmit=True)
    engine.checkpoint()


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
    import zlib as _z

    data = repr(key_value).encode()
    return _z.crc32(data) % p
