"""The partition engine: one serial executor, FIFO client queue, and a
fast-track queue that lets trigger-invoked executions preempt clients.

Once a border execution commits, its whole workflow round drains through the
fast track before any queued client request runs, so committed schedules are
always consistent with the workflow's topological ordering.
"""

from __future__ import annotations

import enum
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .codec import decode_batches, encode_batches
from .errors import (
    BadDefinition,
    BodyAbort,
    EngineStopped,
    LogWriteFailure,
    MissingInputBatch,
    QuiesceTimeout,
    StreamTxError,
    UnknownProcedure,
)
from .model import (
    AtomicBatch,
    ProcedureDef,
    ProcedureKind,
    ResolvedGroup,
    TransactionExecution,
    Tuple,
    Workflow,
    group_roots,
)
from .recovery import LOGGED_KINDS, CommandLog, CommandLogRecord, InputCache, RecoveryMode
from .storage import FullWindowEvent, Pred, Store, StreamTable, UndoBuffer
from .triggers import TriggerEngine


def encode_args(obj) -> bytes:
    if obj is None:
        return b""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def decode_args(blob: bytes):
    if not blob:
        return None
    return json.loads(blob)


def batches_to_args(batches: dict[str, AtomicBatch]) -> bytes:
    """Border executions carry their input batches as the call arguments,
    which is what makes command-log replay self-contained."""
    return encode_batches(batches)


def args_to_batches(blob: bytes) -> dict[str, AtomicBatch]:
    return decode_batches(blob)


class Origin(enum.Enum):
    CLIENT = "client"
    TRIGGER = "trigger"
    RECOVERY = "recovery"


class Ticket:
    """Asynchronous outcome of one submitted request.

    ``outcome`` is set at commit/abort; ``acknowledged`` only once the
    commit's log record is written (immediately when nothing is logged).
    """

    __slots__ = ("outcome", "reason", "result_rows", "commit_seq", "acknowledged")

    def __init__(self):
        self.outcome: Optional[str] = None
        self.reason = ""
        self.result_rows: Optional[list] = None
        self.commit_seq = 0
        self.acknowledged = False

    @property
    def done(self) -> bool:
        return self.outcome is not None

    @property
    def committed(self) -> bool:
        return self.outcome == "committed"


@dataclass
class TERequest:
    proc: str
    round: int
    args: bytes = b""
    origin: Origin = Origin.CLIENT
    ticket: Optional[Ticket] = None
    group: Optional[str] = None
    solo: bool = False  # strong-recovery replay runs group children one by one
    # a border's input batches as ingested; ``args`` encodes the same
    # batches, and replay, which has only the args, decodes them
    batches: Optional[dict[str, AtomicBatch]] = None


@dataclass
class Counters:
    te_committed: int = 0
    te_aborted: int = 0
    client_roundtrips: int = 0
    pe_dispatches: int = 0
    ee_statement_executions: int = 0
    boundary_crossings: int = 0
    log_records: int = 0
    sync_count: int = 0
    replay_client_dispatches: int = 0
    replay_trigger_dispatches: int = 0
    max_concurrent: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Catalog:
    """Registered workflows plus the lookups the executor needs, built once
    per workflow at registration."""

    def __init__(self):
        self.procedures: dict[str, ProcedureDef] = {}
        self.workflows: dict[str, Workflow] = {}
        self.consumers: dict[str, str] = {}  # interior stream -> its consumer
        self.groups: dict[str, ResolvedGroup] = {}
        self.group_of: dict[str, ResolvedGroup] = {}  # child procedure -> group

    def add_workflow(self, w: Workflow) -> None:
        for p in w.procedures:
            if p.name in self.procedures:
                raise BadDefinition(f"procedure {p.name} registered twice")
        if w.name in self.workflows:
            raise BadDefinition(f"workflow {w.name} registered twice")
        self.workflows[w.name] = w
        for p in w.procedures:
            self.procedures[p.name] = p
        for e in w.edges:
            self.consumers[e.stream] = e.consumer
        for g in w.nested_groups:
            roots = group_roots(g, w.edges, self.procedures, w.chosen_order)
            group = ResolvedGroup(
                g.parent_name,
                tuple(c for c in w.chosen_order if c in g.children),
                tuple(self.procedures[r] for r in roots),
            )
            self.groups[group.name] = group
            for c in g.children:
                self.group_of[c] = group


@dataclass(slots=True)
class ProcedurePlan:
    """One procedure as the partition runs it, resolved when the engine is
    built: its default nested group, its input tables in ``stream_inputs``
    order, and whether this engine's log mode logs its commits."""

    proc: ProcedureDef
    group: Optional[ResolvedGroup]
    inputs: tuple[StreamTable, ...]
    logged: bool


@dataclass(slots=True)
class StreamPlan:
    """What an append to one stream sets off, resolved with the plans."""

    table: StreamTable
    fires: bool  # a procedure trigger reads it: a new batch waits in pending
    program: bool  # a statement program runs on each appended batch
    consumer_group: Optional[ResolvedGroup]  # its consumer's nested group


def make_plans(
    catalog: Catalog,
    store: Store,
    triggers: TriggerEngine,
    mode: Optional[RecoveryMode],
) -> tuple[dict[str, ProcedurePlan], dict[str, StreamPlan]]:
    """Plans for every registered procedure and every stream table, made
    once all triggers are registered; an input stream the store lacks
    raises ``UnknownTable``. ``mode`` is the log's recovery mode."""
    logged = LOGGED_KINDS[mode]
    plans = {
        name: ProcedurePlan(
            proc,
            catalog.group_of.get(name),
            tuple(map(store.stream, proc.stream_inputs)),
            proc.kind in logged,
        )
        for name, proc in catalog.procedures.items()
    }
    streams = {
        name: StreamPlan(
            tab,
            name in triggers.procedure_triggers,
            name in triggers.programs,
            catalog.group_of.get(catalog.consumers.get(name)),
        )
        for name, tab in store.tables.items()
        if isinstance(tab, StreamTable)
    }
    return plans, streams


class TEContext:
    """The operation surface a procedure body (or trigger program) runs
    against; every mutation lands in this execution's undo buffer."""

    def __init__(self, partition: "Partition", plan: ProcedurePlan, round: int, args: bytes):
        self.partition = partition
        self.store: Store = partition.store
        self.plan = plan
        self.proc = proc = plan.proc
        self.round = round
        # a border execution's args are its input batches, loaded separately
        self.args = None if proc.kind is ProcedureKind.BORDER else decode_args(args)
        self.undo = UndoBuffer()
        self.inputs: dict[str, list[Tuple]] = {}
        self.consumed: list[tuple[str, int]] = []
        self.ee_consumed: list[tuple[str, int]] = []
        # (stream, batch) this execution appended to a procedure-trigger
        # stream, in first-append order, to that stream's plan
        self.emitted: dict[tuple[str, int], StreamPlan] = {}
        self.result_rows: Optional[list] = None
        self._depth = 0

    # --- body API ---

    def input_tuples(self, stream: str) -> list[Tuple]:
        if stream not in self.inputs:
            raise MissingInputBatch(
                f"{self.proc.name} round {self.round}: no input loaded for {stream}"
            )
        return self.inputs[stream]

    def emit(self, stream: str, rows, ts=None) -> None:
        """Append an output batch (labeled with this round) to a stream.

        ``rows`` holds value tuples or Tuple instances; tuple ids are stamped
        fresh for the destination stream. Statement triggers attached to the
        stream fire immediately, inside this execution.
        """
        if self.proc.kind is ProcedureKind.OLTP:
            raise BadDefinition("OLTP procedures operate on tables only")
        self._append_to_stream(stream, rows, self.round, ts)

    def copy_to_stream(self, stream: str, rows, batch_id: int) -> None:
        self._append_to_stream(stream, rows, batch_id, None)

    def _append_to_stream(self, stream, rows, batch_id, ts) -> None:
        rows = list(rows)
        if not rows:
            return
        plan = self.partition.stream_plan(stream)
        ids = self.store.next_tuple_ids(stream, len(rows), self.undo)
        tuples = []
        for tid, r in zip(ids, rows):
            if isinstance(r, Tuple):
                tuples.append(
                    Tuple(r.values, tuple_id=tid, batch_id=batch_id, ts=r.ts)
                )
            else:
                tuples.append(
                    Tuple(
                        tuple(r),
                        tuple_id=tid,
                        batch_id=batch_id,
                        ts=0 if ts is None else ts,
                    )
                )
        batch = AtomicBatch(batch_id, tuple(tuples))
        self.store.insert_batch(stream, batch, self.undo)
        if plan.fires and (stream, batch_id) not in self.emitted:
            self.partition.trigger_engine.note_append(stream, batch_id)
            self.emitted[stream, batch_id] = plan
        if plan.program:
            self._cascade(stream, batch)

    def _cascade(self, stream: str, batch: AtomicBatch) -> None:
        self._depth += 1
        if self._depth > 64:
            raise BadDefinition("statement trigger cascade too deep")
        try:
            self.partition.trigger_engine.on_stream_append(self, stream, batch)
        finally:
            self._depth -= 1

    def insert(self, table: str, values, ts: int = 0) -> None:
        """Insert one row. Into a stream this appends, as ``emit`` does;
        into a window it may slide the window."""
        if table in self.partition.stream_plans:
            self.emit(table, (values,), ts)
            return
        t = values if isinstance(values, Tuple) else Tuple(tuple(values), ts=ts)
        events = self.store.insert(
            table, t, self.undo, accessor=self.proc.name, round=self.round
        )
        if events:
            self.partition.trigger_engine.on_window_events(self, table, events)

    def select(self, table: str, pred: Optional[Pred] = None) -> list[Tuple]:
        return self.store.select_where(
            table, pred, accessor=self.proc.name, round=self.round
        )

    def delete(self, table: str, pred: Optional[Pred]) -> int:
        return self.store.delete_where(
            table, pred, self.undo, accessor=self.proc.name, round=self.round
        )

    def aggregate(self, table, op, column=None, group_by=None, pred=None):
        return self.store.aggregate(
            table, op, column, group_by, pred,
            accessor=self.proc.name, round=self.round,
        )

    def window_insert(
        self, window: str, rows, event_rows: bool = True
    ) -> list[FullWindowEvent]:
        """Feed rows into a window; the events it fires carry the active
        tuples unless ``event_rows`` is false."""
        tuples = [
            r if isinstance(r, Tuple) else Tuple(tuple(r), batch_id=self.round)
            for r in rows
        ]
        events = self.store.window_insert(
            window, tuples, self.undo, accessor=self.proc.name, round=self.round,
            event_rows=event_rows,
        )
        if events:
            self.partition.trigger_engine.on_window_events(self, window, events)
        return events

    def delete_batch(self, stream: str, batch_id: int) -> int:
        return self.store.delete_batch(stream, batch_id, self.undo)

    def abort(self, reason: str = "") -> None:
        raise BodyAbort(reason)

    def set_result(self, rows) -> None:
        self.result_rows = rows

    def count_statement(self) -> None:
        self.partition.counters.ee_statement_executions += 1


class Partition:
    """One serial execution site: storage, triggers, queues, and schedule."""

    def __init__(
        self,
        pid: int,
        store: Store,
        trigger_engine: TriggerEngine,
        catalog: Catalog,
        plans: dict[str, ProcedurePlan],
        stream_plans: dict[str, StreamPlan],
        log: CommandLog,
        input_cache: InputCache,
        schedule_capacity: Optional[int] = None,
        post_commit_hook: Optional[Callable[["Partition"], None]] = None,
    ):
        self.id = pid
        self.store = store
        self.trigger_engine = trigger_engine
        self.catalog = catalog
        self.log = log
        self.input_cache = input_cache
        self.post_commit_hook = post_commit_hook
        self.plans = plans
        self.stream_plans = stream_plans

        self.client_queue: deque[TERequest] = deque()
        self.fast_track: deque[TERequest] = deque()
        # with a capacity, only the newest ``schedule_capacity`` commits
        self.committed_schedule: deque[TransactionExecution] = deque(
            maxlen=schedule_capacity
        )
        self.commit_seq = 0
        self.counters: Counters = log.counters  # the log counts its syncs there
        self.stopped = False
        self._executing = 0
        self._last_enqueued_round: dict[str, int] = {}
        self._replaying = False

    def plan(self, name: str) -> ProcedurePlan:
        try:
            return self.plans[name]
        except KeyError:
            raise UnknownProcedure(name) from None

    def stream_plan(self, name: str) -> StreamPlan:
        try:
            return self.stream_plans[name]
        except KeyError:
            self.store.stream(name)  # raises UnknownTable
            raise

    # --- submission ---

    def submit_client(self, req: TERequest) -> Ticket:
        if self.stopped:
            raise EngineStopped("partition is stopped")
        self.plan(req.proc)
        if req.ticket is None:
            req.ticket = Ticket()
        self.client_queue.append(req)
        return req.ticket

    def _submit_trigger(self, fires: list[tuple[str, int, Optional[str]]]) -> list[TERequest]:
        """Queue trigger-fired work on the fast track, skipping rounds a
        target already has queued (two producers can complete the same
        round's inputs in one commit)."""
        out = []
        for target, round_, group in fires:
            key = group or target
            if self._last_enqueued_round.get(key, 0) >= round_:
                continue
            self._last_enqueued_round[key] = round_
            req = TERequest(target, round_, origin=Origin.TRIGGER, group=group)
            self.fast_track.append(req)
            self.counters.boundary_crossings += 1
            if self._replaying:
                self.counters.replay_trigger_dispatches += 1
            out.append(req)
        return out

    # --- scheduling ---

    def schedule_next(self) -> Optional[TERequest]:
        if self.fast_track:
            return self.fast_track.popleft()
        if self.client_queue:
            return self.client_queue.popleft()
        return None

    def step(self) -> bool:
        if self.stopped:
            return False
        req = self.schedule_next()
        if req is None:
            self.fail_stop(self.log.maybe_flush)
            return False
        self.execute(req)
        return True

    def run_until_idle(self) -> None:
        while self.step():
            pass

    def drain_and_quiesce(self, timeout: Optional[float] = None) -> None:
        """Finish all fast-track work without starting new client requests."""
        if self.stopped:
            raise EngineStopped("partition is stopped")
        start = time.monotonic()
        while self.fast_track:
            if timeout is not None and time.monotonic() - start >= timeout:
                raise QuiesceTimeout("fast-track work still pending")
            self.execute(self.fast_track.popleft())
        self.fail_stop(self.log.flush)

    def fail_stop(self, write: Callable, *args) -> None:
        """Call ``write`` on the log or the input cache. A failed write stops
        the partition for good, so memory never runs ahead of its files."""
        try:
            write(*args)
        except LogWriteFailure:
            self.stopped = True
            raise

    # --- execution ---

    def execute(self, req: TERequest) -> str:
        """Run one execution (or its whole nested group) to commit/abort."""
        plan = self.plan(req.proc)
        if req.group is not None:
            group = self.catalog.groups[req.group]
        elif not req.solo:
            group = plan.group
        else:
            group = None
        outcome = self._execute_group(req, plan, group)
        if req.origin is Origin.CLIENT:
            self.counters.client_roundtrips += 1
        return outcome

    def _begin(self):
        self._executing += 1
        self.counters.max_concurrent = max(
            self.counters.max_concurrent, self._executing
        )
        if self._executing > 1:
            raise StreamTxError("serial execution violated")

    def _end(self):
        self._executing -= 1

    def _execute_group(
        self, req: TERequest, plan: ProcedurePlan, group: Optional[ResolvedGroup]
    ) -> str:
        """Run ``req`` and, inside a group, its other ready children in order;
        without a group the order is ``req`` alone."""
        self._begin()
        ran: list[tuple[TEContext, TERequest]] = []
        try:
            for child in group.order if group else (req.proc,):
                if child == req.proc:
                    child_plan, child_req = plan, req
                else:
                    child_plan = self.plans[child]
                    if not all(req.round in t.batches for t in child_plan.inputs):
                        continue
                    child_req = TERequest(
                        child, req.round, origin=Origin.TRIGGER, group=group.name
                    )
                    self.counters.boundary_crossings += 1
                    if self._replaying:
                        self.counters.replay_trigger_dispatches += 1
                ctx, error = self._run_one(child_plan, child_req)
                if error is not None:
                    # group rollback: undo every already-finished child too
                    for done_ctx, _ in reversed(ran):
                        done_ctx.undo.rollback()
                    self._finish_abort(
                        child_plan.proc, child_req, error,
                        [ctx] + [c for c, _ in ran],
                        req.ticket,
                        dropped_inputs=[
                            item for c, _ in ran for item in c.consumed
                        ],
                    )
                    return "aborted"
                ran.append((ctx, child_req))
        finally:
            self._end()
        self._commit_group(ran, group=group)
        return "committed"

    def _run_one(self, plan: ProcedurePlan, req: TERequest):
        """Run one execution's inputs and body; mutations stay in its undo
        buffer until the commit decision. Returns (ctx, error|None)."""
        self.counters.pe_dispatches += 1
        if self._replaying and req.origin is Origin.RECOVERY:
            self.counters.replay_client_dispatches += 1
        ctx = TEContext(self, plan, req.round, req.args)
        proc = plan.proc
        try:
            if plan.inputs:
                self._load_inputs(ctx, plan, req)
            if proc.body is not None:
                try:
                    proc.body(ctx)
                except StreamTxError:
                    raise
                except Exception as e:  # a failing body aborts, as BodyAbort does
                    raise BodyAbort(f"{type(e).__name__}: {e}") from e
        except StreamTxError as e:
            ctx.undo.rollback()
            return ctx, e
        return ctx, None

    def _load_inputs(self, ctx: TEContext, plan: ProcedurePlan, req: TERequest):
        """Append a border's input batches to their streams, taken from the
        request's batches, or decoded from its args when it carries none, as
        in replay; every other input must already hold the round's batch."""
        proc = plan.proc
        if proc.kind is ProcedureKind.BORDER and req.args:
            batches = req.batches
            if batches is None:
                batches = args_to_batches(req.args)
            for stream, batch in sorted(batches.items()):
                if stream not in proc.stream_inputs:
                    raise BadDefinition(
                        f"{proc.name}: batch for non-input stream {stream}"
                    )
                self.store.insert_batch(stream, batch, ctx.undo)
                ctx.inputs[stream] = list(batch.tuples)
                ctx.consumed.append((stream, batch.batch_id))
                if self.stream_plans[stream].program:
                    ctx._cascade(stream, batch)
        for stream, tab in zip(proc.stream_inputs, plan.inputs):
            if stream in ctx.inputs:
                continue
            tuples = tab.batch_tuples(req.round)
            if not tuples:
                raise MissingInputBatch(
                    f"{proc.name}: stream {stream} holds no batch {req.round}"
                )
            ctx.inputs[stream] = tuples
            ctx.consumed.append((stream, req.round))

    # --- commit / abort ---

    def _commit_group(self, ran, group: Optional[ResolvedGroup] = None) -> None:
        for ctx, req in ran:
            self.commit_seq += 1
            te = TransactionExecution(
                ctx.proc.name, req.round, req.args, self.commit_seq
            )
            self._log_commit(te, ctx.plan, req.ticket)
            self.committed_schedule.append(te)
            self.counters.te_committed += 1
            if req.ticket is not None:
                req.ticket.outcome = "committed"
                req.ticket.commit_seq = self.commit_seq
                req.ticket.result_rows = ctx.result_rows
            # downstream triggers: in-group consumers already ran inline
            for (stream, batch_id), plan in ctx.emitted.items():
                if group is not None and plan.consumer_group is group:
                    continue
                fires = self.trigger_engine.fire_procedure_triggers(stream, batch_id)
                self._submit_trigger(fires)
            self._collect_garbage(ctx)
            if self.post_commit_hook is not None:
                self.post_commit_hook(self)
        self.fail_stop(self.log.maybe_flush)

    def _finish_abort(
        self,
        proc: ProcedureDef,
        req: TERequest,
        error: Exception,
        rolled_back: list[TEContext],
        ticket: Optional[Ticket],
        dropped_inputs=(),
    ) -> None:
        self.counters.te_aborted += 1
        t = ticket or req.ticket
        if t is not None:
            t.outcome = "aborted"
            t.reason = str(error)
            t.acknowledged = True  # aborts are never logged
        # emitted batches were rolled back: no consumer waits for them
        self.trigger_engine.pending.difference_update(
            key for ctx in rolled_back for key in ctx.emitted
        )
        # the round's downstream work is dropped: discard consumed inputs
        # that came from outside the rolled-back scope
        drops = list(dropped_inputs)
        if proc.kind is ProcedureKind.INTERIOR:
            drops.extend((s, req.round) for s in proc.stream_inputs)
        for stream, batch_id in drops:
            self.trigger_engine.note_consumed(stream, batch_id)
            self.store.garbage_collect(stream, batch_id)

    def _collect_garbage(self, ctx: TEContext) -> None:
        """Drop the batches this execution consumed or ran statements on,
        except those a procedure-trigger consumer still waits for."""
        triggers = self.trigger_engine
        for stream, batch_id in ctx.consumed:
            triggers.note_consumed(stream, batch_id)
            tab = self.stream_plans[stream].table
            if batch_id > tab.last_consumed_batch:
                tab.last_consumed_batch = batch_id
        for stream, batch_id in ctx.consumed + ctx.ee_consumed:
            if triggers.gc_eligible(stream, batch_id):
                self.store.garbage_collect(stream, batch_id)

    def _log_commit(self, te: TransactionExecution, plan: ProcedurePlan, ticket):
        if self._replaying or not plan.logged:
            if ticket is not None:
                ticket.acknowledged = True
            return
        self.fail_stop(
            self.log.append,
            CommandLogRecord(te.commit_seq, te.procedure, te.round, te.args),
            ticket,
        )
        self.counters.log_records += 1

    # --- trigger surface (module operations live on the partition) ---

    def refire_nonempty_streams(self) -> list[TERequest]:
        return self._submit_trigger(self.trigger_engine.refire_nonempty_streams())
