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
    StreamTxError,
    UnknownProcedure,
    WindowScopeViolation,
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
from .storage import Pred, Store, StreamTable, UndoBuffer
from .triggers import StreamPlan, TriggerEngine


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
    commit's log record is written (immediately when nothing is logged),
    and at once for an abort.
    ``commit_seq`` is the last commit of the transaction, which for a
    nested group is its last child.
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


# builds a named tuple from a tuple of its fields without the Python-level
# ``__new__`` of its class, for the ones the commit path makes
_make = tuple.__new__


@dataclass(slots=True)
class TERequest:
    proc: str
    round: int
    args: bytes = b""
    origin: Origin = Origin.CLIENT
    ticket: Optional[Ticket] = None
    # a live border request's input batches, which ``Engine.ingest_batch``
    # has held to the value rule; ``args`` encodes them only when the log
    # keeps the border, and replay, which has only the args, decodes them
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

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(slots=True)
class ProcedurePlan:
    """One procedure as the partition runs it, resolved when the engine is
    built: its nested group, its input tables in ``stream_inputs`` order,
    those of every procedure of the transaction it enters, in group order,
    whether this engine's log mode logs that transaction, its commit or its
    abort, and the windows other procedures own (window -> owner), which it
    may not touch."""

    proc: ProcedureDef
    group: Optional[ResolvedGroup]
    inputs: tuple[StreamTable, ...]
    transaction_inputs: tuple[StreamTable, ...]
    logged: bool
    foreign_windows: dict[str, str]


def make_plans(
    workflows: list[Workflow], store: Store, mode: Optional[RecoveryMode]
) -> dict[str, ProcedurePlan]:
    """A plan for every procedure of ``workflows``, in registration order.
    A procedure or a workflow registered twice raises ``BadDefinition``, an
    input stream the store lacks ``UnknownTable``. ``mode`` is the log's
    recovery mode."""
    procs: dict[str, ProcedureDef] = {}
    names: set[str] = set()
    group_of: dict[str, ResolvedGroup] = {}  # child procedure -> its group
    for w in workflows:
        for p in w.procedures:
            if p.name in procs:
                raise BadDefinition(f"procedure {p.name} registered twice")
        if w.name in names:
            raise BadDefinition(f"workflow {w.name} registered twice")
        names.add(w.name)
        procs.update((p.name, p) for p in w.procedures)
        for g in w.nested_groups:
            roots = group_roots(g, w.edges, procs, w.chosen_order)
            group = ResolvedGroup(
                tuple(c for c in w.chosen_order if c in g.children),
                tuple(procs[r] for r in roots),
            )
            group_of.update((c, group) for c in g.children)
    logged = LOGGED_KINDS[mode]
    owners = {wd.name: name for name, p in procs.items() for wd in p.window_defs}
    inputs = {
        name: tuple(map(store.stream, p.stream_inputs)) for name, p in procs.items()
    }
    return {
        name: ProcedurePlan(
            proc,
            group_of.get(name),
            inputs[name],
            tuple(t for c in group_of[name].order for t in inputs[c])
            if name in group_of
            else inputs[name],
            proc.kind in logged,
            {w: owner for w, owner in owners.items() if owner != name},
        )
        for name, proc in procs.items()
    }


class TEContext:
    """The operation surface a procedure body (or trigger program) runs
    against; every mutation lands in this execution's undo buffer. A window
    is visible only to its owner: ``select``, ``insert``, ``aggregate`` and
    ``window_insert`` on another procedure's window raise
    ``WindowScopeViolation``, which aborts the execution."""

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
        # each stream this execution appended batch ``round`` to, in order
        self.appended: dict[str, StreamPlan] = {}
        self.result_rows: Optional[list] = None

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
        plans = self.partition.stream_plans
        if stream not in plans:
            self.store.stream(stream)  # raises UnknownTable
        self._append(plans[stream], rows, ts)

    def _append(self, plan: StreamPlan, rows, ts=None, checked=False) -> None:
        """Append ``rows`` as batch ``round`` of ``plan``'s stream and set
        off its triggers. A statement step calls this with the plan it
        resolved at registration, and with ``checked`` when registration
        proved that its rows keep the stream's value rule."""
        if type(rows) is not list:
            rows = list(rows)
        if not rows:
            return
        stream, batch_id = plan.table.name, self.round
        ids = self.store.next_tuple_ids(stream, len(rows), self.undo)
        ts = 0 if ts is None else ts
        new = tuple.__new__  # the ids are stamped here: skip Tuple's __new__
        tuples = []
        for tid, r in zip(ids, rows):
            if type(r) is Tuple:
                tuples.append(new(Tuple, (r.values, tid, batch_id, r.ts)))
            else:
                tuples.append(new(Tuple, (tuple(r), tid, batch_id, ts)))
        # every tuple carries batch_id, so the batch needs no check
        batch = new(AtomicBatch, (batch_id, tuple(tuples)))
        self.store.insert_batch(stream, batch, self.undo, checked=checked)
        self.appended[stream] = plan
        if plan.program is not None:
            self.partition.trigger_engine.on_stream_append(self, plan, batch)

    def insert(self, table: str, values, ts: int = 0) -> None:
        """Insert one row. Into a stream this appends, as ``emit`` does;
        into a window it may slide the window."""
        if table in self.partition.stream_plans:
            self.emit(table, (values,), ts)
            return
        if table in self.plan.foreign_windows:
            self._check_owner(table)
        if not isinstance(values, Tuple):
            # ``Store.insert`` holds the row, its head included, to the
            # table's value rule: skip Tuple's ``__new__``
            values = _make(Tuple, (tuple(values), 0, 0, ts))
        events = self.store.insert(table, values, self.undo)
        if events:
            self.partition.trigger_engine.on_window_events(self, table, events)

    def select(self, table: str, pred: Optional[Pred] = None) -> list[Tuple]:
        if table in self.plan.foreign_windows:
            self._check_owner(table)
        return self.store.select_where(table, pred)

    def delete(self, table: str, pred: Optional[Pred]) -> int:
        """Delete matching rows of a public table; on a stream or a window
        it raises ``BadDefinition``, which aborts the execution."""
        return self.store.delete_where(table, pred, self.undo)

    def aggregate(self, table, op, column=None, group_by=None, pred=None):
        self._check_owner(table)
        return self.store.aggregate(table, op, column, group_by, pred)

    def window_insert(self, window: str, rows) -> None:
        """Feed rows into a window. The window's statement program, if it
        has one, runs once over every slide the insert makes."""
        tuples = [
            r if isinstance(r, Tuple) else Tuple(tuple(r), batch_id=self.round)
            for r in rows
        ]
        self._window_insert(window, tuples)

    def _window_insert(self, window: str, tuples: list[Tuple], checked=False):
        """``window_insert`` of tuples; a statement step passes ``checked``
        when its source rows have the window's column types."""
        if window in self.plan.foreign_windows:
            self._check_owner(window)
        events = self.store.window_insert(window, tuples, self.undo, checked=checked)
        if events:
            self.partition.trigger_engine.on_window_events(self, window, events)

    def _check_owner(self, table: str) -> None:
        owner = self.plan.foreign_windows.get(table)
        if owner is not None:
            raise WindowScopeViolation(
                f"window {table} is owned by {owner}, not {self.proc.name}"
            )

    def abort(self, reason: str = "") -> None:
        raise BodyAbort(reason)

    def set_result(self, rows) -> None:
        self.result_rows = rows


class Partition:
    """One serial execution site: storage, triggers, queues, and schedule."""

    def __init__(
        self,
        pid: int,
        store: Store,
        trigger_engine: TriggerEngine,
        plans: dict[str, ProcedurePlan],
        log: CommandLog,
        input_cache: InputCache,
        schedule_capacity: Optional[int] = None,
        post_commit_hook: Optional[Callable[["Partition"], None]] = None,
    ):
        self.id = pid
        self.store = store
        self.trigger_engine = trigger_engine
        self.log = log
        self.input_cache = input_cache
        self.post_commit_hook = post_commit_hook
        self.plans = plans
        self.stream_plans = trigger_engine.stream_plans

        self.client_queue: deque[TERequest] = deque()
        self.fast_track: deque[TERequest] = deque()
        # with a capacity, only the newest ``schedule_capacity`` commits
        self.committed_schedule: deque[TransactionExecution] = deque(
            maxlen=schedule_capacity
        )
        self.commit_seq = 0
        self.counters: Counters = log.counters  # the log counts its syncs there
        self.stopped = False
        # true while an execution runs: a body that pumps, executes or
        # feeds its own partition raises before anything is popped or
        # queued, and aborts alone
        self.executing = False
        # procedure -> the last round queued for it: a border's round once
        # ``Engine.ingest_batch`` submits it, a trigger target's once fired;
        # ``recover`` rebuilds it once, after replay, from the inputs'
        # ``last_consumed_batch``, which commit and abort both raise
        self.last_queued: dict[str, int] = {}
        # the (procedure, round) of each logged abort since the last record:
        # the next record carries them, and replay runs their drop rule
        self._aborted: list[tuple[str, int]] = []

    def plan(self, name: str) -> ProcedurePlan:
        try:
            return self.plans[name]
        except KeyError:
            raise UnknownProcedure(name) from None

    # --- submission ---

    def submit_client(self, req: TERequest) -> Ticket:
        if self.stopped:
            raise EngineStopped("partition is stopped")
        if req.proc not in self.plans:
            raise UnknownProcedure(req.proc)
        if req.ticket is None:
            req.ticket = Ticket()
        self.client_queue.append(req)
        return req.ticket

    def _submit_trigger(self, fires: list[tuple[str, int]]) -> list[TERequest]:
        """Queue trigger-fired work on the fast track, skipping rounds a
        target already has queued (two producers can complete the same
        round's inputs in one commit). Recovery's refire calls this;
        ``_commit_group`` queues its own fires inline, by the same rule."""
        out = []
        for target, round_ in fires:
            if self.last_queued.get(target, 0) >= round_:
                continue
            self.last_queued[target] = round_
            req = TERequest(target, round_, origin=Origin.TRIGGER)
            self.fast_track.append(req)
            self.counters.boundary_crossings += 1
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
        if self.executing:
            raise StreamTxError("serial execution violated")
        req = self.schedule_next()
        if req is None:
            log = self.log
            if log.pending and time.monotonic() >= log.deadline:
                self.fail_stop(log.flush)  # the group-commit timer ran out
            return False
        self.execute(req)
        return True

    def run_until_idle(self) -> None:
        """``step`` until idle, popping the queues inline."""
        if self.executing:
            raise StreamTxError("serial execution violated")
        fast, client = self.fast_track, self.client_queue
        while not self.stopped:
            if fast:
                self.execute(fast.popleft())
            elif client:
                self.execute(client.popleft())
            else:
                log = self.log
                if log.pending and time.monotonic() >= log.deadline:
                    self.fail_stop(log.flush)  # the group-commit timer ran out
                return

    def drain_and_quiesce(self) -> None:
        """Finish all fast-track work without starting new client requests."""
        if self.stopped:
            raise EngineStopped("partition is stopped")
        if self.executing:
            raise StreamTxError("serial execution violated")
        while self.fast_track:
            self.execute(self.fast_track.popleft())
        self.fail_stop(self.log.flush)

    def fail_stop(self, write: Callable, *args) -> None:
        """Call ``write``, which writes the log, the input cache or a
        checkpoint's files. A failed write stops the partition for good, so
        memory never runs ahead of its files. The commit path makes the same
        guard once, around its log writes, in ``execute``."""
        try:
            write(*args)
        except LogWriteFailure:
            self.stopped = True
            raise

    # --- execution ---

    def execute(self, req: TERequest) -> str:
        """Run one execution, or its whole nested group, to commit/abort.
        Inside a group, ``req``'s child runs with the group's other ready
        children, in group order; a procedure without a group runs alone."""
        plan = self.plans.get(req.proc)
        if plan is None:
            raise UnknownProcedure(req.proc)
        if self.executing:
            raise StreamTxError("serial execution violated")
        self.executing = True
        try:
            if plan.group is None:
                ctx, error = self._run_one(plan, req)
                ran = ((ctx, req),)
            else:
                ran, error = self._run_group(req, plan)
        finally:
            self.executing = False
        if error is None:
            try:
                self._commit_group(req, plan, ran)
            except LogWriteFailure:  # the one fail-stop guard of the commit path
                self.stopped = True
                raise
            outcome = "committed"
        else:
            self._finish_abort(req, plan, error)
            outcome = "aborted"
        if req.origin is Origin.CLIENT:
            self.counters.client_roundtrips += 1
        return outcome

    def _run_group(self, req: TERequest, plan: ProcedurePlan):
        """Run ``req`` and the other children of its group whose inputs
        hold the round, in group order. Returns ((ctx, request) of each
        execution that ran, error|None); on an error all of them have
        rolled back."""
        ran: list[tuple[TEContext, TERequest]] = []
        round_ = req.round
        for child in plan.group.order:
            if child == req.proc:
                child_plan, child_req = plan, req
            else:
                child_plan = self.plans[child]
                ready = True
                for tab in child_plan.inputs:
                    if round_ not in tab.batches:
                        ready = False
                        break
                if not ready:
                    continue
                child_req = TERequest(child, round_, origin=Origin.TRIGGER)
                self.counters.boundary_crossings += 1
            ctx, error = self._run_one(child_plan, child_req)
            if error is not None:
                # group rollback: undo every already-finished child too
                for done_ctx, _ in reversed(ran):
                    done_ctx.undo.rollback()
                return ran, error
            ran.append((ctx, child_req))
        return ran, None

    def _run_one(self, plan: ProcedurePlan, req: TERequest):
        """Run one execution's inputs and body; mutations stay in its undo
        buffer until the commit decision. Returns (ctx, error|None)."""
        self.counters.pe_dispatches += 1
        ctx = TEContext(self, plan, req.round, req.args)
        body = plan.proc.body
        try:
            if plan.inputs:
                self._load_inputs(ctx, plan, req)
            if body is not None:
                try:
                    body(ctx)
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
        in replay; every other input must already hold the round's batch,
        which the body gets as a fresh list.
        A request's batches skip the value rule, which ingest ran on them
        against the same tables; decoded ones keep it, and must be the
        request's round, because a log may come from another spec."""
        proc = plan.proc
        batches = req.batches
        checked = batches is not None
        if not checked and proc.kind is ProcedureKind.BORDER and req.args:
            batches = args_to_batches(req.args)
        inputs = ctx.inputs
        if batches:
            items = batches.items()
            if len(batches) > 1:
                items = sorted(items)
            for stream, batch in items:
                if stream not in proc.stream_inputs or batch.batch_id != req.round:
                    raise BadDefinition(
                        f"{proc.name} round {req.round} takes no batch "
                        f"{batch.batch_id} on {stream}"
                    )
                self.store.insert_batch(stream, batch, ctx.undo, checked=checked)
                inputs[stream] = list(batch.tuples)
                stream_plan = self.stream_plans[stream]
                if stream_plan.program is not None:
                    self.trigger_engine.on_stream_append(ctx, stream_plan, batch)
        for stream, tab in zip(proc.stream_inputs, plan.inputs):
            if stream in inputs:
                continue
            tuples = tab.batches.get(req.round)
            if not tuples:
                raise MissingInputBatch(
                    f"{proc.name}: stream {stream} holds no batch {req.round}"
                )
            inputs[stream] = list(tuples)

    # --- commit / abort ---

    def _commit_group(self, req: TERequest, plan: ProcedurePlan, ran) -> None:
        """Commit ``ran``, ``req``'s execution and, inside a group, the other
        children that ran, as one transaction. Its one log record is ``req``
        at the group's first commit seq; the ticket's commit seq is its last.
        A batch on a stream that triggers a procedure waits for its consumer
        from here on, and the requests its trigger fires go straight onto
        the fast track, by ``_submit_trigger``'s rule. The transaction then
        ends its round as an abort does (see ``drop_aborted``), inline to
        keep the commit path one call shorter. The record goes to the log
        last: ``CommandLog.append`` flushes once ``max_batch`` records wait
        or the log's deadline has passed; an unlogged commit flushes the
        waiting records once that deadline is due. ``execute`` stops the
        partition when a log write fails."""
        ticket = req.ticket
        triggers = self.trigger_engine
        store = self.store
        schedule = self.committed_schedule
        counters = self.counters
        last_queued = self.last_queued
        round_ = req.round
        first_seq = self.commit_seq + 1  # the record's
        seq = self.commit_seq
        for ctx, child in ran:
            seq += 1
            schedule.append(_make(TransactionExecution, (ctx.proc.name, round_, seq)))
            if child.ticket is not None:
                child.ticket.result_rows = ctx.result_rows
            # fire each appended stream that triggers a procedure, queueing
            # its target as ``_submit_trigger`` would; collect one a
            # statement program ran on, unless a consumer waits for it
            for stream, sp in ctx.appended.items():
                if sp.target is not None:
                    triggers.note_append(stream, round_)
                    for target, _ in triggers.fire_procedure_triggers(stream, round_):
                        if last_queued.get(target, 0) < round_:
                            last_queued[target] = round_
                            self.fast_track.append(
                                TERequest(target, round_, b"", Origin.TRIGGER)
                            )
                            counters.boundary_crossings += 1
                if sp.program is not None and triggers.gc_eligible(stream, round_):
                    store.garbage_collect(stream, round_)
        self.commit_seq = seq
        counters.te_committed += len(ran)
        # no procedure of the transaction runs this round, or a lower one,
        # again, and no other procedure reads their inputs
        for tab in plan.transaction_inputs:
            if round_ > tab.last_consumed_batch:
                tab.last_consumed_batch = round_
            batches = tab.batches
            while batches:
                for batch_id in batches:  # the oldest: ids ascend
                    break
                if batch_id > round_:
                    break
                triggers.note_consumed(tab.name, batch_id)
                store.garbage_collect(tab.name, batch_id)
        if ticket is not None:
            ticket.outcome = "committed"
            ticket.commit_seq = seq
        if self.post_commit_hook is not None:
            self.post_commit_hook(self)
        # a replayed transaction is already in the log
        if req.origin is not Origin.RECOVERY and plan.logged:
            aborted = ()
            if self._aborted:
                aborted, self._aborted = tuple(self._aborted), []
            counters.log_records += 1
            record = (first_seq, req.proc, round_, req.args, aborted)
            self.log.append(_make(CommandLogRecord, record), ticket)
        else:
            if ticket is not None:
                ticket.acknowledged = True
            log = self.log
            if log.pending and time.monotonic() >= log.deadline:
                log.flush()

    def _finish_abort(
        self, req: TERequest, plan: ProcedurePlan, error: Exception
    ) -> None:
        """Abort ``req``'s transaction, which ``plan`` enters, once its
        executions have rolled back. Nothing it appended waits for a
        consumer, since only a commit makes a batch wait. The abort is
        acknowledged at once; when the log keeps the transaction, the next
        record carries it."""
        self.counters.te_aborted += 1
        t = req.ticket
        if t is not None:
            t.outcome = "aborted"
            t.reason = str(error)
            t.acknowledged = True
        if plan.logged:
            self._aborted.append((req.proc, req.round))
        self.drop_aborted(req.proc, req.round)

    def drop_aborted(self, proc: str, round_: int) -> None:
        """End round ``round_`` of the aborted transaction that ``proc``
        enters, as its commit would have: no procedure of it runs
        ``round_``, or a lower one, again, so raise each input's
        ``last_consumed_batch`` to the round and collect what the inputs
        hold up to it. A live abort runs this, and replay runs it for each
        abort a record carries, before the record; a snapshot keeps the
        marks, so recovery needs no record of an abort it covers."""
        for tab in self.plans[proc].transaction_inputs:
            if round_ > tab.last_consumed_batch:
                tab.last_consumed_batch = round_
            batches = tab.batches
            while batches:
                for batch_id in batches:  # the oldest: ids ascend
                    break
                if batch_id > round_:
                    break
                self.trigger_engine.note_consumed(tab.name, batch_id)
                self.store.garbage_collect(tab.name, batch_id)

    # --- trigger surface (module operations live on the partition) ---

    def refire_nonempty_streams(self) -> list[TERequest]:
        return self._submit_trigger(self.trigger_engine.refire_nonempty_streams())
