"""Statement triggers and procedure triggers.

Statement triggers run declarative operation chains inside the storage layer
within the firing transaction (same undo buffer, same commit fate), cascading
depth-first. Procedure triggers fire at commit of the producing transaction
and hand downstream executions straight to the scheduler's fast track.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import BadDefinition, CycleDetected
from .model import ProcedureDef, ResolvedGroup
from .storage import (
    _OPS,
    FullWindowEvent,
    Pred,
    Store,
    StreamTable,
    WindowTable,
    aggregate_rows,
)


@dataclass(frozen=True)
class FilteredCopy:
    """Copy the firing batch's rows that satisfy ``pred`` into ``dst``."""

    src: str
    dst: str
    pred: Optional[Pred] = None


@dataclass(frozen=True)
class WindowInsertStmt:
    """Feed the firing batch into a sliding window."""

    src: str
    window: str


@dataclass(frozen=True)
class AggregateInsert:
    """Aggregate the firing window contents into a table or stream."""

    src: str
    dst: str
    op: str
    column: Optional[str] = None
    group_by: Optional[str] = None


@dataclass(frozen=True)
class DeleteBatch:
    """Drop the firing batch from its stream (emulation workloads only;
    live streams are garbage collected automatically)."""

    src: str


Statement = Union[FilteredCopy, WindowInsertStmt, AggregateInsert, DeleteBatch]


@dataclass(frozen=True)
class StatementTrigger:
    source: str
    program: tuple[Statement, ...]


@dataclass(frozen=True)
class ProcedureTrigger:
    """A stream's fire plan: a committed batch enqueues ``target`` (as nested
    group ``group``) once every procedure in ``ready`` holds it on all its
    inputs."""

    source: str
    target: str
    group: Optional[str] = None
    ready: tuple[ProcedureDef, ...] = ()


def _from_sums(stmt: AggregateInsert, sums: dict[str, int]) -> bool:
    """Whether a window's running sums (int column -> sum) answer ``stmt``."""
    if stmt.group_by is not None:
        return False
    return stmt.op == "count" or (stmt.op in ("sum", "avg") and stmt.column in sums)


class TriggerEngine:
    """Per-partition trigger registry, dispatch, and GC bookkeeping."""

    def __init__(self, store: Store):
        self.store = store
        self.statement_triggers: dict[str, StatementTrigger] = {}
        self.procedure_triggers: dict[str, ProcedureTrigger] = {}
        self.pe_enabled = True
        # window -> whether its statement program reads the rows of an event;
        # decided when the program registers
        self.event_rows: dict[str, bool] = {}
        # (stream, batch_id) -> count of trigger obligations not yet met;
        # a batch is GC-eligible only at zero.
        self.pending: dict[tuple[str, int], int] = {}

    # --- registration ---

    def register_statement_trigger(self, trig: StatementTrigger) -> None:
        src = self.store.table(trig.source)
        if isinstance(src, StreamTable) or isinstance(src, WindowTable):
            pass
        else:
            raise BadDefinition(
                f"statement trigger source {trig.source} must be a stream or window"
            )
        if trig.source in self.statement_triggers:
            raise BadDefinition(f"{trig.source} already has a statement trigger")
        for stmt in trig.program:
            if stmt.src != trig.source:
                raise BadDefinition(
                    f"statement source {stmt.src} differs from trigger "
                    f"source {trig.source}"
                )
            if isinstance(stmt, (FilteredCopy, AggregateInsert)):
                self.store.table(stmt.dst)
            if isinstance(stmt, WindowInsertStmt):
                self.store.window(stmt.window)
            if isinstance(stmt, AggregateInsert) and not isinstance(
                src, WindowTable
            ):
                raise BadDefinition(
                    "aggregate_insert runs one full window at a time; "
                    f"source {trig.source} is not a window"
                )
        self.statement_triggers[trig.source] = trig
        if isinstance(src, WindowTable):
            self.event_rows[trig.source] = not all(
                isinstance(stmt, AggregateInsert) and _from_sums(stmt, src.sums)
                for stmt in trig.program
            )
        self._check_statement_dag()

    def _check_statement_dag(self) -> None:
        edges: list[tuple[str, str]] = []
        for trig in self.statement_triggers.values():
            for stmt in trig.program:
                if isinstance(stmt, FilteredCopy):
                    edges.append((trig.source, stmt.dst))
                elif isinstance(stmt, WindowInsertStmt):
                    edges.append((trig.source, stmt.window))
                elif isinstance(stmt, AggregateInsert):
                    edges.append((trig.source, stmt.dst))
        nodes = {n for e in edges for n in e}
        state: dict[str, int] = {}
        succ: dict[str, list[str]] = {n: [] for n in nodes}
        for a, b in edges:
            succ[a].append(b)

        def visit(n):
            if state.get(n) == 0:
                raise CycleDetected(f"statement triggers cycle through {n}")
            if state.get(n) == 1:
                return
            state[n] = 0
            for m in succ[n]:
                visit(m)
            state[n] = 1

        for n in nodes:
            visit(n)

    def register_procedure_trigger(
        self, source: str, target: ProcedureDef, group: Optional[ResolvedGroup] = None
    ) -> None:
        """Fire ``target`` for each batch committed to ``source``; a target
        inside a nested group fires the group through its entry children."""
        tab = self.store.table(source)
        if isinstance(tab, WindowTable):
            raise BadDefinition(
                f"procedure triggers attach to stream tables only, not window {source}"
            )
        if not isinstance(tab, StreamTable):
            raise BadDefinition(f"procedure trigger source {source} is not a stream")
        if source not in target.stream_inputs:
            raise BadDefinition(
                f"{target.name} does not read stream {source}"
            )
        if source in self.procedure_triggers:
            raise BadDefinition(f"stream {source} already triggers a procedure")
        entry = (target,) if group is None else group.roots
        # a single-input entry is ready by construction: the firing batch
        # just landed on its only input
        ready = () if len(entry) == 1 and len(entry[0].stream_inputs) == 1 else entry
        self.procedure_triggers[source] = ProcedureTrigger(
            source, entry[0].name, None if group is None else group.name, ready
        )

    # --- enable flag ---

    def set_pe_triggers_enabled(self, flag: bool) -> None:
        self.pe_enabled = bool(flag)

    # --- GC bookkeeping ---

    def note_append(self, stream: str, batch_id: int) -> None:
        count = 0
        if stream in self.statement_triggers:
            count += 1
        if stream in self.procedure_triggers:
            count += 1
        if count:
            self.pending[(stream, batch_id)] = count

    def note_statement_done(self, stream: str, batch_id: int) -> None:
        self._dec(stream, batch_id)

    def note_consumed(self, stream: str, batch_id: int) -> None:
        self._dec(stream, batch_id)

    def _dec(self, stream: str, batch_id: int) -> None:
        key = (stream, batch_id)
        left = self.pending.get(key)
        if left is None:
            return
        if left <= 1:
            del self.pending[key]
        else:
            self.pending[key] = left - 1

    def gc_eligible(self, stream: str, batch_id: int) -> bool:
        return (stream, batch_id) not in self.pending

    # --- statement trigger execution ---

    def fire_statement_triggers(self, source: str, batch, te_context) -> None:
        """Run the statement program attached to ``source``, if any.

        Runs inside the current transaction (same undo buffer, same commit
        fate); statements that land rows on another triggered stream or
        window cascade depth-first through the context.
        """
        trig = self.statement_triggers.get(source)
        if trig is None:
            return
        self._run_program(te_context, trig, batch.tuples, batch.batch_id)
        self.note_statement_done(source, batch.batch_id)
        te_context.ee_consumed.append((source, batch.batch_id))

    # storage-side hook name used by the execution context
    def on_stream_append(self, ctx, stream: str, batch) -> None:
        self.fire_statement_triggers(stream, batch, ctx)

    def on_window_events(self, ctx, window: str, events: list[FullWindowEvent]):
        trig = self.statement_triggers.get(window)
        if trig is None:
            return
        for ev in events:
            self._run_program(ctx, trig, ev.tuples, ctx.round, ev.sums)

    def _run_program(
        self, ctx, trig: StatementTrigger, tuples, batch_id: int, sums=None
    ):
        for stmt in trig.program:
            ctx.count_statement()
            if isinstance(stmt, FilteredCopy):
                if stmt.pred is None:
                    hits = list(tuples)
                else:
                    tab = self.store.table(trig.source)
                    ci = tab.col(stmt.pred.column)
                    fn = _OPS[stmt.pred.op]
                    want = stmt.pred.value
                    hits = [t for t in tuples if fn(t.values[ci], want)]
                if hits:
                    ctx.copy_to_stream(stmt.dst, hits, batch_id)
            elif isinstance(stmt, WindowInsertStmt):
                ctx.window_insert(
                    stmt.window, tuples,
                    event_rows=self.event_rows.get(stmt.window, False),
                )
            elif isinstance(stmt, AggregateInsert):
                rows = self._aggregate(trig, stmt, tuples, sums)
                dst = self.store.table(stmt.dst)
                if isinstance(dst, StreamTable):
                    ctx.emit(stmt.dst, rows, _internal_batch_id=batch_id)
                else:
                    for row in rows:
                        ctx.insert(stmt.dst, row)
            elif isinstance(stmt, DeleteBatch):
                ctx.delete_batch(stmt.src, batch_id)
            else:
                raise BadDefinition(f"unknown statement {stmt!r}")

    def _aggregate(self, trig, stmt: AggregateInsert, tuples, sums) -> list[tuple]:
        """Answer count, and sum/avg of an int column, from the window's
        running sums and its size, which every event holds. Everything else
        recomputes with ``aggregate_rows``: float sums round differently
        once reassociated, and min/max and group_by have no running form
        here."""
        if sums is not None and _from_sums(stmt, sums):
            n = self.store.tables[trig.source].spec.size
            if stmt.op == "count":
                return [(n,)]
            total = sums[stmt.column]
            return [(total,)] if stmt.op == "sum" else [(float(total) / n,)]
        return aggregate_rows(
            list(tuples), self.store.table(trig.source), stmt.op, stmt.column,
            stmt.group_by,
        )

    # --- procedure trigger firing (commit time) ---

    def fire_procedure_triggers(
        self, stream: str, batch_id: int
    ) -> list[tuple[str, int, Optional[str]]]:
        """Requests to enqueue for a committed batch: (target, round, group).

        Consults downstream readiness: the request appears only once every
        input stream of the target (or of the target's group roots) holds the
        batch, so the completing producer is the one that enqueues.
        """
        trig = self.procedure_triggers.get(stream)
        if not self.pe_enabled or trig is None:
            return []
        if all(self.inputs_ready(p, batch_id) for p in trig.ready):
            return [(trig.target, batch_id, trig.group)]
        return []

    def inputs_ready(self, proc: ProcedureDef, batch_id: int) -> bool:
        return all(
            batch_id in self.store.stream(s).batches for s in proc.stream_inputs
        )

    def refire_nonempty_streams(self) -> list[tuple[str, int, Optional[str]]]:
        """Recovery helper: re-enqueue consumers for still-pending batches."""
        out: list[tuple[str, int, Optional[str]]] = []
        seen: set[tuple[str, int]] = set()
        for name in sorted(self.procedure_triggers):
            tab = self.store.stream(name)
            for batch_id in tab.pending_batches():
                for req in self.fire_procedure_triggers(name, batch_id):
                    key = (req[0] if req[2] is None else req[2], req[1])
                    if key not in seen:
                        seen.add(key)
                        out.append(req)
        out.sort(key=lambda r: r[1])
        return out
