"""Statement triggers and procedure triggers.

Statement triggers run declarative operation chains inside the storage layer
within the firing transaction (same undo buffer, same commit fate), cascading
depth-first. A statement only adds rows: it copies them to a stream, feeds a
window or inserts an aggregate. Streams are append-only, so the batch that
fired a program leaves its stream through garbage collection once the
transaction commits, not through a statement. Procedure triggers fire at
commit of the producing transaction and hand downstream executions straight
to the scheduler's fast track.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .errors import BadDefinition, CycleDetected
from .model import ProcedureDef, ResolvedGroup, kahn_order
from .storage import (
    FullWindowEvent,
    Pred,
    Store,
    StreamTable,
    WindowTable,
    aggregate_rows,
    check_aggregate,
    row_matcher,
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


Statement = Union[FilteredCopy, WindowInsertStmt, AggregateInsert]


@dataclass(frozen=True)
class StatementTrigger:
    source: str
    program: tuple[Statement, ...]


@dataclass(frozen=True)
class ProcedureTrigger:
    """A stream's fire plan: a committed batch enqueues ``target``, which
    runs its nested group if it has one, once every stream in ``ready``
    holds it."""

    source: str
    target: str
    ready: tuple[StreamTable, ...] = ()


@dataclass(frozen=True)
class Step:
    """A statement resolved at registration. ``run(ctx, tuples, batch_id,
    sums)`` keeps names, column positions and constants."""

    writes: str
    reads_rows: bool
    run: Callable


def _from_sums(stmt: AggregateInsert, sums: dict[str, int]) -> bool:
    """Whether a window's running sums (int column -> sum) answer ``stmt``."""
    if stmt.group_by is not None:
        return False
    return stmt.op == "count" or (stmt.op in ("sum", "avg") and stmt.column in sums)


class TriggerEngine:
    """Per-partition trigger registry, dispatch, and GC bookkeeping."""

    def __init__(self, store: Store):
        self.store = store
        self.programs: dict[str, tuple[Step, ...]] = {}  # source -> its steps
        self.procedure_triggers: dict[str, ProcedureTrigger] = {}
        self.pe_enabled = True  # strong-recovery replay turns firing off
        # window -> whether some step of its program reads an event's rows
        self.event_rows: dict[str, bool] = {}
        # batches held on procedure-trigger streams whose consumer has not
        # committed; every other batch may be collected
        self.pending: set[tuple[str, int]] = set()

    # --- registration ---

    def register_statement_trigger(self, trig: StatementTrigger) -> None:
        src = self.store.table(trig.source)
        if not isinstance(src, (StreamTable, WindowTable)):
            raise BadDefinition(
                f"statement trigger source {trig.source} must be a stream or window"
            )
        if trig.source in self.programs:
            raise BadDefinition(f"{trig.source} already has a statement trigger")
        for stmt in trig.program:
            if getattr(stmt, "src", trig.source) != trig.source:
                raise BadDefinition(
                    f"statement source {stmt.src} differs from trigger "
                    f"source {trig.source}"
                )
        steps = tuple(self._resolve(src, stmt) for stmt in trig.program)
        self.programs[trig.source] = steps
        if isinstance(src, WindowTable):
            self.event_rows[trig.source] = any(s.reads_rows for s in steps)
        self._check_statement_dag()

    def _resolve(self, src, stmt) -> Step:
        """Check one statement against the catalog and build its step."""
        if isinstance(stmt, FilteredCopy):
            dst = self.store.stream(stmt.dst).name
            match = None if stmt.pred is None else row_matcher(src, stmt.pred)

            def copy(ctx, tuples, batch_id, sums):
                hits = tuples if match is None else [t for t in tuples if match(t)]
                if hits:
                    ctx.copy_to_stream(dst, hits, batch_id)

            return Step(dst, True, copy)
        if isinstance(stmt, WindowInsertStmt):
            window = self.store.window(stmt.window).name
            event_rows = self.event_rows  # the window's program may come later

            def insert(ctx, tuples, batch_id, sums):
                ctx.window_insert(
                    window, tuples, event_rows=event_rows.get(window, False)
                )

            return Step(window, True, insert)
        if isinstance(stmt, AggregateInsert):
            return self._aggregate_step(src, stmt)
        raise BadDefinition(f"unknown statement {stmt!r}")

    def _aggregate_step(self, src, stmt: AggregateInsert) -> Step:
        """Count, and sum/avg of an int column, come from the window's
        running sums and its size, which every event holds. Everything else
        recomputes with ``aggregate_rows``: float sums round differently
        once reassociated, and min/max and group_by have no running form
        here."""
        if not isinstance(src, WindowTable):
            raise BadDefinition(
                "aggregate_insert runs one full window at a time; "
                f"source {src.name} is not a window"
            )
        check_aggregate(src, stmt.op, stmt.column, stmt.group_by)
        op, col, group_by = stmt.op, stmt.column, stmt.group_by
        n = src.spec.size
        from_sums = _from_sums(stmt, src.sums)
        if not from_sums:
            def rows(ctx, tuples, sums):
                return aggregate_rows(tuples, src, op, col, group_by)
        elif op == "count":
            def rows(ctx, tuples, sums):
                return [(n,)]
        elif op == "sum":
            def rows(ctx, tuples, sums):
                return [(sums[col],)]
        else:
            def rows(ctx, tuples, sums):
                return [(float(sums[col]) / n,)]
        dst = stmt.dst
        if isinstance(self.store.table(dst), StreamTable):
            def run(ctx, tuples, batch_id, sums):
                ctx.copy_to_stream(dst, rows(ctx, tuples, sums), batch_id)
        else:
            def run(ctx, tuples, batch_id, sums):
                for row in rows(ctx, tuples, sums):
                    ctx.insert(dst, row)
        return Step(dst, not from_sums, run)

    def _check_statement_dag(self) -> None:
        pairs = [
            (src, step.writes)
            for src, steps in self.programs.items()
            for step in steps
        ]
        nodes = set(self.programs).union(dst for _, dst in pairs)
        if kahn_order(nodes, pairs) is None:
            raise CycleDetected("statement triggers form a cycle")

    def register_procedure_trigger(
        self, source: str, target: ProcedureDef, group: Optional[ResolvedGroup] = None
    ) -> None:
        """Fire ``target`` for each batch committed to ``source``; a target
        inside nested group ``group`` fires the group through its first
        entry child, once every entry child's inputs hold the batch."""
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
        if len(entry) == 1 and len(entry[0].stream_inputs) == 1:
            ready = ()
        else:
            ready = tuple(self.store.stream(s) for p in entry for s in p.stream_inputs)
        self.procedure_triggers[source] = ProcedureTrigger(source, entry[0].name, ready)

    # --- GC bookkeeping ---

    def note_append(self, stream: str, batch_id: int) -> None:
        """A batch landed on a procedure-trigger stream."""
        self.pending.add((stream, batch_id))

    def note_consumed(self, stream: str, batch_id: int) -> None:
        self.pending.discard((stream, batch_id))

    def gc_eligible(self, stream: str, batch_id: int) -> bool:
        return (stream, batch_id) not in self.pending

    # --- statement trigger execution ---

    def on_stream_append(self, ctx, stream: str, batch) -> None:
        """Run the program attached to ``stream``, if any, inside the
        current transaction (same undo buffer, same commit fate); steps that
        land rows on another triggered stream or window cascade depth-first
        through the context."""
        steps = self.programs.get(stream)
        if steps is None:
            return
        for step in steps:
            ctx.count_statement()
            step.run(ctx, batch.tuples, batch.batch_id, None)
        ctx.ee_consumed.append((stream, batch.batch_id))

    def on_window_events(self, ctx, window: str, events: list[FullWindowEvent]):
        steps = self.programs.get(window)
        if steps is None:
            return
        for ev in events:
            for step in steps:
                ctx.count_statement()
                step.run(ctx, ev.tuples, ctx.round, ev.sums)

    # --- procedure trigger firing (commit time) ---

    def fire_procedure_triggers(
        self, stream: str, batch_id: int
    ) -> list[tuple[str, int]]:
        """Requests to enqueue for a committed batch: (target, round).

        Consults downstream readiness: the request appears only once every
        input stream of the target (or of the target's group roots) holds the
        batch, so the completing producer is the one that enqueues.
        """
        trig = self.procedure_triggers.get(stream)
        if not self.pe_enabled or trig is None:
            return []
        if all(batch_id in t.batches for t in trig.ready):
            return [(trig.target, batch_id)]
        return []

    def refire_nonempty_streams(self) -> list[tuple[str, int]]:
        """Recovery helper: mark every batch held on a procedure-trigger
        stream as waiting for its consumer, and fire the ready ones (the
        partition drops a round a target already has queued)."""
        out: list[tuple[str, int]] = []
        for name in sorted(self.procedure_triggers):
            for batch_id in self.store.stream(name).pending_batches():
                self.pending.add((name, batch_id))
                out += self.fire_procedure_triggers(name, batch_id)
        out.sort(key=lambda r: r[1])
        return out
