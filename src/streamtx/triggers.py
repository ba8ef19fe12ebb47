"""Statement triggers and procedure triggers.

Statement triggers run declarative operation chains inside the storage layer
within the firing transaction (same undo buffer, same commit fate), cascading
depth-first. A statement only adds rows: it copies them to a stream, feeds a
window or inserts an aggregate. Streams are append-only, so the batch that
fired a program leaves its stream through garbage collection once the
transaction commits, not through a statement.

A program runs once per write to its source, as an SQL statement-level
trigger does: a stream's program once per appended batch, each step as
``run(ctx, tuples)`` over the batch's tuples, and a window's program once per
insert, each step as ``run(ctx, events)`` over every slide that insert made,
in slide order. Each step finishes all the slides before the next step
starts, so when two steps write the same table it gets the first step's rows
for every slide before the second step's. Procedure triggers fire at
commit of the producing transaction and hand downstream executions straight
to the scheduler's fast track. A stream's ``StreamPlan`` is the one record of
both kinds of trigger on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .errors import BadDefinition, CycleDetected
from .model import ProcedureDef, ResolvedGroup
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
class Step:
    """A statement resolved at registration. A stream's step runs as
    ``run(ctx, tuples)`` on an appended batch's tuples, a window's as
    ``run(ctx, events)`` on the events of one insert, in slide order. It
    keeps its destination stream's plan (or a table or window name), column
    positions and constants; what it appends is batch ``ctx.round``."""

    writes: str
    reads_rows: bool
    run: Callable


@dataclass(slots=True)
class StreamPlan:
    """A stream and the one record of its triggers. ``program`` runs on each
    appended batch inside the appending transaction. With a ``target``, a
    committed batch waits in ``TriggerEngine.pending`` and enqueues that
    procedure, which runs its nested group if it has one, once every stream
    in ``ready`` holds the batch."""

    table: StreamTable
    program: Optional[tuple[Step, ...]] = None
    target: Optional[str] = None
    ready: tuple[StreamTable, ...] = ()


# the most stream programs, and the most window programs, one
# statement-trigger chain may run: each stage nests several Python frames,
# and a chain that starts while a border's input loads runs outside the
# body's exception handler
MAX_CHAIN = 64


class TriggerEngine:
    """Per-partition trigger registry, dispatch, and GC bookkeeping."""

    def __init__(self, store: Store):
        self.store = store
        # every stream's plan, made before any trigger registers
        self.stream_plans = {
            name: StreamPlan(tab)
            for name, tab in store.tables.items()
            if isinstance(tab, StreamTable)
        }
        self.window_programs: dict[str, tuple[Step, ...]] = {}
        self.pe_enabled = True  # strong-recovery replay turns firing off
        # batches held on procedure-trigger streams whose consumer has not
        # committed; every other batch may be collected
        self.pending: set[tuple[str, int]] = set()

    # --- registration ---

    def register_statement_trigger(self, trig: StatementTrigger) -> None:
        """Resolve ``trig``'s program onto its stream's plan, or its window.
        A window's events carry its rows exactly when some step reads them
        (see also ``unread_windows_carry_no_rows``)."""
        src = self.store.table(trig.source)
        plan = self.stream_plans.get(trig.source)
        if plan is None and not isinstance(src, WindowTable):
            raise BadDefinition(
                f"statement trigger source {trig.source} must be a stream or window"
            )
        registered = plan.program if plan else self.window_programs.get(trig.source)
        if registered is not None:
            raise BadDefinition(f"{trig.source} already has a statement trigger")
        for stmt in trig.program:
            if getattr(stmt, "src", trig.source) != trig.source:
                raise BadDefinition(
                    f"statement source {stmt.src} differs from trigger "
                    f"source {trig.source}"
                )
        steps = tuple(self._resolve(src, stmt) for stmt in trig.program)
        if plan is not None:
            plan.program = steps
        else:
            self.window_programs[trig.source] = steps
            src.events_carry_rows = any(s.reads_rows for s in steps)
        self._check_statement_dag()

    def unread_windows_carry_no_rows(self) -> None:
        """Once every statement trigger has registered, stop a window that
        runs no program from copying its rows into its events: in an engine
        nothing else reads them. A bare store's windows keep them."""
        for name, tab in self.store.tables.items():
            if isinstance(tab, WindowTable) and name not in self.window_programs:
                tab.events_carry_rows = False

    def _resolve(self, src, stmt) -> Step:
        """Check one statement against the catalog and build its step. A
        step that moves rows between tables of equal column types skips the
        value rule: every row of its source already kept it. A copy or a
        window insert from a window takes the tuples of all its events, one
        event after the other."""
        if isinstance(stmt, FilteredCopy):
            dst = self.stream_plans[self.store.stream(stmt.dst).name]
            match = None if stmt.pred is None else row_matcher(src, stmt.pred)
            same = src.types == dst.table.types

            def run(ctx, tuples):
                hits = tuples if match is None else [t for t in tuples if match(t)]
                if hits:
                    ctx._append(dst, hits, checked=same)

            writes = stmt.dst
        elif isinstance(stmt, WindowInsertStmt):
            window = self.store.window(stmt.window)
            writes, same = window.name, src.types == window.types

            def run(ctx, tuples):
                ctx._window_insert(writes, tuples, checked=same)

        elif isinstance(stmt, AggregateInsert):
            return self._aggregate_step(src, stmt)
        else:
            raise BadDefinition(f"unknown statement {stmt!r}")
        if isinstance(src, WindowTable):
            of_tuples = run

            def run(ctx, events):
                of_tuples(ctx, [t for ev in events for t in ev.tuples])

        return Step(writes, True, run)

    def _aggregate_step(self, src, stmt: AggregateInsert) -> Step:
        """Count, and sum/avg of an int column, come from the window's
        running sums and its size, which every event holds. Everything else
        recomputes with ``aggregate_rows``: float sums round differently
        once reassociated, and min/max and group_by have no running form
        here.

        A row into a stream skips the value rule when registration can
        prove its types: count is an int, avg a float, min and max a value
        of their column, and a group key a value of its. A sum can leave
        int64, so its rows are checked."""
        if not isinstance(src, WindowTable):
            raise BadDefinition(
                "aggregate_insert runs one full window at a time; "
                f"source {src.name} is not a window"
            )
        ci, gi = check_aggregate(src, stmt.op, stmt.column, stmt.group_by)
        op, col, group_by = stmt.op, stmt.column, stmt.group_by
        n = src.spec.size
        from_sums = group_by is None and (
            op == "count" or (op in ("sum", "avg") and col in src.sums)
        )
        # the rows of every event, in slide order
        if not from_sums:
            def rows(events):
                return [
                    row
                    for ev in events
                    for row in aggregate_rows(ev.tuples, src, op, col, group_by)
                ]
        elif op == "count":
            def rows(events):
                return [(n,)] * len(events)
        elif op == "sum":
            def rows(events):
                return [(ev.sums[col],) for ev in events]
        else:
            def rows(events):
                return [(float(ev.sums[col]) / n,) for ev in events]
        dst = stmt.dst
        if isinstance(self.store.table(dst), StreamTable):
            plan = self.stream_plans[dst]
            value = {"count": int, "avg": float}.get(op) or src.types[ci]
            key = () if gi is None else (src.types[gi],)
            proven = op != "sum" and plan.table.types == key + (value,)

            def run(ctx, events):
                ctx._append(plan, rows(events), checked=proven)
        else:
            def run(ctx, events):
                for row in rows(events):
                    ctx.insert(dst, row)
        return Step(dst, not from_sums, run)

    def _check_statement_dag(self) -> None:
        """Reject a cycle, and a chain that runs more than ``MAX_CHAIN``
        stream programs or more than ``MAX_CHAIN`` window programs, which
        execution would nest that deep."""
        programs = dict(self.window_programs)
        programs.update(
            (name, p.program)
            for name, p in self.stream_plans.items()
            if p.program is not None
        )
        # source -> the most stream programs, and the most window programs,
        # on a chain from it
        chain: dict[str, tuple[int, int]] = {}

        def longest(node: str, path: tuple[str, ...]) -> tuple[int, int]:
            if node in path:
                raise CycleDetected("statement triggers form a cycle")
            if node not in chain:
                streams = windows = 0
                for step in programs.get(node, ()):
                    s, w = longest(step.writes, path + (node,))
                    streams, windows = max(streams, s), max(windows, w)
                if node in self.stream_plans:
                    streams += node in programs
                else:
                    windows += node in programs
                for n, kind in ((streams, "stream"), (windows, "window")):
                    if n > MAX_CHAIN:
                        raise BadDefinition(
                            f"statement trigger chain from {node} runs {n} {kind} "
                            f"programs; at most {MAX_CHAIN} may nest"
                        )
                chain[node] = streams, windows
            return chain[node]

        for node in programs:
            longest(node, ())

    def register_procedure_trigger(
        self, source: str, target: ProcedureDef, group: Optional[ResolvedGroup] = None
    ) -> None:
        """Fire ``target`` for each batch committed to ``source``; a target
        inside nested group ``group`` fires the group through its first
        entry child, once every entry child's inputs hold the batch."""
        plan = self.stream_plans.get(source)
        if plan is None:
            raise BadDefinition(
                f"procedure triggers attach to stream tables only; {source} is not one"
            )
        if source not in target.stream_inputs:
            raise BadDefinition(f"{target.name} does not read stream {source}")
        if plan.target is not None:
            raise BadDefinition(f"stream {source} already triggers a procedure")
        entry = (target,) if group is None else group.roots
        plan.target = entry[0].name
        # a single-input entry is ready by construction: the firing batch
        # just landed on its only input
        if len(entry) > 1 or len(entry[0].stream_inputs) > 1:
            plan.ready = tuple(
                self.stream_plans[s].table for p in entry for s in p.stream_inputs
            )

    # --- GC bookkeeping ---

    def note_append(self, stream: str, batch_id: int) -> None:
        """A committed batch landed on a procedure-trigger stream."""
        self.pending.add((stream, batch_id))

    def note_consumed(self, stream: str, batch_id: int) -> None:
        self.pending.discard((stream, batch_id))

    def gc_eligible(self, stream: str, batch_id: int) -> bool:
        return (stream, batch_id) not in self.pending

    # --- statement trigger execution ---

    def on_stream_append(self, ctx, plan: StreamPlan, batch) -> None:
        """Run the program of ``plan``'s stream on a batch just appended to
        it, inside the current transaction (same undo buffer, same commit
        fate); steps that land rows on another triggered stream or window
        cascade depth-first through the context."""
        for step in plan.program:
            ctx.partition.counters.ee_statement_executions += 1
            step.run(ctx, batch.tuples)

    def on_window_events(self, ctx, window: str, events: list[FullWindowEvent]):
        """Run ``window``'s program, if it has one, on the events of one
        insert: each step runs once over all of them, in slide order, before
        the next step starts, and counts one statement per event."""
        for step in self.window_programs.get(window, ()):
            ctx.partition.counters.ee_statement_executions += len(events)
            step.run(ctx, events)

    # --- procedure trigger firing (commit time) ---

    def fire_procedure_triggers(
        self, stream: str, batch_id: int
    ) -> list[tuple[str, int]]:
        """Requests to enqueue for a committed batch: (target, round).

        Consults downstream readiness: the request appears only once every
        input stream of the target (or of the target's group roots) holds the
        batch, so the completing producer is the one that enqueues.
        """
        if not self.pe_enabled:
            return []
        plan = self.stream_plans[stream]
        for t in plan.ready:
            if batch_id not in t.batches:
                return []
        return [(plan.target, batch_id)]

    def refire_nonempty_streams(self) -> list[tuple[str, int]]:
        """Recovery helper: mark every batch held on a procedure-trigger
        stream as waiting for its consumer, and fire the ready ones (the
        partition drops a round a target already has queued)."""
        out: list[tuple[str, int]] = []
        for name, plan in sorted(self.stream_plans.items()):
            if plan.target is None:
                continue
            for batch_id in plan.table.pending_batches():
                self.pending.add((name, batch_id))
                out += self.fire_procedure_triggers(name, batch_id)
        out.sort(key=lambda r: r[1])
        return out
