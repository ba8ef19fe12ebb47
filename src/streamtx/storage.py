"""In-memory table store: public tables, stream tables, window tables.

All mutating calls take an UndoBuffer so an aborting transaction can restore
every touched table bit-exactly. The store is single-threaded per partition;
nothing here locks.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import (
    BadDefinition,
    DuplicateName,
    TypeMismatch,
    UnknownColumn,
    UnknownTable,
    WindowScopeViolation,
)
from .model import MAX_TEXT_BYTES, AtomicBatch, Tuple, Value, WindowSpec


class ScalarType(enum.Enum):
    INT = "int"
    FLOAT = "float"
    TEXT = "text"


PY_TYPES = {
    ScalarType.INT: int,
    ScalarType.FLOAT: float,
    ScalarType.TEXT: str,
}

_OPS: dict[str, Callable[[Value, Value], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True, slots=True)
class Column:
    name: str
    type: ScalarType


Schema = tuple[Column, ...]


def make_schema(*cols: tuple[str, str]) -> Schema:
    return tuple(Column(n, ScalarType(t)) for n, t in cols)


@dataclass(frozen=True, slots=True)
class Pred:
    """Single-column comparison predicate."""

    column: str
    op: str
    value: Value

    def __post_init__(self):
        if self.op not in _OPS:
            raise BadDefinition(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class FullWindowEvent:
    """Emitted when a window completes a slide: the new active contents and
    the running sum of each int column over them, as they stood at this
    slide (one insert may fire several events before any trigger runs).

    ``tuples`` is None when the insert asked for no rows: a statement
    program that reads only the sums needs no copy of the active set, and
    an event always holds exactly ``size`` tuples.
    """

    window: str
    index: int
    tuples: Optional[tuple[Tuple, ...]]
    sums: dict[str, int]


class _BaseTable:
    kind = "?"

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        # built once: check_row compares a row's value types with _types
        self._col_index: dict[str, int] = {}
        types, text_cols = [], []
        for i, c in enumerate(schema):
            self._col_index[c.name] = i
            types.append(PY_TYPES[c.type])
            if c.type is ScalarType.TEXT:
                text_cols.append(i)
        self._types = tuple(types)
        self._text_cols = tuple(text_cols)

    def col(self, name: str) -> int:
        try:
            return self._col_index[name]
        except KeyError:
            raise UnknownColumn(f"{self.name} has no column {name}") from None

    def check_row(self, t: Tuple) -> None:
        values = t.values
        if tuple(map(type, values)) == self._types:
            for i in self._text_cols:
                if len(values[i].encode()) > MAX_TEXT_BYTES:
                    break
            else:
                return
        self._reject(values)

    def _reject(self, values) -> None:
        """Raise for the first fault of a bad row, in schema order."""
        if len(values) != len(self.schema):
            raise TypeMismatch(
                f"{self.name}: expected {len(self.schema)} values, got {len(values)}"
            )
        for v, c in zip(values, self.schema):
            if type(v) is not PY_TYPES[c.type]:
                raise TypeMismatch(
                    f"{self.name}.{c.name}: expected {c.type.value}, "
                    f"got {type(v).__name__}"
                )
            if c.type is ScalarType.TEXT and len(v.encode()) > MAX_TEXT_BYTES:
                raise TypeMismatch(f"{self.name}.{c.name}: text exceeds 64 bytes")


class PublicTable(_BaseTable):
    """Unordered multiset of rows with optional hash indexes."""

    kind = "public"

    def __init__(self, name: str, schema: Schema, indexed: Iterable[str] = ()):
        super().__init__(name, schema)
        self.rows: list[Tuple] = []
        self.indexes: dict[str, dict[Value, list[Tuple]]] = {}
        for cname in indexed:
            self.col(cname)
            self.indexes[cname] = {}

    def _index_add(self, t: Tuple) -> None:
        for cname, idx in self.indexes.items():
            idx.setdefault(t.values[self.col(cname)], []).append(t)

    def _index_remove(self, t: Tuple) -> None:
        for cname, idx in self.indexes.items():
            key = t.values[self.col(cname)]
            bucket = idx[key]
            bucket.remove(t)
            if not bucket:
                del idx[key]


class StreamTable(_BaseTable):
    """Time-varying table holding not-yet-consumed atomic batches in order."""

    kind = "stream"

    def __init__(self, name: str, schema: Schema):
        super().__init__(name, schema)
        # batch id -> its tuples; ids ascend in insertion order and no batch
        # is empty, so a batch is loaded, consumed and undone as one entry
        self.batches: dict[int, tuple[Tuple, ...]] = {}
        self.next_tuple_id = 1
        # highest batch a committed consumer has taken; a border takes its
        # rounds in order, so recovery re-submits exactly the cached input
        # batches above it
        self.last_consumed_batch = 0

    @property
    def rows(self) -> list[Tuple]:
        """Every held tuple in stream order (a read-only copy)."""
        return [t for b in self.batches.values() for t in b]

    def pending_batches(self) -> list[int]:
        return list(self.batches)

    def batch_tuples(self, batch_id: int) -> list[Tuple]:
        return list(self.batches.get(batch_id, ()))

    def put_batch(self, batch_id: int, tuples: tuple[Tuple, ...]) -> None:
        """Replace one batch's tuples (none removes it), keeping id order."""
        if not tuples:
            del self.batches[batch_id]
        elif (
            batch_id in self.batches
            or not self.batches
            or batch_id > next(reversed(self.batches))
        ):
            self.batches[batch_id] = tuples
        else:  # undoing the removal of a batch that sat before later ones
            ordered = sorted({**self.batches, batch_id: tuples}.items())
            self.batches.clear()
            self.batches.update(ordered)


class WindowTable(_BaseTable):
    """Sliding window with staged (invisible) and active tuple sets.

    ``sums`` keeps the exact sum of each int column over ``active``, updated
    as tuples are admitted and expire, so count, sum and avg of a full window
    cost O(1) per event. It is derived state: snapshots leave it out and
    ``recompute_sums`` rebuilds it.
    """

    kind = "window"

    def __init__(self, spec: WindowSpec, schema: Schema):
        super().__init__(spec.name, schema)
        self.spec = spec
        self.active: list[Tuple] = []
        self.staged: list[Tuple] = []
        self.full_seen = False
        self.events_emitted = 0
        self.int_cols = tuple(
            (c.name, i) for i, c in enumerate(schema) if c.type is ScalarType.INT
        )
        self.recompute_sums()

    def recompute_sums(self) -> None:
        self.sums = {
            name: sum(t.values[ci] for t in self.active) for name, ci in self.int_cols
        }


AnyTable = PublicTable | StreamTable | WindowTable


class UndoBuffer:
    """Inverse-operation log for one transaction execution.

    Applying ``rollback`` replays the inverses newest-first, which restores
    each touched table to its pre-transaction state exactly.
    """

    def __init__(self):
        self._entries: list[tuple] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record_insert(self, table: PublicTable, index: int) -> None:
        self._entries.append(("ins", table, index))

    def record_delete(self, table: PublicTable, index: int, row: Tuple) -> None:
        self._entries.append(("del", table, index, row))

    def record_batch(self, s: StreamTable, batch_id: int) -> None:
        """Remember one stream batch as it is before a write to it."""
        self._entries.append(("bat", s, batch_id, s.batches.get(batch_id, ())))

    def record_window(self, w: WindowTable) -> list[Tuple]:
        """Remember a window before an insert slides it, without copying its
        active set. Returns the list the insert appends each expired tuple
        to; rollback rebuilds the window from it."""
        expired: list[Tuple] = []
        self._entries.append(
            (
                "win", w, expired, len(w.active), list(w.staged),
                w.full_seen, w.events_emitted, dict(w.sums),
            )
        )
        return expired

    def record_counter(self, s: StreamTable) -> None:
        self._entries.append(("ctr", s, s.next_tuple_id))

    def rollback(self) -> None:
        for entry in reversed(self._entries):
            tag = entry[0]
            if tag == "ins":
                _, table, index = entry
                table._index_remove(table.rows.pop(index))
            elif tag == "del":
                _, table, index, row = entry
                table.rows.insert(index, row)
                table._index_add(row)
            elif tag == "bat":
                _, s, batch_id, tuples = entry
                s.put_batch(batch_id, tuples)
            elif tag == "win":
                _, w, expired, n_active, staged, full_seen, emitted, sums = entry
                # expired + active is the old active set followed by every
                # tuple the insert admitted
                del w.active[max(n_active - len(expired), 0) :]
                w.active[:0] = expired[:n_active]
                w.staged = staged
                w.full_seen = full_seen
                w.events_emitted = emitted
                w.sums = sums
            elif tag == "ctr":
                _, s, value = entry
                s.next_tuple_id = value
        self._entries.clear()


def row_matcher(tab: _BaseTable, pred: Pred) -> Callable[[Tuple], bool]:
    """Whether a row of ``tab`` satisfies ``pred``, its column resolved and
    its value checked once: text compares with ``str``, int and float with
    ``int`` or ``float``."""
    ci = tab.col(pred.column)
    col = tab.schema[ci]
    kinds = (str,) if col.type is ScalarType.TEXT else (int, float)
    if type(pred.value) not in kinds:
        raise TypeMismatch(
            f"{tab.name}.{col.name} is {col.type.value}; "
            f"cannot compare it with {pred.value!r}"
        )
    fn = _OPS[pred.op]
    want = pred.value
    return lambda t: fn(t.values[ci], want)


def check_aggregate(
    tab: _BaseTable, op: str, column: Optional[str], group_by: Optional[str]
) -> tuple[Optional[int], Optional[int]]:
    """Reject an aggregate ``tab`` cannot answer; else its column positions."""
    if op not in ("count", "sum", "avg", "min", "max"):
        raise BadDefinition(f"unknown aggregate {op}")
    if op != "count" and column is None:
        raise UnknownColumn(f"aggregate {op} needs a column")
    ci = None if column is None else tab.col(column)
    if op != "count" and tab.schema[ci].type is ScalarType.TEXT:
        raise TypeMismatch(f"{op} over text column {column}")
    return ci, (None if group_by is None else tab.col(group_by))


def aggregate_rows(
    rows: list[Tuple],
    tab: _BaseTable,
    op: str,
    column: Optional[str] = None,
    group_by: Optional[str] = None,
) -> list[tuple]:
    """count/sum/avg/min/max over an explicit row list (see Store.aggregate)."""
    ci, gi = check_aggregate(tab, op, column, group_by)

    def compute(sub: list[Tuple]):
        if op == "count":
            return len(sub)
        vals = [t.values[ci] for t in sub]
        if op == "sum":
            return sum(vals)
        if op == "avg":
            return float(sum(vals)) / len(vals)
        if op == "min":
            return min(vals)
        return max(vals)

    if group_by is None:
        if not rows and op != "count":
            return []
        return [(compute(rows),)]
    groups: dict[Value, list[Tuple]] = {}
    for t in rows:
        groups.setdefault(t.values[gi], []).append(t)
    return [(k, compute(groups[k])) for k in sorted(groups)]


@dataclass
class WindowAccess:
    """One traced window access, for the visibility validator."""

    window: str
    accessor: Optional[str]
    round: int
    write: bool


class Store:
    """The per-partition table catalog plus all data operations."""

    def __init__(self):
        self.tables: dict[str, AnyTable] = {}
        self.trace_window_access = False
        self.enforce_window_scope = True
        self.window_accesses: list[WindowAccess] = []

    # --- catalog ---

    def _add(self, table: AnyTable) -> None:
        if table.name in self.tables:
            raise DuplicateName(f"table {table.name} already exists")
        self.tables[table.name] = table

    def create_public(
        self, name: str, schema: Schema, indexed: Iterable[str] = ()
    ) -> PublicTable:
        t = PublicTable(name, schema, indexed)
        self._add(t)
        return t

    def create_stream(self, name: str, schema: Schema) -> StreamTable:
        t = StreamTable(name, schema)
        self._add(t)
        return t

    def create_window(self, spec: WindowSpec, schema: Schema) -> WindowTable:
        t = WindowTable(spec, schema)
        self._add(t)
        return t

    def table(self, name: str) -> AnyTable:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTable(f"no table named {name}") from None

    def stream(self, name: str) -> StreamTable:
        t = self.tables.get(name)
        if not isinstance(t, StreamTable):
            self.table(name)  # raises for a missing name
            raise UnknownTable(f"{name} is not a stream table")
        return t

    def window(self, name: str) -> WindowTable:
        t = self.table(name)
        if not isinstance(t, WindowTable):
            raise UnknownTable(f"{name} is not a window table")
        return t

    # --- scoping ---

    def _check_window_scope(
        self, w: WindowTable, accessor: Optional[str], round: int, write: bool
    ) -> None:
        if self.trace_window_access:
            self.window_accesses.append(WindowAccess(w.name, accessor, round, write))
        if accessor is None:
            return  # engine-internal access (snapshots, oracles)
        if accessor != w.spec.owner and self.enforce_window_scope:
            raise WindowScopeViolation(
                f"window {w.name} is owned by {w.spec.owner}, not {accessor}"
            )

    # --- row operations ---

    def insert(
        self,
        table: str,
        t: Tuple,
        undo: UndoBuffer,
        accessor: Optional[str] = None,
        round: int = 0,
    ) -> Optional[list[FullWindowEvent]]:
        """Insert one row; inserting into a window may slide it. A stream
        takes whole batches, through ``insert_batch``."""
        tab = self.table(table)
        if isinstance(tab, WindowTable):
            return self.window_insert(table, [t], undo, accessor=accessor, round=round)
        if isinstance(tab, StreamTable):
            raise BadDefinition(f"{table} is a stream: append a batch to it")
        tab.check_row(t)
        tab.rows.append(t)
        undo.record_insert(tab, len(tab.rows) - 1)
        tab._index_add(t)
        return None

    def insert_batch(self, stream: str, batch: AtomicBatch, undo: UndoBuffer) -> None:
        """Append a batch, or extend the newest batch when it has the same id."""
        s = self.stream(stream)
        if s.batches:
            last = next(reversed(s.batches.values()))[-1]
            if (last.batch_id, last.tuple_id) >= (
                batch.batch_id,
                batch.tuples[0].tuple_id,
            ):
                raise BadDefinition(
                    f"stream {stream}: batch {batch.batch_id} arrives out of order"
                )
        for t in batch.tuples:
            s.check_row(t)
        undo.record_batch(s, batch.batch_id)
        s.put_batch(batch.batch_id, s.batches.get(batch.batch_id, ()) + batch.tuples)

    def select_where(
        self,
        table: str,
        pred: Optional[Pred] = None,
        accessor: Optional[str] = None,
        round: int = 0,
    ) -> list[Tuple]:
        tab = self.table(table)
        if isinstance(tab, WindowTable):
            self._check_window_scope(tab, accessor, round, write=False)
            rows = tab.active  # staged tuples are never visible
        else:
            rows = tab.rows
        if pred is None:
            return list(rows)
        match = row_matcher(tab, pred)
        if (
            pred.op == "=="
            and isinstance(tab, PublicTable)
            and pred.column in tab.indexes
        ):
            return list(tab.indexes[pred.column].get(pred.value, []))
        return [t for t in rows if match(t)]

    def delete_where(
        self,
        table: str,
        pred: Optional[Pred],
        undo: UndoBuffer,
        accessor: Optional[str] = None,
        round: int = 0,
    ) -> int:
        tab = self.table(table)
        if isinstance(tab, WindowTable):
            raise BadDefinition(
                f"window {tab.name}: rows expire by sliding, not deletion"
            )
        match = None if pred is None else row_matcher(tab, pred)
        removed = 0
        if isinstance(tab, StreamTable):
            for batch_id, tuples in list(tab.batches.items()):
                kept = () if match is None else tuple(t for t in tuples if not match(t))
                if len(kept) < len(tuples):
                    undo.record_batch(tab, batch_id)
                    tab.put_batch(batch_id, kept)
                    removed += len(tuples) - len(kept)
            return removed
        if match is None:  # every row goes; undo puts each back at the front
            for t in tab.rows:
                undo.record_delete(tab, 0, t)
            for idx in tab.indexes.values():
                idx.clear()
            removed = len(tab.rows)
            tab.rows.clear()
            return removed
        kept: list[Tuple] = []
        for i, t in enumerate(tab.rows):
            if match(t):
                undo.record_delete(tab, i - removed, t)
                removed += 1
                tab._index_remove(t)
            else:
                kept.append(t)
        if removed:
            tab.rows[:] = kept
        return removed

    def aggregate(
        self,
        table: str,
        op: str,
        column: Optional[str] = None,
        group_by: Optional[str] = None,
        pred: Optional[Pred] = None,
        accessor: Optional[str] = None,
        round: int = 0,
    ) -> list[tuple]:
        """count/sum/avg/min/max, optionally grouped.

        Returns [(value,)] or [(group, value), ...] sorted by group; an empty
        input yields no rows except plain count, which yields [(0,)].
        """
        tab = self.table(table)
        rows = self.select_where(table, pred, accessor=accessor, round=round)
        return aggregate_rows(rows, tab, op, column, group_by)

    # --- windows ---

    def window_insert(
        self,
        window: str,
        tuples: Iterable[Tuple],
        undo: UndoBuffer,
        accessor: Optional[str] = None,
        round: int = 0,
        event_rows: bool = True,
    ) -> list[FullWindowEvent]:
        """Stage new tuples, then advance the window while a slide is due.

        Before the first full window, arrivals accumulate in staging; the
        first event fires once ``size`` tuples exist. Afterwards every
        ``slide`` staged tuples expire the oldest actives and fire an event.
        A single large batch may fire several events. The running sums move
        with each slide: admitted tuples are added, expired ones subtracted.
        With ``event_rows`` false the events carry no copy of the active set.
        """
        w = self.window(window)
        self._check_window_scope(w, accessor, round, write=True)
        tuples = list(tuples)
        for t in tuples:
            w.check_row(t)
        expired = undo.record_window(w)
        w.staged.extend(tuples)

        size, slide = w.spec.size, w.spec.slide
        active, staged, sums = w.active, w.staged, w.sums
        events: list[FullWindowEvent] = []
        while True:
            if not w.full_seen:
                if len(active) + len(staged) < size:
                    break
                admitted = staged[: size - len(active)]
                gone: list[Tuple] = []
                w.full_seen = True
            else:
                if len(staged) < slide:
                    break
                admitted = staged[:slide]
                gone = active[:slide]
                del active[:slide]
                expired += gone
            del staged[: len(admitted)]
            active += admitted
            for name, ci in w.int_cols:
                total = sums[name]
                for t in admitted:
                    total += t.values[ci]
                for t in gone:
                    total -= t.values[ci]
                sums[name] = total
            rows = tuple(active) if event_rows else None
            events.append(FullWindowEvent(w.name, w.events_emitted, rows, dict(sums)))
            w.events_emitted += 1
        return events

    # --- stream upkeep ---

    def next_tuple_ids(self, stream: str, count: int, undo: UndoBuffer) -> range:
        s = self.stream(stream)
        undo.record_counter(s)
        first = s.next_tuple_id
        s.next_tuple_id += count
        return range(first, first + count)

    def garbage_collect(self, stream: str, batch_id: int) -> int:
        """Drop every tuple of a consumed batch. Idempotent, not undoable."""
        return len(self.stream(stream).batches.pop(batch_id, ()))

    def delete_batch(self, stream: str, batch_id: int, undo: UndoBuffer) -> int:
        """Undoable batch removal, for procedure bodies that manage stream
        cleanup themselves instead of relying on automatic collection."""
        s = self.stream(stream)
        removed = len(s.batches.get(batch_id, ()))
        if removed:
            undo.record_batch(s, batch_id)
            s.put_batch(batch_id, ())
        return removed

    # --- comparison helpers ---

    def content_signature(self) -> dict:
        """Canonical, order-insensitive-for-public-tables view of all data.

        Used by tests and the weak-recovery equivalence check; stream and
        window tables keep their order because order is part of their state.
        """
        sig: dict = {}
        for name in sorted(self.tables):
            tab = self.tables[name]
            if isinstance(tab, PublicTable):
                sig[name] = ("public", tuple(sorted(t.values for t in tab.rows)))
            elif isinstance(tab, StreamTable):
                sig[name] = (
                    "stream",
                    tuple((t.batch_id, t.tuple_id, t.ts, t.values) for t in tab.rows),
                )
            else:
                sig[name] = (
                    "window",
                    tuple(t.values for t in tab.active),
                    tuple(t.values for t in tab.staged),
                    tab.full_seen,
                )
        return sig
