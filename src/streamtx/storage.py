"""In-memory table store: public tables, stream tables, window tables.

All mutating calls take an UndoBuffer so an aborting transaction can restore
every touched table bit-exactly, index buckets in their order included. Each
public-table operation records one undo entry: an insert that it appended,
a delete the table's old row list, and a whole-table clear its old buckets
too, so rollback swaps them back instead of putting rows back one by one.
``Store.insert``, ``select_where`` and ``delete_where`` find their table
with one lookup and branch on its kind only for a stream or a window. A
predicate (``Pred``, an immutable named tuple) finds its column's position
and allowed value types in a map its table builds once (``pred_cols``); an
``==`` compares inline, with no call per row, and a delete splits the rows
it keeps from those it takes in one pass. The store is
single-threaded per partition; nothing here locks, and nothing here checks
who may touch a table: the execution context (``executor.TEContext``) keeps
a window to its owner.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import (
    BadDefinition,
    DuplicateName,
    TypeMismatch,
    UnknownColumn,
    UnknownTable,
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

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _is_int64(v) -> bool:
    return type(v) is int and INT64_MIN <= v <= INT64_MAX


@functools.cache
def _compile_fits(types: tuple[type, ...]) -> Callable[[Tuple], bool]:
    """``fits(t)``: whether row ``t`` keeps the value rule for columns of
    these value types. Compiled on first use into one expression, as
    ``codec.row_codec`` compiles its encoders: the type tests come first,
    so each range and length test sees the type it expects."""
    cols = [f"v{i}" for i in range(len(types))]
    head = ["tid", "bid", "ts"]
    tests = [f"type({v}) is {k.__name__}" for v, k in zip(cols, types)]
    tests += [f"type({v}) is int" for v in head]
    ints = head + [v for v, k in zip(cols, types) if k is int]
    tests += [f"{INT64_MIN} <= {v} <= {INT64_MAX}" for v in ints]
    tests += [
        f"len({v}.encode()) <= {MAX_TEXT_BYTES}"
        for v, k in zip(cols, types)
        if k is str
    ]
    values = "".join(f"{v}, " for v in cols)
    source = f"""
def fits(t):
    try:
        ({values}), tid, bid, ts = t
        return {" and ".join(tests)}
    except ValueError:  # another arity, or text that is not UTF-8
        return False
"""
    env: dict = {}
    exec(source, env)
    return env["fits"]


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


class _PredFields(NamedTuple):
    column: str
    op: str
    value: Value


class Pred(_PredFields):
    """Single-column comparison predicate: an immutable named tuple, so it
    compares, hashes and pickles as the 3-tuple of its fields. Building
    one checks its operator, through ``_make`` and ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, column: str, op: str, value: Value):
        if op not in _OPS:
            raise BadDefinition(f"unknown comparison operator {op!r}")
        return tuple.__new__(cls, (column, op, value))

    @classmethod
    def _make(cls, iterable) -> "Pred":
        return cls(*iterable)


class FullWindowEvent(NamedTuple):
    """Emitted when a window completes a slide: the new active contents and
    the running sum of each int column over them, as they stood at this
    slide (one insert may fire several events before any trigger runs).

    ``tuples`` is None when the window's events carry no rows
    (``WindowTable.events_carry_rows``): a statement program that reads
    only the sums needs no copy of the active set, and an event always
    holds exactly ``size`` tuples.
    """

    window: str
    index: int
    tuples: Optional[tuple[Tuple, ...]]
    sums: dict[str, int]


class _BaseTable:
    kind = "?"
    # see ``pred_cols``: built on the table's first predicate
    _pred_cols: Optional[dict[str, tuple[int, tuple[type, ...]]]] = None

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self._col_index = {c.name: i for i, c in enumerate(schema)}
        # each column's value type: the codec compiles one row encoding, and
        # check_row one test, per distinct tuple of them
        self.types = tuple(PY_TYPES[c.type] for c in schema)
        self._fits: Optional[Callable[[Tuple], bool]] = None  # on first use

    def col(self, name: str) -> int:
        try:
            return self._col_index[name]
        except KeyError:
            raise UnknownColumn(f"{self.name} has no column {name}") from None

    def check_row(self, t: Tuple) -> None:
        """The one value rule: raise TypeMismatch unless ``t`` is a row this
        table, its snapshot and the batch codec can all hold. Its values
        have the columns' types (a bool is no int, an int no float), its
        ints and its head (``tuple_id``, ``batch_id``, ``ts``) are int64
        ints, and its text encodes as UTF-8 in at most MAX_TEXT_BYTES bytes."""
        fits = self._fits
        if fits is None:
            fits = self._fits = _compile_fits(self.types)
        if not fits(t):
            self._reject(t)

    def check_rows(self, rows: Sequence[Tuple]) -> None:
        """``check_row`` for each of ``rows``, in one call."""
        fits = self._fits
        if fits is None or not all(map(fits, rows)):
            for t in rows:
                self.check_row(t)

    def _reject(self, t: Tuple) -> None:
        """Raise for the first fault of a bad row: its head, then its
        values in schema order."""
        for field, v in zip(("tuple_id", "batch_id", "ts"), t[1:]):
            if not _is_int64(v):
                raise TypeMismatch(f"{self.name}: {field} {v!r} is not an int64 int")
        values = t.values
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
            if c.type is ScalarType.INT and not _is_int64(v):
                raise TypeMismatch(f"{self.name}.{c.name}: {v} is outside int64")
            if c.type is ScalarType.TEXT:
                try:
                    n = len(v.encode())
                except UnicodeEncodeError:  # a lone surrogate
                    raise TypeMismatch(
                        f"{self.name}.{c.name}: text is not valid UTF-8"
                    ) from None
                if n > MAX_TEXT_BYTES:
                    raise TypeMismatch(f"{self.name}.{c.name}: text exceeds 64 bytes")


class PublicTable(_BaseTable):
    """Unordered multiset of rows with optional hash indexes. Each bucket
    lists its rows in table-row order; ``index_cols`` holds each indexed
    column with its position, resolved once."""

    kind = "public"

    def __init__(self, name: str, schema: Schema, indexed: Iterable[str] = ()):
        super().__init__(name, schema)
        self.rows: list[Tuple] = []
        self.index_cols = tuple((c, self.col(c)) for c in dict.fromkeys(indexed))
        self.indexes: dict[str, dict[Value, list[Tuple]]] = {
            c: {} for c, _ in self.index_cols
        }

    def _index_add(self, t: Tuple) -> None:
        for cname, ci in self.index_cols:
            self.indexes[cname].setdefault(t.values[ci], []).append(t)


class StreamTable(_BaseTable):
    """Time-varying table holding not-yet-consumed atomic batches in order.

    Append-only inside a transaction: a write only appends, to a new batch
    or to the newest one, and a batch leaves only through
    ``Store.garbage_collect`` or when the append that wrote it rolls back.
    """

    kind = "stream"

    def __init__(self, name: str, schema: Schema):
        super().__init__(name, schema)
        # batch id -> its tuples; ids ascend in insertion order and no batch
        # is empty, so a batch is loaded, consumed and undone as one entry
        self.batches: dict[int, tuple[Tuple, ...]] = {}
        self.next_tuple_id = 1
        # highest round its consumer's transaction ended, by commit or
        # abort; a border takes its rounds in order, so recovery re-submits
        # exactly the cached input batches above it
        self.last_consumed_batch = 0

    @property
    def rows(self) -> list[Tuple]:
        """Every held tuple in stream order (a read-only copy)."""
        return [t for b in self.batches.values() for t in b]

    def pending_batches(self) -> list[int]:
        return list(self.batches)

    def batch_tuples(self, batch_id: int) -> list[Tuple]:
        """A copy of batch ``batch_id``'s tuples, empty when the stream
        holds none. No engine path calls it: an execution reads its input
        from ``batches`` directly. It stays because the benchmark's tracer
        wraps it by name, until that tracer reads public API only."""
        return list(self.batches.get(batch_id, ()))


class WindowTable(_BaseTable):
    """Sliding window with staged (invisible) and active tuple sets.

    ``sums`` keeps the exact sum of each int column over ``active``, updated
    as tuples are admitted and expire, so count, sum and avg of a full window
    cost O(1) per event. It is derived state: snapshots leave it out and
    ``recompute_sums`` rebuilds it. ``events_carry_rows`` starts true; an
    engine clears it unless the window's statement program reads rows.
    """

    kind = "window"

    def __init__(self, spec: WindowSpec, schema: Schema):
        super().__init__(spec.name, schema)
        self.spec = spec
        self.active: list[Tuple] = []
        self.staged: list[Tuple] = []
        self.full_seen = False
        self.events_emitted = 0
        self.events_carry_rows = True
        self.int_cols = tuple(
            (c.name, i) for i, c in enumerate(schema) if c.type is ScalarType.INT
        )
        self.recompute_sums()

    def recompute_sums(self) -> None:
        self.sums = {
            name: sum(t.values[ci] for t in self.active) for name, ci in self.int_cols
        }


AnyTable = PublicTable | StreamTable | WindowTable


class UndoBuffer(list):
    """Inverse-operation log for one transaction execution: a list of
    entries, one per undoable write, appended by the store's writers.

    Applying ``rollback`` replays the inverses newest-first, which restores
    each touched table to its pre-transaction state exactly. The entries:

    - ``("ins", table)``: a row appended to a public table; newest-first,
      it is then the last row of the table and of each of its buckets.
    - ``("del", table, rows, indexes, spots)``: a public table's row list
      and index dicts before a delete put new ones in their place; a
      delete that edits the buckets in place lists each row it took out of
      one as (bucket dict, key, position, row), in the order it took them.
    - ``("bat", stream, batch_id, tuples)``: a stream's newest batch before
      an append extended it, or ``()`` when the append created it; streams
      take no other undoable write.
    - ``("ctr", stream, next_tuple_id)``: a stream's id counter before ids
      were stamped.
    - ``("win", window, ...)``: a window before an insert slid it
      (``record_window``).
    """

    __slots__ = ()

    def record_window(self, w: WindowTable) -> list[Tuple]:
        """Remember a window before an insert slides it, without copying its
        active set. Returns the list the insert appends each expired tuple
        to; rollback rebuilds the window from it."""
        expired: list[Tuple] = []
        self.append(
            (
                "win", w, expired, len(w.active), list(w.staged),
                w.full_seen, w.events_emitted, dict(w.sums),
            )
        )
        return expired

    def rollback(self) -> None:
        for entry in reversed(self):
            tag = entry[0]
            if tag == "ins":
                table = entry[1]
                t = table.rows.pop()
                for cname, ci in table.index_cols:
                    idx, key = table.indexes[cname], t.values[ci]
                    bucket = idx[key]
                    bucket.pop()
                    if not bucket:
                        del idx[key]
            elif tag == "del":
                _, table, rows, indexes, spots = entry
                table.rows = rows
                table.indexes = indexes
                for idx, key, pos, t in reversed(spots):
                    idx.setdefault(key, []).insert(pos, t)
            elif tag == "bat":
                _, s, batch_id, tuples = entry
                if tuples:
                    s.batches[batch_id] = tuples
                else:
                    del s.batches[batch_id]
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
        self.clear()


def pred_cols(tab: _BaseTable) -> dict[str, tuple[int, tuple[type, ...]]]:
    """``tab``'s map from each column to its position and the value types a
    predicate on it may compare with: text with ``str``, int and float with
    ``int`` or ``float``. Built on the table's first predicate; select and
    delete read it inline, and call ``pred_column`` only to raise."""
    cols = tab._pred_cols
    if cols is None:
        cols = tab._pred_cols = {
            c.name: (i, (str,) if c.type is ScalarType.TEXT else (int, float))
            for i, c in enumerate(tab.schema)
        }
    return cols


def pred_column(tab: _BaseTable, pred: Pred) -> tuple[int, Value]:
    """The position of ``pred``'s column in ``tab`` and the value it
    compares with, checked against ``pred_cols``."""
    spot = pred_cols(tab).get(pred.column)
    if spot is None:
        tab.col(pred.column)  # raises UnknownColumn
    ci, kinds = spot
    if type(pred.value) not in kinds:
        col = tab.schema[ci]
        raise TypeMismatch(
            f"{tab.name}.{col.name} is {col.type.value}; "
            f"cannot compare it with {pred.value!r}"
        )
    return ci, pred.value


def row_matcher(tab: _BaseTable, pred: Pred) -> Callable[[Tuple], bool]:
    """Whether a row of ``tab`` satisfies ``pred`` (see ``pred_column``)."""
    ci, want = pred_column(tab, pred)
    fn = _OPS[pred.op]
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


class Store:
    """The per-partition table catalog plus all data operations."""

    def __init__(self):
        self.tables: dict[str, AnyTable] = {}

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
        if type(t) is not StreamTable:
            self.table(name)  # raises for a missing name
            raise UnknownTable(f"{name} is not a stream table")
        return t

    def window(self, name: str) -> WindowTable:
        t = self.tables.get(name)
        if type(t) is not WindowTable:
            self.table(name)  # raises for a missing name
            raise UnknownTable(f"{name} is not a window table")
        return t

    # --- row operations ---

    def insert(
        self, table: str, t: Tuple, undo: UndoBuffer
    ) -> Optional[list[FullWindowEvent]]:
        """Insert one row; inserting into a window may slide it. A stream
        takes whole batches, through ``insert_batch``."""
        tab = self.tables.get(table)
        if type(tab) is not PublicTable:
            if isinstance(tab, WindowTable):
                return self.window_insert(table, [t], undo)
            if isinstance(tab, StreamTable):
                raise BadDefinition(f"{table} is a stream: append a batch to it")
            self.table(table)  # raises UnknownTable
        fits = tab._fits
        if fits is None or not fits(t):
            tab.check_row(t)
        tab.rows.append(t)
        undo.append(("ins", tab))
        if tab.index_cols:
            tab._index_add(t)
        return None

    def insert_batch(
        self, stream: str, batch: AtomicBatch, undo: UndoBuffer, *, checked=False
    ) -> None:
        """Append a batch, or extend the newest batch when it has the same
        id. ``checked`` says the caller has already held every tuple to
        this stream's value rule, so the append skips ``check_row``."""
        s = self.tables.get(stream)
        if type(s) is not StreamTable:
            s = self.stream(stream)  # raises
        batch_id, tuples = batch
        batches = s.batches
        if batches:
            last = next(reversed(batches.values()))[-1]
            if last.batch_id > batch_id or (
                last.batch_id == batch_id and last.tuple_id >= tuples[0].tuple_id
            ):
                raise BadDefinition(
                    f"stream {stream}: batch {batch_id} arrives out of order"
                )
        if not checked:
            s.check_rows(tuples)
        # the batch before this append, or none: rollback puts it back
        old = batches.get(batch_id, ())
        undo.append(("bat", s, batch_id, old))
        batches[batch_id] = old + tuples

    def select_where(self, table: str, pred: Optional[Pred] = None) -> list[Tuple]:
        """The rows ``pred`` matches (every row for None): of a public
        table, a stream's pending batches, or a window's active set (its
        staged tuples are never visible). An ``==`` on an indexed column
        reads its bucket."""
        tab = self.tables.get(table)
        if type(tab) is PublicTable:
            rows, indexes = tab.rows, tab.indexes
        elif isinstance(tab, WindowTable):
            rows, indexes = tab.active, {}
        elif isinstance(tab, StreamTable):
            rows, indexes = tab.rows, {}
        else:
            self.table(table)  # raises UnknownTable
        if pred is None:
            return list(rows)
        column, op, want = pred
        spot = (tab._pred_cols or pred_cols(tab)).get(column)
        if spot is None or type(want) not in spot[1]:
            pred_column(tab, pred)  # raises UnknownColumn or TypeMismatch
        ci = spot[0]
        if op != "==":
            fn = _OPS[op]
            return [t for t in rows if fn(t.values[ci], want)]
        if column in indexes:
            # a NaN equals nothing, though a dict finds a key by identity
            return list(indexes[column].get(want, ())) if want == want else []
        return [t for t in rows if t.values[ci] == want]

    def delete_where(self, table: str, pred: Optional[Pred], undo: UndoBuffer) -> int:
        """Delete the public-table rows ``pred`` matches (every row for None).
        Streams and windows take no deletes: a batch leaves a stream through
        garbage collection, a row leaves a window by sliding.

        Either way the table gets a new row list and the undo entry keeps
        the old one. Clearing a table also gives it new, empty buckets; a
        predicate takes each removed row out of its buckets and records
        where it stood."""
        tab = self.tables.get(table)
        if type(tab) is not PublicTable:
            if isinstance(tab, WindowTable):
                raise BadDefinition(
                    f"window {table}: rows expire by sliding, not deletion"
                )
            if isinstance(tab, StreamTable):
                raise BadDefinition(
                    f"stream {table}: batches leave by garbage collection, "
                    "not deletion"
                )
            self.table(table)  # raises UnknownTable
        rows = tab.rows
        if pred is None:
            undo.append(("del", tab, rows, tab.indexes, ()))
            tab.rows = []
            if tab.index_cols:
                tab.indexes = {cname: {} for cname, _ in tab.index_cols}
            return len(rows)
        column, op, want = pred
        spot = (tab._pred_cols or pred_cols(tab)).get(column)
        if spot is None or type(want) not in spot[1]:
            pred_column(tab, pred)  # raises UnknownColumn or TypeMismatch
        ci = spot[0]
        gone: list[Tuple] = []
        kept: list[Tuple] = []
        # one pass splits the rows
        if op == "==":
            for t in rows:
                if t.values[ci] == want:
                    gone.append(t)
                else:
                    kept.append(t)
        else:
            fn = _OPS[op]
            for t in rows:
                if fn(t.values[ci], want):
                    gone.append(t)
                else:
                    kept.append(t)
        if not gone:
            return 0
        spots = []
        for cname, ci in tab.index_cols:
            idx = tab.indexes[cname]
            for t in gone:
                key = t.values[ci]
                bucket = idx[key]
                pos = bucket.index(t)
                del bucket[pos]
                spots.append((idx, key, pos, t))
                if not bucket:
                    del idx[key]
        undo.append(("del", tab, rows, tab.indexes, spots))
        tab.rows = kept
        return len(gone)

    def aggregate(
        self,
        table: str,
        op: str,
        column: Optional[str] = None,
        group_by: Optional[str] = None,
        pred: Optional[Pred] = None,
    ) -> list[tuple]:
        """count/sum/avg/min/max, optionally grouped.

        Returns [(value,)] or [(group, value), ...] sorted by group; an empty
        input yields no rows except plain count, which yields [(0,)].
        """
        tab = self.table(table)
        rows = self.select_where(table, pred)
        return aggregate_rows(rows, tab, op, column, group_by)

    # --- windows ---

    def window_insert(
        self,
        window: str,
        tuples: Iterable[Tuple],
        undo: UndoBuffer,
        *,
        checked=False,
    ) -> list[FullWindowEvent]:
        """Stage new tuples, then make every slide that is due, in one pass.

        Before the first full window, arrivals accumulate in staging; the
        first event fires once ``size`` tuples exist. Afterwards every
        ``slide`` staged tuples expire the oldest actives and fire an event.
        A single large batch may fire several events: the insert admits
        their tuples into ``active`` at once, moves the running sums from
        each slide boundary to the next (the tuples a slide admits are
        added, those it expires subtracted), and takes every expired tuple
        out at once. Without ``events_carry_rows`` events carry no copy of
        the active set. ``checked`` skips ``check_row``, as in
        ``insert_batch``.
        """
        w = self.tables.get(window)
        if type(w) is not WindowTable:
            w = self.window(window)  # raises
        if type(tuples) is not list:
            tuples = list(tuples)
        if not checked:
            w.check_rows(tuples)
        expired = undo.record_window(w)
        active, staged = w.active, w.staged
        staged += tuples
        size, slide = w.spec.size, w.spec.slide
        held = len(active)
        # where the first event's window starts in active + admitted, and
        # how many events this insert fires
        if w.full_seen:
            first, count = slide, len(staged) // slide
            if not count:
                return []
        elif held + len(staged) >= size:
            first, count = 0, (held + len(staged) - size) // slide + 1
            w.full_seen = True
        else:
            return []
        out = first + (count - 1) * slide  # the tuples before it expire
        admitted = out + size - held
        active += staged[:admitted]
        del staged[:admitted]

        sums, int_cols = w.sums, w.int_cols
        name, index = w.name, w.events_emitted
        carry = w.events_carry_rows
        new = tuple.__new__
        events: list[FullWindowEvent] = []
        was_lo, was_hi = 0, held  # the window the sums now cover
        for lo in range(first, out + 1, slide):
            hi = lo + size
            for col, ci in int_cols:
                total = sums[col]
                for t in active[was_hi:hi]:
                    total += t.values[ci]
                for t in active[was_lo:lo]:
                    total -= t.values[ci]
                sums[col] = total
            rows = tuple(active[lo:hi]) if carry else None
            events.append(new(FullWindowEvent, (name, index, rows, dict(sums))))
            index += 1
            was_lo, was_hi = lo, hi
        w.events_emitted = index
        if out:
            expired += active[:out]
            del active[:out]
        return events

    # --- stream upkeep ---

    def next_tuple_ids(self, stream: str, count: int, undo: UndoBuffer) -> range:
        s = self.tables.get(stream)
        if type(s) is not StreamTable:
            s = self.stream(stream)  # raises
        first = s.next_tuple_id
        undo.append(("ctr", s, first))
        s.next_tuple_id = first + count
        return range(first, first + count)

    def garbage_collect(self, stream: str, batch_id: int) -> int:
        """Drop every tuple of a consumed batch. Idempotent, not undoable."""
        s = self.tables.get(stream)
        if type(s) is not StreamTable:
            s = self.stream(stream)  # raises
        return len(s.batches.pop(batch_id, ()))

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
