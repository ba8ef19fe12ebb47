import hashlib
import operator
import pickle
import random

import pytest

from streamtx.config import format_pred, parse_pred
from streamtx.errors import (
    BadDefinition,
    TypeMismatch,
    UnknownColumn,
    UnknownTable,
)
from streamtx.model import AtomicBatch, Tuple, WindowSpec
from streamtx.snapshot import restore_state, snapshot_state
from streamtx.storage import (
    FullWindowEvent,
    Pred,
    PublicTable,
    Store,
    StreamTable,
    UndoBuffer,
    make_schema,
)

from oracles import group_tally, sliding_window_events, window_insert_per_slide

VAL = make_schema(("value", "int"))


def make_batch(batch_id, values, first_tuple_id=None, ts=0):
    first = first_tuple_id if first_tuple_id is not None else (batch_id - 1) * 100 + 1
    return AtomicBatch(
        batch_id,
        tuple(
            Tuple((v,), tuple_id=first + i, batch_id=batch_id, ts=ts)
            for i, v in enumerate(values)
        ),
    )


@pytest.fixture
def store():
    return Store()


def test_insert_into_empty_public_table(store):
    store.create_public("t", VAL)
    undo = UndoBuffer()
    store.insert("t", Tuple((1,)), undo)
    assert len(store.table("t").rows) == 1


def test_duplicate_key_multiset(store):
    store.create_public("t", VAL, indexed=["value"])
    undo = UndoBuffer()
    store.insert("t", Tuple((5,)), undo)
    store.insert("t", Tuple((5,)), undo)
    assert len(store.select_where("t", Pred("value", "==", 5))) == 2


def test_unknown_table(store):
    with pytest.raises(UnknownTable):
        store.select_where("missing")


def test_type_mismatch(store):
    store.create_public("t", VAL)
    undo = UndoBuffer()
    with pytest.raises(TypeMismatch):
        store.insert("t", Tuple(("text",)), undo)
    with pytest.raises(TypeMismatch):
        store.insert("t", Tuple((1, 2)), undo)


def test_text_length_limit(store):
    store.create_public("t", make_schema(("name", "text")))
    undo = UndoBuffer()
    with pytest.raises(TypeMismatch):
        store.insert("t", Tuple(("x" * 65,)), undo)
    store.insert("t", Tuple(("x" * 64,)), undo)


ROW_COLS = make_schema(("i", "int"), ("f", "float"), ("t", "text"))


def create_kind(store, kind, name):
    if kind == "public":
        store.create_public(name, ROW_COLS)
    elif kind == "stream":
        store.create_stream(name, ROW_COLS)
    else:
        store.create_window(WindowSpec(name, 2, 1, "sp"), ROW_COLS)


@pytest.mark.parametrize("kind", ["public", "stream", "window"])
@pytest.mark.parametrize(
    "values, message",
    [
        ((1, 2.0), "x: expected 3 values, got 2"),
        ((True, 2.0, "a"), "x.i: expected int, got bool"),
        ((1, 2, "a"), "x.f: expected float, got int"),
        ((1, 2.0, "\u00e9" * 32 + "a"), "x.t: text exceeds 64 bytes"),
        ((2**63, 2.0, "a"), "x.i: 9223372036854775808 is outside int64"),
        ((-(2**63) - 1, 2.0, "a"), "x.i: -9223372036854775809 is outside int64"),
        ((1, 2.0, "\ud800"), "x.t: text is not valid UTF-8"),
    ],
    ids=[
        "arity", "bool_in_int", "int_in_float", "text_65_utf8_bytes",
        "int_over_int64", "int_under_int64", "lone_surrogate",
    ],
)
def test_check_row_rejects_with_message(store, kind, values, message):
    create_kind(store, kind, "x")
    undo = UndoBuffer()

    def insert(t):
        if kind == "stream":  # a stream takes whole batches
            store.insert_batch("x", AtomicBatch(0, (t,)), undo)
        else:
            store.insert("x", t, undo)

    with pytest.raises(TypeMismatch) as err:
        insert(Tuple(values))
    assert str(err.value) == message
    insert(Tuple((1, 2.0, "\u00e9" * 32)))  # 64 bytes fit


@pytest.mark.parametrize("kind", ["public", "stream", "window"])
@pytest.mark.parametrize(
    "head, message",
    [
        ({"ts": 1.5}, "x: ts 1.5 is not an int64 int"),
        ({"ts": True}, "x: ts True is not an int64 int"),
        ({"tuple_id": 2**63}, "x: tuple_id 9223372036854775808 is not an int64 int"),
        ({"batch_id": -(2**63) - 1},
         "x: batch_id -9223372036854775809 is not an int64 int"),
    ],
    ids=["ts_float", "ts_bool", "tuple_id_over", "batch_id_under"],
)
def test_check_row_rejects_bad_head(store, kind, head, message):
    # the head is part of every stored row, snapshots included
    create_kind(store, kind, "x")
    t = Tuple((1, 2.0, "a"), **head)
    with pytest.raises(TypeMismatch) as err:
        if kind == "stream":  # _make: the batch keeps the bad id as its own
            store.insert_batch("x", AtomicBatch._make((t.batch_id, (t,))), UndoBuffer())
        else:
            store.insert("x", t, UndoBuffer())
    assert str(err.value) == message


def test_row_insert_into_stream_rejected(store):
    store.create_stream("s", VAL)
    with pytest.raises(BadDefinition):
        store.insert("s", Tuple((1,)), UndoBuffer())
    assert store.stream("s").rows == []


def test_window_select_hides_staged(store):
    store.create_window(WindowSpec("w", 2, 1, "sp"), VAL)
    undo = UndoBuffer()
    store.window_insert("w", [Tuple((1,)), Tuple((2,))], undo)
    store.window_insert("w", [Tuple((3,))], undo)
    # window slid to {2,3}; nothing staged now, so add one more staged
    w = store.window("w")
    assert [t.values[0] for t in w.active] == [2, 3]
    store.create_window(WindowSpec("w2", 3, 2, "sp"), VAL)
    store.window_insert("w2", [Tuple((i,)) for i in range(1, 5)], undo)
    w2 = store.window("w2")
    assert len(w2.staged) == 1
    visible = store.select_where("w2")
    assert [t.values[0] for t in visible] == [1, 2, 3]


def test_select_empty_table(store):
    store.create_public("t", VAL)
    assert store.select_where("t") == []


def test_indexed_equality_matches_scan(store):
    rng = random.Random(42)
    store.create_public("ti", make_schema(("k", "int"), ("v", "int")), indexed=["k"])
    store.create_public("ts", make_schema(("k", "int"), ("v", "int")))
    undo = UndoBuffer()
    for i in range(1000):
        row = Tuple((rng.randint(0, 50), i))
        store.insert("ti", row, undo)
        store.insert("ts", row, undo)
    for k in range(-1, 52):
        via_index = store.select_where("ti", Pred("k", "==", k))
        via_scan = store.select_where("ts", Pred("k", "==", k))
        assert sorted(t.values for t in via_index) == sorted(
            t.values for t in via_scan
        )


@pytest.mark.parametrize(
    "pred",
    [
        Pred("k", "<", "9"),
        Pred("k", "==", "9"),
        Pred("name", ">", 3),
        Pred("k", "==", True),
        Pred("name", "==", 1.5),
        Pred("x", ">=", "1"),
        Pred("x", "==", None),
    ],
    ids=[
        "text_on_int", "text_on_indexed_int", "int_on_text",
        "bool_on_indexed_int", "float_on_text", "text_on_float", "none_on_float",
    ],
)
def test_ill_typed_predicate_rejected_before_scan(store, pred):
    store.create_public(
        "t", make_schema(("k", "int"), ("name", "text"), ("x", "float")),
        indexed=["k"],
    )
    undo = UndoBuffer()
    store.insert("t", Tuple((9, "a", 1.0)), undo)
    with pytest.raises(TypeMismatch):
        store.select_where("t", pred)
    with pytest.raises(TypeMismatch):
        store.delete_where("t", pred, undo)
    assert len(store.table("t").rows) == 1


class NoScan(list):
    """A row list that fails the test when anything iterates over it."""

    def __iter__(self):
        raise AssertionError("the rows were scanned")


@pytest.mark.parametrize("op", ["==", "<"])
@pytest.mark.parametrize("indexed", [(), ("k",)], ids=["unindexed", "indexed"])
@pytest.mark.parametrize("n_rows", [0, 3])
@pytest.mark.parametrize("warm", [False, True], ids=["first_pred", "later_pred"])
def test_unknown_column_rejected_before_scan(store, op, indexed, n_rows, warm):
    """A predicate on a column the table lacks raises ``UnknownColumn``
    before a select reads a row or a delete takes one, on the table's first
    predicate and once it has resolved others."""
    tab = store.create_public("t", make_schema(("k", "int"), ("v", "text")), indexed)
    setup = UndoBuffer()
    for i in range(n_rows):
        store.insert("t", Tuple((i, "a")), setup)
    if warm:
        assert len(store.select_where("t", Pred("k", ">=", 0))) == n_rows
    rows = list(tab.rows)
    buckets = index_buckets(store)
    tab.rows = NoScan(rows)
    undo = UndoBuffer()
    pred = Pred("nope", op, 1)
    with pytest.raises(UnknownColumn, match="^t has no column nope$"):
        store.select_where("t", pred)
    with pytest.raises(UnknownColumn, match="^t has no column nope$"):
        store.delete_where("t", pred, undo)
    assert undo == []
    assert tab.rows == rows
    assert index_buckets(store) == buckets


@pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
def test_pred_is_an_immutable_checked_named_tuple(op):
    """A ``Pred`` is a named tuple of (column, op, value): equal predicates
    compare and hash alike, an int equal to a float included, it equals
    the plain 3-tuple of its fields, refuses assignment, round-trips
    through pickle and the config syntax, and no way of building one,
    ``_make`` and ``_replace`` included, takes an unknown operator."""
    p = Pred("v", op, 1)
    assert p == Pred("v", op, 1.0) and hash(p) == hash(Pred("v", op, 1.0))
    assert p == ("v", op, 1) and hash(p) == hash(("v", op, 1))
    assert p != Pred("v", op, 2) and p != Pred("w", op, 1)
    assert (p.column, p.op, p.value) == ("v", op, 1)
    for field in ("column", "op", "value"):
        with pytest.raises(AttributeError):
            setattr(p, field, "x")
    assert Pred._make(("v", op, 1)) == p
    assert p._replace(value=2) == Pred("v", op, 2)
    for bad in ("=", "<>", "", None, f" {op}"):
        for build in (
            lambda: Pred("v", bad, 1),
            lambda: Pred._make(("v", bad, 1)),
            lambda: p._replace(op=bad),
        ):
            with pytest.raises(BadDefinition, match="unknown comparison operator"):
                build()
    for value in (3, -2, 1.5, "C1"):
        q = Pred("v", op, value)
        back = pickle.loads(pickle.dumps(q))
        assert back == q and type(back) is Pred
        assert parse_pred(format_pred(q)) == q


OPERATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def test_predicates_match_operator_filter():
    """``select_where`` and ``delete_where`` agree with a plain
    ``operator`` filter for every operator, on int, float and text columns,
    indexed or not: an int equals an equal float, -0.0 equals 0.0, and a
    NaN equals nothing, not even the same NaN object. A rollback brings
    back the rows, and each bucket, in their order."""
    rng = random.Random(7)
    nan = float("nan")
    ints = [-2, -1, 0, 1, 2]
    floats = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, nan, float("inf")]
    texts = ["", "a", "b", "ab", "é"]
    probes = {
        "i": ints + [1.0, -0.0, 0.5, nan],
        "f": floats + [0, 1, -2, float("nan")],
        "s": texts + ["zz"],
    }
    for case in range(60):
        indexed = rng.choice([(), ("i",), ("f",), ("s",), ("i", "f", "s")])
        store = Store()
        store.create_public(
            "t", make_schema(("i", "int"), ("f", "float"), ("s", "text")), indexed
        )
        setup = UndoBuffer()
        for n in range(rng.randint(0, 25)):
            values = (rng.choice(ints), rng.choice(floats), rng.choice(texts))
            store.insert("t", Tuple(values, ts=n), setup)
        rows = list(store.table("t").rows)
        buckets = index_buckets(store)
        for ci, col in enumerate("ifs"):
            for op, fn in OPERATORS.items():
                for want in probes[col]:
                    pred = Pred(col, op, want)
                    hits = [t for t in rows if fn(t.values[ci], want)]
                    misses = [t for t in rows if not fn(t.values[ci], want)]
                    where = f"case {case}: {pred}"
                    assert store.select_where("t", pred) == hits, where
                    undo = UndoBuffer()
                    assert store.delete_where("t", pred, undo) == len(hits), where
                    assert store.table("t").rows == misses, where
                    assert_buckets_in_row_order(store)
                    undo.rollback()
                    assert store.table("t").rows == rows, where
                    assert index_buckets(store) == buckets, where


def test_delete_one_batch_keeps_other(store):
    """A stream takes no deletes; garbage collection drops one batch."""
    store.create_stream("s", VAL)
    undo = UndoBuffer()
    store.insert_batch("s", make_batch(3, [1, 2]), undo)
    store.insert_batch("s", make_batch(4, [3]), undo)
    for pred in (Pred("value", ">", 0), None):
        with pytest.raises(BadDefinition, match="garbage collection"):
            store.delete_where("s", pred, undo)
    assert store.stream("s").pending_batches() == [3, 4]
    assert store.garbage_collect("s", 3) == 2
    assert store.stream("s").pending_batches() == [4]


def test_delete_false_predicate(store):
    store.create_public("t", VAL)
    undo = UndoBuffer()
    store.insert("t", Tuple((1,)), undo)
    assert store.delete_where("t", Pred("value", ">", 99), undo) == 0


def test_out_of_order_batch_rejected(store):
    store.create_stream("s", VAL)
    undo = UndoBuffer()
    store.insert_batch("s", make_batch(2, [1]), undo)
    with pytest.raises(BadDefinition):
        store.insert_batch("s", make_batch(1, [2]), undo)


def test_aggregates(store):
    store.create_public("t", make_schema(("who", "text"), ("n", "int")))
    undo = UndoBuffer()
    assert store.aggregate("t", "count") == [(0,)]
    assert store.aggregate("t", "sum", "n") == []
    for who in ["A", "A", "B"]:
        store.insert("t", Tuple((who, 1)), undo)
    assert store.aggregate("t", "count") == [(3,)]
    assert store.aggregate("t", "count", group_by="who") == [("A", 2), ("B", 1)]
    store.create_public("nums", VAL)
    for v in [1, 2, 3]:
        store.insert("nums", Tuple((v,)), undo)
    assert store.aggregate("nums", "sum", "value") == [(6,)]
    assert store.aggregate("nums", "avg", "value") == [(2.0,)]
    assert store.aggregate("nums", "min", "value") == [(1,)]
    assert store.aggregate("nums", "max", "value") == [(3,)]
    with pytest.raises(TypeMismatch):
        store.aggregate("t", "sum", "who")
    with pytest.raises(UnknownColumn):
        store.aggregate("t", "sum", "missing")


def test_group_aggregate_matches_tally(store):
    rng = random.Random(3)
    store.create_public("votes", make_schema(("who", "text"),))
    undo = UndoBuffer()
    rows = [(rng.choice("ABCD"),) for _ in range(500)]
    for r in rows:
        store.insert("votes", Tuple(r), undo)
    got = dict(store.aggregate("votes", "count", group_by="who"))
    assert got == group_tally(rows, 0)


# --- window semantics against oracle ---


def test_window_size2_slide1(store):
    store.create_window(WindowSpec("w", 2, 1, "sp"), VAL)
    undo = UndoBuffer()
    events = []
    for v in [1, 2, 3]:
        events += store.window_insert("w", [Tuple((v,))], undo)
    got = [[t.values[0] for t in e.tuples] for e in events]
    assert got == [[1, 2], [2, 3]]


def test_window_tumbling(store):
    store.create_window(WindowSpec("w", 3, 3, "sp"), VAL)
    undo = UndoBuffer()
    events = []
    for v in range(1, 7):
        events += store.window_insert("w", [Tuple((v,))], undo)
    got = [[t.values[0] for t in e.tuples] for e in events]
    assert got == [[1, 2, 3], [4, 5, 6]]


def test_window_single_large_batch(store):
    store.create_window(WindowSpec("w", 4, 2, "sp"), VAL)
    undo = UndoBuffer()
    events = store.window_insert(
        "w", [Tuple((v,)) for v in [1, 2, 3, 4, 5]], undo
    )
    assert [[t.values[0] for t in e.tuples] for e in events] == [[1, 2, 3, 4]]
    assert [t.values[0] for t in store.window("w").staged] == [5]


def all_batchings(seq, max_pieces=None):
    if not seq:
        yield []
        return
    for cut in range(1, len(seq) + 1):
        head, tail = seq[:cut], seq[cut:]
        for rest in all_batchings(tail):
            yield [head] + rest


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_window_oracle_random_batchings(size):
    rng = random.Random(size)
    for slide in range(1, size + 1):
        for trial in range(30):
            n = rng.randint(0, 40)
            flat = list(range(1, n + 1))
            batches, i = [], 0
            while i < n:
                k = rng.randint(1, 5)
                batches.append(flat[i : i + k])
                i += k
            store = Store()
            store.create_window(WindowSpec("w", size, slide, "sp"), VAL)
            undo = UndoBuffer()
            events = []
            for piece in batches:
                events += store.window_insert(
                    "w", [Tuple((v,)) for v in piece], undo
                )
            got = [[t.values[0] for t in e.tuples] for e in events]
            assert got == sliding_window_events(flat, size, slide)
            w = store.window("w")
            if w.full_seen:
                assert len(w.staged) < slide
            assert len(w.active) <= size


WINDOW3 = make_schema(("a", "int"), ("b", "float"), ("c", "int"))


def window_state(w):
    """A window's fields, in the layout of ``window_insert_per_slide``."""
    return {
        "active": list(w.active),
        "staged": list(w.staged),
        "full_seen": w.full_seen,
        "events_emitted": w.events_emitted,
        "sums": dict(w.sums),
    }


def test_window_insert_matches_per_slide_reference():
    """``Store.window_insert`` against the per-slide loop of the oracles,
    over 500 seeded windows: the same events (index, rows and sums), the
    same window afterwards, and one undo entry whose expired tuples are the
    ones the loop pushed out, in order. A rolled-back insert leaves the
    window as it found it. Each window's second insert fills it and slides
    it in one go."""
    for seed in range(500):
        check_window_against_per_slide(seed)


def check_window_against_per_slide(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 12)
    slide = rng.randint(1, size)
    store = Store()
    w = store.create_window(WindowSpec("w", size, slide, "sp"), WINDOW3)
    w.events_carry_rows = rng.random() < 0.5
    want = window_state(w)
    lengths = [rng.randint(0, size - 1)]
    lengths.append(size - lengths[0] + slide + rng.randint(0, size))
    lengths += [rng.randint(0, 3 * size) for _ in range(rng.randint(1, 6))]
    for n in lengths:
        tuples = [
            Tuple((rng.randint(-50, 50), rng.uniform(-9.0, 9.0), rng.randint(0, 9)))
            for _ in range(n)
        ]
        before = window_state(w)
        undo = UndoBuffer()
        got = store.window_insert("w", tuples, undo)
        events, expired = window_insert_per_slide(
            want, tuples, size, slide, w.int_cols, w.events_carry_rows
        )
        assert all(type(ev) is FullWindowEvent for ev in got), seed
        assert [(ev.window, ev.index, ev.tuples, ev.sums) for ev in got] == [
            ("w", *ev) for ev in events
        ], seed
        assert window_state(w) == want, seed
        assert len(undo) == 1 and undo[0][0] == "win", seed
        assert undo[0][2] == expired, seed
        if rng.random() < 0.3:
            undo.rollback()
            assert window_state(w) == before, seed
            want = before


# --- undo completeness ---


def build_random_store(rng):
    store = Store()
    store.create_public("p", make_schema(("k", "int"), ("v", "int")), indexed=["k"])
    store.create_public("q", VAL)
    store.create_stream("s", VAL)
    store.create_window(WindowSpec("w", 4, 2, "sp"), VAL)
    undo = UndoBuffer()
    for i in range(rng.randint(0, 20)):
        store.insert("p", Tuple((rng.randint(0, 5), i)), undo)
    for _ in range(rng.randint(0, 5)):
        store.insert("q", Tuple((rng.randint(0, 9),)), undo)
    bid = 0
    for _ in range(rng.randint(0, 3)):
        bid += 1
        store.insert_batch(
            "s", make_batch(bid, [rng.randint(0, 9) for _ in range(rng.randint(1, 4))])
        , undo)
    store.window_insert(
        "w", [Tuple((v,)) for v in range(rng.randint(0, 6))], undo
    )
    return store


def index_buckets(store):
    """Every bucket of every public table's indexes, each in its order."""
    return {
        name: {
            cname: {k: list(b) for k, b in idx.items()}
            for cname, idx in tab.indexes.items()
        }
        for name, tab in store.tables.items()
        if isinstance(tab, PublicTable)
    }


def assert_buckets_in_row_order(store):
    """Each bucket lists exactly the table's rows with its key, in row
    order, and no bucket is empty."""
    for tab in store.tables.values():
        if not isinstance(tab, PublicTable):
            continue
        for cname, idx in tab.indexes.items():
            ci = tab.col(cname)
            expected = {}
            for t in tab.rows:
                expected.setdefault(t.values[ci], []).append(t)
            assert idx == expected, f"{tab.name}.{cname} buckets out of row order"


def empty_like(store):
    """A store with ``store``'s tables, all empty, to restore a snapshot into."""
    out = Store()
    for tab in store.tables.values():
        if isinstance(tab, PublicTable):
            out.create_public(tab.name, tab.schema, tab.indexes)
        elif isinstance(tab, StreamTable):
            out.create_stream(tab.name, tab.schema)
        else:
            out.create_window(tab.spec, tab.schema)
    return out


def window_fields(w):
    """A window's whole state, running sums included (snapshots omit them)."""
    return (
        list(w.active), list(w.staged), w.full_seen, w.events_emitted, dict(w.sums)
    )


def full_state(store):
    """Snapshot bytes, window ``w``'s whole state and every index bucket."""
    return snapshot_state(store), window_fields(store.window("w")), index_buckets(store)


def test_undo_restores_everything_bit_exact():
    """Random writes, then a rollback, restore every table bit-exactly and
    every index bucket in its order; after each write each bucket lists its
    rows in row order."""
    rng = random.Random(2024)
    ops = ("<", "<=", ">", ">=", "!=", "==")
    for case in range(1000):
        store = build_random_store(rng)
        assert_buckets_in_row_order(store)
        before = full_state(store)
        undo = UndoBuffer()
        first_bid = next_bid = (max(store.stream("s").pending_batches(), default=0)) + 1

        def fresh_batch(batch_id):
            ids = store.next_tuple_ids("s", 2, undo)
            return AtomicBatch(
                batch_id,
                tuple(
                    Tuple((rng.randint(0, 9),), tuple_id=i, batch_id=batch_id)
                    for i in ids
                ),
            )

        for _ in range(rng.randint(1, 12)):
            op = rng.randrange(10)
            if op == 0:
                store.insert("p", Tuple((rng.randint(0, 5), rng.randint(0, 99))), undo)
            elif op == 1:
                store.delete_where(
                    "p", Pred("k", "==", rng.randint(0, 5)), undo
                )
            elif op == 2:
                store.insert_batch("s", fresh_batch(next_bid), undo)
                next_bid += 1
            elif op == 3:
                store.window_insert(
                    "w",
                    [Tuple((rng.randint(0, 9),)) for _ in range(rng.randint(1, 5))],
                    undo,
                )
            elif op == 4 and next_bid > first_bid:
                # emit twice: a second write to the batch just written
                store.insert_batch("s", fresh_batch(next_bid - 1), undo)
            elif op == 5:
                # rows leave from the middle of their buckets
                pred = Pred("v", rng.choice(ops), rng.randint(0, 99))
                store.delete_where("p", pred, undo)
            elif op == 6:
                store.delete_where("p", None, undo)
            elif op == 7:
                store.insert("q", Tuple((rng.randint(0, 9),)), undo)
            elif op == 8:
                store.delete_where("q", None, undo)
            elif op == 9:
                store.delete_where("q", Pred("value", rng.choice(ops), 5), undo)
            assert_buckets_in_row_order(store)
        undo.rollback()
        assert full_state(store) == before, f"case {case} diverged"

    # one insert that fills a window three tuples short of full, then slides
    # it four times, so some of its own tuples expire again
    store = Store()
    store.create_window(WindowSpec("w", 4, 2, "sp"), VAL)
    w = store.window("w")
    store.window_insert("w", [Tuple((v,)) for v in (5, 6, 7)], UndoBuffer())
    before = snapshot_state(store), window_fields(w)
    undo = UndoBuffer()
    events = store.window_insert(
        "w", [Tuple((v,)) for v in range(10, 20)], undo
    )
    assert len(events) == 5 and len(w.staged) == 1 and w.sums == {"value": 66}
    undo.rollback()
    assert (snapshot_state(store), window_fields(w)) == before


def test_delete_then_rollback_bit_equal(store):
    store.create_public("t", VAL)
    setup = UndoBuffer()
    for v in [1, 2, 3, 4]:
        store.insert("t", Tuple((v,)), setup)
    before = snapshot_state(store)
    undo = UndoBuffer()
    store.delete_where("t", Pred("value", ">", 2), undo)
    undo.rollback()
    assert snapshot_state(store) == before


def test_unpredicated_delete_matches_always_true_predicate():
    """Deleting with no predicate removes the same rows, leaves the same
    state and rolls back to the same state, index buckets included, as a
    predicate every row meets. Its undo entry differs: a clear keeps the
    old row list and buckets whole."""

    def run(pred):
        store = Store()
        store.create_public("p", make_schema(("k", "int"), ("v", "int")), indexed=["k"])
        setup = UndoBuffer()
        for i in range(8):
            store.insert("p", Tuple((i % 3, i)), setup)
        before = snapshot_state(store), index_buckets(store)
        undo = UndoBuffer()
        removed = store.delete_where("p", pred and Pred("v", *pred), undo)
        assert store.select_where("p") == []
        assert store.table("p").indexes == {"k": {}}
        after_delete = snapshot_state(store)
        undo.rollback()
        after_rollback = snapshot_state(store), index_buckets(store)
        assert after_rollback == before
        return removed, after_delete, after_rollback

    unpredicated = run(None)
    assert unpredicated[0] == 8
    assert unpredicated == run((">=", 0))


# --- garbage collection ---


def test_gc_idempotent(store):
    store.create_stream("s", VAL)
    undo = UndoBuffer()
    store.insert_batch("s", make_batch(1, [1, 2, 3, 4, 5]), undo)
    assert store.garbage_collect("s", 1) == 5
    assert store.garbage_collect("s", 1) == 0


def test_gc_leaves_other_batches(store):
    store.create_stream("s", VAL)
    undo = UndoBuffer()
    store.insert_batch("s", make_batch(2, [1]), undo)
    store.insert_batch("s", make_batch(3, [2]), undo)
    store.garbage_collect("s", 2)
    assert store.stream("s").pending_batches() == [3]


# --- snapshots ---


def test_snapshot_empty_roundtrip():
    store = Store()
    blob = snapshot_state(store, partition_id=3, commit_seq=9)
    restored = Store()
    assert restore_state(blob, restored) == (3, 9)
    assert restored.tables == {}
    assert snapshot_state(restored, 3, 9) == blob


def test_snapshot_preserves_pending_batches(store):
    store.create_stream("s", VAL)
    undo = UndoBuffer()
    store.insert_batch("s", make_batch(4, [7]), undo)
    store.insert_batch("s", make_batch(5, [8, 9]), undo)
    restored = empty_like(store)
    restore_state(snapshot_state(store), restored)
    assert restored.stream("s").pending_batches() == [4, 5]


def test_snapshot_random_state_bit_exact():
    rng = random.Random(99)
    for _ in range(20):
        store = build_random_store(rng)
        blob = snapshot_state(store, 1, 17)
        restored = empty_like(store)
        restore_state(blob, restored)
        assert snapshot_state(restored, 1, 17) == blob
        assert restored.content_signature() == store.content_signature()


def test_restore_in_place_over_another_random_store():
    rng = random.Random(31)
    for _ in range(200):
        a, b = build_random_store(rng), build_random_store(rng)
        tables = {name: id(tab) for name, tab in b.tables.items()}
        blob = snapshot_state(a, 1, 17)
        assert restore_state(blob, b) == (1, 17)
        assert snapshot_state(b, 1, 17) == blob
        assert window_fields(b.window("w")) == window_fields(a.window("w"))
        rows = b.table("p").rows
        for k in range(6):
            scan = [t for t in rows if t.values[0] == k]
            assert b.select_where("p", Pred("k", "==", k)) == scan
        assert {name: id(tab) for name, tab in b.tables.items()} == tables


def test_snapshot_500_row_state_bit_exact():
    rng = random.Random(123)
    store = Store()
    store.create_public(
        "big", make_schema(("k", "int"), ("x", "float"), ("s", "text")),
        indexed=["k"],
    )
    undo = UndoBuffer()
    for i in range(500):
        store.insert(
            "big",
            Tuple((rng.randint(-1000, 1000), rng.random(), f"row{i}")),
            undo,
        )
    blob = snapshot_state(store, 2, 500)
    restored = empty_like(store)
    restore_state(blob, restored)
    assert snapshot_state(restored, 2, 500) == blob


def test_snapshot_corruption_detected():
    from streamtx.errors import CorruptSnapshot

    store = Store()
    store.create_public("t", VAL)
    blob = bytearray(snapshot_state(store))
    blob[-6] ^= 0xFF
    with pytest.raises(CorruptSnapshot):
        restore_state(bytes(blob), empty_like(store))
    with pytest.raises(CorruptSnapshot):
        restore_state(b"NOTASNAP" + bytes(blob[8:]), empty_like(store))


def test_snapshot_version_mismatch():
    import struct

    from streamtx.errors import VersionMismatch
    from streamtx.snapshot import MAGIC

    store = Store()
    blob = bytearray(snapshot_state(store))
    blob[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", 77)
    # re-crc
    import zlib

    body = bytes(blob[:-4])
    blob[-4:] = struct.pack("<I", zlib.crc32(body))
    with pytest.raises(VersionMismatch):
        restore_state(bytes(blob), Store())


def test_snapshot_unicode_text_roundtrip(store):
    store.create_public("t", make_schema(("name", "text")))
    undo = UndoBuffer()
    store.insert("t", Tuple(("héllo wörld",)), undo)
    store.insert("t", Tuple(("数据",)), undo)
    restored = empty_like(store)
    restore_state(snapshot_state(store), restored)
    assert [t.values for t in restored.table("t").rows] == [
        ("héllo wörld",),
        ("数据",),
    ]


def test_snapshot_window_state_bit_exact(store):
    store.create_window(WindowSpec("w", 3, 2, "sp"), VAL)
    undo = UndoBuffer()
    store.window_insert("w", [Tuple((v,)) for v in range(6)], undo)
    w = store.window("w")
    assert w.full_seen and len(w.staged) == 1
    restored = empty_like(store)
    restore_state(snapshot_state(store), restored)
    rw = restored.window("w")
    assert [t.values for t in rw.active] == [t.values for t in w.active]
    assert [t.values for t in rw.staged] == [t.values for t in w.staged]
    assert rw.full_seen == w.full_seen
    assert rw.spec == w.spec


# sha256 of the snapshot built below; the layout is a compatibility contract,
# so a change here means old snapshots no longer restore bit-exactly
GOLDEN_SNAPSHOT_SHA256 = (
    "1cdaa1c5619ecced0f0259d564947db0e62c676c3f4cc94de8a3a25b28ef78a3"
)


def test_snapshot_bytes_golden():
    store = Store()
    store.create_public(
        "p", make_schema(("k", "int"), ("x", "float"), ("name", "text")),
        indexed=["k"],
    )
    store.create_stream("s", VAL)
    store.create_window(WindowSpec("w", 3, 2, "sp"), VAL)
    undo = UndoBuffer()
    for i, (k, name) in enumerate([(3, "c"), (1, "a"), (3, "数据")]):
        store.insert("p", Tuple((k, i / 4, name), ts=i), undo)
    store.insert_batch("s", make_batch(1, [10, 11], ts=5), undo)
    store.insert_batch("s", make_batch(2, [20]), undo)
    store.insert_batch("s", make_batch(2, [21, 22], first_tuple_id=150), undo)
    store.insert_batch("s", make_batch(4, [40], ts=9), undo)
    store.next_tuple_ids("s", 300, undo)
    store.stream("s").last_consumed_batch = 1
    store.window_insert(
        "w", [Tuple((v,), batch_id=v) for v in range(6)], undo
    )
    assert len(store.window("w").staged) == 1
    blob = snapshot_state(store, partition_id=2, commit_seq=7)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SNAPSHOT_SHA256
    restored = empty_like(store)
    restore_state(blob, restored)
    assert restored.stream("s").pending_batches() == [1, 2, 4]
    assert snapshot_state(restored, 2, 7) == blob
