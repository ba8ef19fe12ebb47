"""Where the value rule runs, and which writes trust a row.

``Engine.ingest_batch`` checks each external row, and every body write
(``ctx.emit``, ``ctx.insert``, ``ctx.window_insert``) checks its rows. A
statement step skips the check only when registration proved its rows fit:
a copy or window feed between tables of equal column types, or a count,
avg, min or max row into a stream of the aggregate's types. These tests
hold the edges of that trust: each write that could break the rule still
aborts its execution.
"""

import pytest

from streamtx.engine import Engine, EngineSpec, StreamDef, TableDef, recover
from streamtx.errors import ReplayDivergence
from streamtx.ingest import BatchingPolicy, StreamIngestor
from streamtx.model import (
    ProcedureDef,
    ProcedureKind,
    Tuple,
    WindowSpec,
    register_workflow,
)
from streamtx.recovery import RecoveryMode
from streamtx.triggers import (
    AggregateInsert,
    FilteredCopy,
    StatementTrigger,
    WindowInsertStmt,
)

INT_COLS = (("value", "int"),)
FLOAT_COLS = (("value", "float"),)


def border_spec(body=None, streams=(), triggers=()):
    """Border SP1 reads int stream ``s1`` and owns int window ``w``; public
    table ``out`` and int stream ``side`` take body writes."""
    w = register_workflow(
        "w",
        [
            ProcedureDef(
                "SP1", ProcedureKind.BORDER, ("s1",), body=body,
                window_defs=(WindowSpec("w", 2, 1, "SP1"),),
            )
        ],
    )
    return EngineSpec(
        workflows=[w],
        streams=[StreamDef("s1", INT_COLS), StreamDef("side", INT_COLS), *streams],
        tables=[TableDef("out", INT_COLS)],
        window_columns={"w": INT_COLS},
        statement_triggers=list(triggers),
    )


def feed(engine, values):
    ing = StreamIngestor(engine, "s1", BatchingPolicy("fixed_count", 1))
    tickets = [ing.push((v,)) for v in values]
    engine.run_until_idle()
    return tickets


BAD_BODY_WRITES = {
    "emit_value": lambda ctx: ctx.emit("side", [(1.5,)]),
    "emit_tuple": lambda ctx: ctx.emit("side", [Tuple(("x",), ts=1)]),
    "insert_stream": lambda ctx: ctx.insert("side", (True,)),
    "insert_table": lambda ctx: ctx.insert("out", (2**63,)),
    "insert_window": lambda ctx: ctx.insert("w", ("x",)),
    "window_insert_value": lambda ctx: ctx.window_insert("w", [(1,), (1.5,)]),
    "window_insert_tuple": lambda ctx: ctx.window_insert(
        "w", [Tuple((1,), ts=2**63)]
    ),
}


@pytest.mark.parametrize("write", BAD_BODY_WRITES.values(), ids=BAD_BODY_WRITES.keys())
def test_bad_body_write_aborts(write):
    def body(ctx):
        (t,) = ctx.input_tuples("s1")
        ctx.insert("out", t.values)
        ctx.emit("side", [t])
        if t.values[0] == 2:
            write(ctx)

    e = Engine(border_spec(body))
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1))
    first = ing.push((1,))
    e.run_until_idle()
    before = e.store.content_signature()
    second = ing.push((2,))
    e.run_until_idle()
    assert (first.outcome, second.outcome) == ("committed", "aborted")
    assert e.store.content_signature() == before


def test_copy_between_unequal_types_still_checks():
    # registration compares the types, so an int row reaching a float
    # stream is refused as before
    trig = StatementTrigger("s1", (FilteredCopy("s1", "f"),))
    e = Engine(border_spec(streams=[StreamDef("f", FLOAT_COLS)], triggers=[trig]))
    (ticket,) = feed(e, [1])
    assert ticket.outcome == "aborted"
    assert ticket.reason == "f.value: expected float, got int"
    assert e.store.stream("f").rows == []


def test_copy_and_window_feed_between_equal_types():
    triggers = [
        StatementTrigger("s1", (FilteredCopy("s1", "copy"), WindowInsertStmt("s1", "w"))),
    ]
    e = Engine(border_spec(streams=[StreamDef("copy", INT_COLS)], triggers=triggers))
    tickets = feed(e, [3, 4, 5])
    assert all(t.committed for t in tickets)
    assert [t.values for t in e.store.stream("copy").rows] == [(3,), (4,), (5,)]
    assert [t.values for t in e.store.window("w").active] == [(4,), (5,)]


def window_aggregate_spec(op, dst_cols):
    triggers = [
        StatementTrigger("s1", (WindowInsertStmt("s1", "w"),)),
        StatementTrigger("w", (AggregateInsert("w", "agg", op, "value"),)),
    ]
    return border_spec(streams=[StreamDef("agg", dst_cols)], triggers=triggers)


def test_int_sum_past_int64_into_stream_aborts():
    e = Engine(window_aggregate_spec("sum", INT_COLS))
    tickets = feed(e, [2**62, 2**62 - 1, 2**62 + 1])
    assert [t.outcome for t in tickets] == ["committed", "committed", "aborted"]
    assert tickets[2].reason == "agg.value: 9223372036854775808 is outside int64"
    assert [t.values for t in e.store.stream("agg").rows] == [(2**63 - 1,)]


@pytest.mark.parametrize(
    "op, dst_cols, want",
    [
        ("count", INT_COLS, [(2,), (2,)]),
        ("avg", FLOAT_COLS, [(1.5,), (2.5,)]),
        ("min", INT_COLS, [(1,), (2,)]),
        ("max", INT_COLS, [(2,), (3,)]),
    ],
)
def test_proven_aggregate_rows_land(op, dst_cols, want):
    e = Engine(window_aggregate_spec(op, dst_cols))
    assert all(t.committed for t in feed(e, [1, 2, 3]))
    assert [t.values for t in e.store.stream("agg").rows] == want


def test_aggregate_into_stream_of_other_type_still_checks():
    # an avg is a float: an int destination cannot take it
    e = Engine(window_aggregate_spec("avg", INT_COLS))
    tickets = feed(e, [1, 2])
    assert [t.outcome for t in tickets] == ["committed", "aborted"]
    assert tickets[1].reason == "agg.value: expected int, got float"


def test_strong_replay_checks_decoded_batches(tmp_path):
    # a log written under a spec whose s1 holds text does not fit an int s1
    text_spec = border_spec()
    text_spec.streams[0] = StreamDef("s1", (("value", "text"),))
    e = Engine(text_spec, data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    assert all(t.committed for t in feed(e, ["a", "b"]))
    e.crash()
    with pytest.raises(ReplayDivergence, match="^SP1 round 1 aborted during replay$"):
        recover(border_spec(), str(tmp_path), fsync=False)
