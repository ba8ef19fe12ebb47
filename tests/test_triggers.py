from dataclasses import dataclass

import pytest

from streamtx.engine import Engine, EngineSpec, StreamDef, TableDef
from streamtx.errors import BadDefinition, CycleDetected, StreamTxError, UnknownTable
from streamtx.ingest import BatchingPolicy, FeedSource, ingest
from streamtx.model import (
    AtomicBatch,
    ProcedureDef,
    ProcedureKind,
    Tuple,
    WindowSpec,
    register_workflow,
)
from streamtx.snapshot import snapshot_state
from streamtx.storage import Pred, Store
from randomized import random_window_run, snapshot_with_marks
from streamtx.triggers import (
    AggregateInsert,
    FilteredCopy,
    StatementTrigger,
    TriggerEngine,
    WindowInsertStmt,
)

VAL_COLS = (("value", "int"),)


def ee_chain_spec(stages=3, threshold=10):
    """One border procedure; its input batch cascades through ``stages``
    filtered-copy statement triggers entirely inside the storage layer."""
    streams = [StreamDef(f"s{i}", VAL_COLS) for i in range(1, stages + 2)]
    triggers = [
        StatementTrigger(
            f"s{i}",
            (FilteredCopy(f"s{i}", f"s{i + 1}", Pred("value", ">", threshold)),),
        )
        for i in range(1, stages + 1)
    ]
    w = register_workflow(
        "ee",
        [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",))],
    )
    return EngineSpec(workflows=[w], streams=streams, statement_triggers=triggers)


def test_ee_chain_filters_in_one_te():
    e = Engine(ee_chain_spec(3))
    ingest(
        e,
        FeedSource.from_values([5, 12, 20]),
        BatchingPolicy("fixed_count", 3),
        "s1",
    )
    e.run_until_idle()
    assert e.counters.te_committed == 1  # the whole chain ran inside one TE
    assert e.counters.pe_dispatches == 1
    final = [t.values[0] for t in e.store.stream("s4").rows]
    assert final == [12, 20]
    for s in ("s1", "s2", "s3"):
        assert e.store.stream(s).rows == [], f"{s} not collected"
    assert e.counters.ee_statement_executions == 3


def test_64_stage_chain_commits():
    e = Engine(ee_chain_spec(64, threshold=0))
    ticket = e.ingest_batch("s1", AtomicBatch(1, (Tuple((7,), 1, 1),)))
    e.run_until_idle()
    assert ticket.committed
    assert [t.values for t in e.store.stream("s65").rows] == [(7,)]
    assert e.counters.ee_statement_executions == 64


def test_65_stage_chain_rejected_at_registration():
    """The chain bound is checked once, when the programs register, not by
    aborting every round at run time."""
    with pytest.raises(BadDefinition, match="chain from s1 runs 65 stream programs"):
        Engine(ee_chain_spec(65))


def test_chain_bound_counts_stream_programs_through_windows():
    # s1 -> w -> s2 -> ... -> s64: 64 stream programs with a window between
    # the first two still registers; one more stream program does not
    def spec(stages):
        streams = [StreamDef(f"s{i}", VAL_COLS) for i in range(1, stages + 2)]
        triggers = [
            StatementTrigger("s1", (WindowInsertStmt("s1", "w"),)),
            StatementTrigger("w", (AggregateInsert("w", "s2", "sum", "value"),)),
        ] + [
            StatementTrigger(f"s{i}", (FilteredCopy(f"s{i}", f"s{i + 1}"),))
            for i in range(2, stages + 1)
        ]
        w = register_workflow("ew", [ProcedureDef(
            "SP1", ProcedureKind.BORDER, ("s1",),
            window_defs=(WindowSpec("w", 1, 1, "SP1"),),
        )])
        return EngineSpec(
            workflows=[w], streams=streams, window_columns={"w": VAL_COLS},
            statement_triggers=triggers,
        )

    e = Engine(spec(64))
    ticket = e.ingest_batch("s1", AtomicBatch(1, (Tuple((7,), 1, 1),)))
    e.run_until_idle()
    assert ticket.committed
    assert [t.values for t in e.store.stream("s65").rows] == [(7,)]
    with pytest.raises(BadDefinition, match="runs 65 stream programs"):
        Engine(spec(65))


def window_chain_spec(windows):
    """s1 feeds w1 and each window feeds the next, up to ``w{windows}``,
    through ``WindowInsertStmt``s: ``windows - 1`` window programs."""
    names = [f"w{i}" for i in range(1, windows + 1)]
    triggers = [StatementTrigger("s1", (WindowInsertStmt("s1", "w1"),))] + [
        StatementTrigger(a, (WindowInsertStmt(a, b),)) for a, b in zip(names, names[1:])
    ]
    w = register_workflow("wc", [ProcedureDef(
        "SP1", ProcedureKind.BORDER, ("s1",),
        window_defs=tuple(WindowSpec(n, 1, 1, "SP1") for n in names),
    )])
    return EngineSpec(
        workflows=[w], streams=[StreamDef("s1", VAL_COLS)],
        window_columns=dict.fromkeys(names, VAL_COLS), statement_triggers=triggers,
    )


def test_chain_bound_counts_window_programs():
    # 64 window programs nest and commit; a chain of 399 is refused when it
    # registers instead of overflowing the stack in its first round
    e = Engine(window_chain_spec(65))
    ticket = e.ingest_batch("s1", AtomicBatch(1, (Tuple((7,), 1, 1),)))
    e.run_until_idle()
    assert ticket.committed
    assert [t.values for t in e.store.window("w65").active] == [(7,)]
    assert e.counters.ee_statement_executions == 65
    with pytest.raises(BadDefinition, match="chain from w1 runs 65 window programs"):
        Engine(window_chain_spec(400))


def window_events_spec(program):
    """A border feeds window ``w`` from its body; ``w`` runs ``program``."""

    def body(ctx):
        ctx.window_insert("w", ctx.input_tuples("s1"))

    w = register_workflow("we", [ProcedureDef(
        "SP1", ProcedureKind.BORDER, ("s1",), body=body,
        window_defs=(WindowSpec("w", 2, 1, "SP1"),),
    )])
    return EngineSpec(
        workflows=[w],
        streams=[StreamDef("s1", VAL_COLS)],
        tables=[TableDef("t", (("v", "float"),))],
        window_columns={"w": VAL_COLS},
        statement_triggers=[StatementTrigger("w", program)] if program else [],
    )


def rows_seen_by_window_events(spec):
    """The rows each window event carried, as on_window_events saw them."""
    e = Engine(spec)
    triggers = e.partition.trigger_engine
    real = triggers.on_window_events
    seen = []

    def spy(ctx, window, events):
        seen.extend(ev.tuples for ev in events)
        return real(ctx, window, events)

    triggers.on_window_events = spy
    for r, v in enumerate((1, 2, 3), 1):
        e.ingest_batch("s1", AtomicBatch(r, (Tuple((v,), r, r),)))
    e.run_until_idle()
    return e, seen


def test_window_program_of_sums_fires_events_without_rows():
    e, seen = rows_seen_by_window_events(window_events_spec(
        (AggregateInsert("w", "t", "avg", "value"),)
    ))
    assert seen == [None, None]
    assert [t.values for t in e.store.table("t").rows] == [(1.5,), (2.5,)]


def test_window_without_program_carries_no_rows():
    # on_window_events runs for every insert that fires events, with or
    # without a program; nothing in an engine reads the rows of a window
    # that runs no program, so its events carry none, while the window
    # itself still slides
    e, seen = rows_seen_by_window_events(window_events_spec(()))
    assert seen == [None, None]
    w = e.store.window("w")
    assert [t.values for t in w.active] == [(2,), (3,)]
    assert w.events_emitted == 2


def slide_program_spec(program, abort=False):
    """A border feeds each round's batch into window ``w`` (size 2, slide
    1) from its body, and aborts round 2 after the insert when ``abort``;
    ``w`` runs ``program``, which may write streams o1 and o2 and table t."""

    def body(ctx):
        ctx.window_insert("w", ctx.input_tuples("s1"))
        if abort and ctx.round == 2:
            ctx.abort("after the insert")

    w = register_workflow("ws", [ProcedureDef(
        "SP1", ProcedureKind.BORDER, ("s1",), body=body,
        window_defs=(WindowSpec("w", 2, 1, "SP1"),),
    )])
    return EngineSpec(
        workflows=[w],
        streams=[StreamDef(s, VAL_COLS) for s in ("s1", "o1", "o2")],
        tables=[TableDef("t", VAL_COLS)],
        window_columns={"w": VAL_COLS},
        statement_triggers=[StatementTrigger("w", program)],
    )


# round 1 stages one tuple; round 2 inserts four, which make four slides
SLIDE_ROUNDS = ((3,), (1, 5, 2, 8))
SLIDES = [(3, 1), (1, 5), (5, 2), (2, 8)]
SUM_MAX = (
    AggregateInsert("w", "o1", "sum", "value"),  # from the running sums
    AggregateInsert("w", "o2", "max", "value"),  # recomputed from the rows
)


def feed_slide_round(e, r):
    first = sum(map(len, SLIDE_ROUNDS[: r - 1])) + 1
    values = SLIDE_ROUNDS[r - 1]
    tuples = tuple(Tuple((v,), first + i, r) for i, v in enumerate(values))
    ticket = e.ingest_batch("s1", AtomicBatch(r, tuples))
    e.run_until_idle()
    return ticket


def run_slide_rounds(spec):
    e = Engine(spec)
    return e, [feed_slide_round(e, r) for r in range(1, len(SLIDE_ROUNDS) + 1)]


def test_window_program_runs_once_per_insert_as_per_slide_recompute():
    # each step runs once over the insert's four slides; each stream gets
    # one row per slide, in slide order, with consecutive tuple ids in the
    # round's batch, as a step run slide by slide gives
    e, tickets = run_slide_rounds(slide_program_spec(SUM_MAX))
    assert all(t.committed for t in tickets)
    for stream, agg in (("o1", sum), ("o2", max)):
        got = [(t.values, t.tuple_id, t.batch_id) for t in e.store.stream(stream).rows]
        want = [((agg(s),), i, 2) for i, s in enumerate(SLIDES, 1)]
        assert got == want, stream
    assert e.counters.ee_statement_executions == len(SLIDES) * len(SUM_MAX)


def test_steps_writing_one_table_write_step_by_step():
    # the documented order: step 1's row for every slide, then step 2's
    e, _ = run_slide_rounds(slide_program_spec((
        AggregateInsert("w", "t", "sum", "value"),
        AggregateInsert("w", "t", "max", "value"),
    )))
    rows = [t.values[0] for t in e.store.table("t").rows]
    assert rows == [sum(s) for s in SLIDES] + [max(s) for s in SLIDES]
    assert e.counters.ee_statement_executions == 2 * len(SLIDES)


def test_abort_after_a_many_slide_insert_restores_every_table():
    # the steps wrote two streams and a table over four slides; the abort
    # leaves every byte as round 1 left it, but for the mark it raises
    program = SUM_MAX + (AggregateInsert("w", "t", "count"),)
    e = Engine(slide_program_spec(program, abort=True))
    assert feed_slide_round(e, 1).committed
    before = snapshot_with_marks(e, {"s1": 2})
    ticket = feed_slide_round(e, 2)
    assert ticket.outcome == "aborted"
    assert snapshot_state(e.store) == before
    assert e.counters.ee_statement_executions == len(SLIDES) * len(program)


def test_ee_chain_abort_reverts_everything():
    spec = ee_chain_spec(3)

    def body(ctx):
        ctx.abort("after cascade")

    w = register_workflow(
        "ee", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)]
    )
    spec.workflows = [w]
    e = Engine(spec)
    # the aborted round 1 ends s1's round 1, as a commit would
    before = snapshot_with_marks(e, {"s1": 1})
    tickets = ingest(
        e,
        FeedSource.from_values([12, 20]),
        BatchingPolicy("fixed_count", 2),
        "s1",
    )
    e.run_until_idle()
    assert tickets[0].outcome == "aborted"
    assert snapshot_state(e.store) == before
    assert not e.partition.trigger_engine.pending


def test_empty_program_is_noop():
    store = Store()
    from streamtx.storage import make_schema

    store.create_stream("s", make_schema(*VAL_COLS))
    te = TriggerEngine(store)
    te.register_statement_trigger(StatementTrigger("s", ()))
    # no context needed: program has nothing to run
    te.on_stream_append(
        _NullCtx(), te.stream_plans["s"], AtomicBatch(1, (Tuple((1,), 1, 1),))
    )


class _NullCtx:
    @property
    def partition(self):  # a statement counts itself on the partition
        raise AssertionError("empty program must not execute statements")


def test_statement_trigger_cycle_rejected():
    store = Store()
    from streamtx.storage import make_schema

    for n in ("a", "b"):
        store.create_stream(n, make_schema(*VAL_COLS))
    te = TriggerEngine(store)
    te.register_statement_trigger(StatementTrigger("a", (FilteredCopy("a", "b"),)))
    with pytest.raises(CycleDetected):
        te.register_statement_trigger(
            StatementTrigger("b", (FilteredCopy("b", "a"),))
        )


@dataclass(frozen=True)
class Truncate:
    """A statement type the trigger engine does not know."""

    src: str


MALFORMED_PROGRAMS = {
    "copy_into_public_table": ("s", FilteredCopy("s", "t")),
    "pred_unknown_column": ("s", FilteredCopy("s", "out", Pred("nope", ">", 1))),
    "pred_text_value_on_int": ("s", FilteredCopy("s", "out", Pred("value", "<", "9"))),
    "pred_int_value_on_text": ("s", FilteredCopy("s", "out", Pred("name", "==", 3))),
    "aggregate_unknown_op": ("w", AggregateInsert("w", "t", "median", "value")),
    "aggregate_unknown_column": ("w", AggregateInsert("w", "t", "sum", "nope")),
    "aggregate_unknown_group_by": (
        "w", AggregateInsert("w", "t", "count", group_by="nope")
    ),
    "aggregate_sum_text": ("w", AggregateInsert("w", "t", "sum", "name")),
    "aggregate_max_text": ("w", AggregateInsert("w", "t", "max", "name")),
    "unknown_statement": ("s", Truncate("s")),
}


def single_statement_spec(source, stmt):
    """A stream ``s`` and a window ``w`` over (value int, name text), a
    stream ``out`` of the same schema, a public table ``t``, and one
    statement triggered on ``source``."""
    cols = (("value", "int"), ("name", "text"))
    w = register_workflow(
        "m",
        [
            ProcedureDef(
                "SP1",
                ProcedureKind.BORDER,
                ("s",),
                window_defs=(WindowSpec("w", 2, 1, "SP1"),),
            )
        ],
    )
    return EngineSpec(
        workflows=[w],
        streams=[StreamDef("s", cols), StreamDef("out", cols)],
        tables=[TableDef("t", (("v", "int"),))],
        window_columns={"w": cols},
        statement_triggers=[StatementTrigger(source, (stmt,))],
    )


@pytest.mark.parametrize("case", sorted(MALFORMED_PROGRAMS))
def test_malformed_program_rejected_at_registration(case):
    with pytest.raises(StreamTxError):
        Engine(single_statement_spec(*MALFORMED_PROGRAMS[case]))


def test_well_formed_statements_register():
    for source, stmt in [
        ("s", FilteredCopy("s", "out", Pred("value", "<", 9.5))),
        ("s", FilteredCopy("s", "out", Pred("name", "==", "x"))),
        ("w", AggregateInsert("w", "t", "max", "value", group_by="name")),
        ("w", AggregateInsert("w", "t", "count", "name")),
    ]:
        Engine(single_statement_spec(source, stmt))


def test_pe_trigger_on_window_rejected():
    store = Store()
    from streamtx.storage import make_schema

    store.create_window(WindowSpec("w", 2, 1, "SP1"), make_schema(*VAL_COLS))
    te = TriggerEngine(store)
    proc = ProcedureDef("SP2", ProcedureKind.INTERIOR, ("w",))
    with pytest.raises(BadDefinition):
        te.register_procedure_trigger("w", proc)


def window_trigger_spec(size=2, slide=1):
    """Border inserts its batch into a window via a statement trigger; a
    window trigger aggregates each full window into a table."""
    streams = [StreamDef("s1", VAL_COLS)]
    triggers = [
        StatementTrigger("s1", (WindowInsertStmt("s1", "w"),)),
        StatementTrigger("w", (AggregateInsert("w", "sums", "sum", "value"),)),
    ]
    w = register_workflow(
        "win",
        [
            ProcedureDef(
                "SP1",
                ProcedureKind.BORDER,
                ("s1",),
                window_defs=(WindowSpec("w", size, slide, "SP1"),),
            )
        ],
    )
    return EngineSpec(
        workflows=[w],
        streams=streams,
        tables=[TableDef("sums", (("sum", "int"),))],
        window_columns={"w": VAL_COLS},
        statement_triggers=triggers,
    )


def test_window_trigger_fires_only_on_full_window():
    e = Engine(window_trigger_spec(size=2, slide=1))
    ingest(
        e, FeedSource.from_values([1, 2, 3]), BatchingPolicy("fixed_count", 1), "s1"
    )
    e.run_until_idle()
    sums = [t.values[0] for t in e.store.table("sums").rows]
    assert sums == [3, 5]  # {1,2} then {2,3}; first insert fired nothing


def test_delete_batch_statement():
    """No statement deletes a batch: the batch a program fired on leaves its
    stream when the transaction commits, by garbage collection."""
    streams = [StreamDef("s1", VAL_COLS), StreamDef("keep", VAL_COLS)]
    triggers = [StatementTrigger("s1", (FilteredCopy("s1", "keep"),))]
    w = register_workflow(
        "d", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",))]
    )
    e = Engine(EngineSpec(workflows=[w], streams=streams, statement_triggers=triggers))
    ingest(e, FeedSource.from_values([4]), BatchingPolicy("fixed_count", 1), "s1")
    e.run_until_idle()
    assert e.store.stream("s1").rows == []
    assert [t.values[0] for t in e.store.stream("keep").rows] == [4]


# --- procedure trigger firing ---


def two_step_spec():
    def b1(ctx):
        vals = [t for t in ctx.input_tuples("s1") if t.values[0] > 0]
        if vals:
            ctx.emit("s12", vals)

    def b2(ctx):
        ctx.insert("out", (sum(t.values[0] for t in ctx.input_tuples("s12")),))

    w = register_workflow(
        "two",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=b1),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s12",), body=b2),
        ],
        [("SP1", "s12", "SP2")],
    )
    return EngineSpec(
        workflows=[w],
        streams=[StreamDef("s1", VAL_COLS), StreamDef("s12", VAL_COLS)],
        tables=[TableDef("out", VAL_COLS)],
    )


def test_commit_enqueues_exactly_one_downstream_request():
    e = Engine(two_step_spec())
    ingest(e, FeedSource.from_values([5]), BatchingPolicy("fixed_count", 1), "s1")
    e.step()  # SP1 round 1
    pending = list(e.partition.fast_track)
    assert [(r.proc, r.round) for r in pending] == [("SP2", 1)]
    assert e.counters.boundary_crossings == 1


def test_no_output_no_trigger():
    e = Engine(two_step_spec())
    ingest(e, FeedSource.from_values([-5]), BatchingPolicy("fixed_count", 1), "s1")
    e.run_until_idle()
    assert [te.procedure for te in e.committed_schedule] == ["SP1"]
    assert e.counters.boundary_crossings == 0


def test_disabled_triggers_suppress_dispatch():
    e = Engine(two_step_spec())
    e.partition.trigger_engine.pe_enabled = False
    ingest(e, FeedSource.from_values([5]), BatchingPolicy("fixed_count", 1), "s1")
    e.run_until_idle()
    assert [te.procedure for te in e.committed_schedule] == ["SP1"]
    # the output batch is parked on the interior stream, awaiting refire
    assert len(e.store.stream("s12").rows) == 1
    # enable + refire drains it
    e.partition.trigger_engine.pe_enabled = True
    reqs = e.partition.refire_nonempty_streams()
    assert [(r.proc, r.round) for r in reqs] == [("SP2", 1)]
    e.run_until_idle()
    assert [te.procedure for te in e.committed_schedule] == ["SP1", "SP2"]
    assert e.store.stream("s12").rows == []


def test_body_delete_on_stream_aborts():
    """Streams are append-only: a body that deletes the batch it just
    emitted aborts, so its consumer never runs on a round whose input is
    gone, and the stream and the GC waits are left as before."""

    def border(ctx):
        ctx.emit("s2", ctx.input_tuples("s1"))
        ctx.delete("s2", None)

    w = register_workflow(
        "del",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=border),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s2",)),
        ],
        [("SP1", "s2", "SP2")],
    )
    e = Engine(
        EngineSpec(
            workflows=[w], streams=[StreamDef("s1", VAL_COLS), StreamDef("s2", VAL_COLS)]
        )
    )
    ticket = e.ingest_batch("s1", AtomicBatch(1, (Tuple((7,), tuple_id=1, batch_id=1),)))
    e.run_until_idle()
    assert ticket.outcome == "aborted"
    assert ticket.reason == (
        "stream s2: batches leave by garbage collection, not deletion"
    )
    assert list(e.committed_schedule) == []
    assert e.counters.pe_dispatches == 1  # SP2 never ran
    assert e.store.stream("s2").rows == []
    assert e.partition.trigger_engine.pending == set()


def test_double_disable_idempotent():
    e = Engine(two_step_spec())
    e.partition.trigger_engine.pe_enabled = False
    e.partition.trigger_engine.pe_enabled = False
    assert e.partition.trigger_engine.pe_enabled is False
    e.partition.trigger_engine.pe_enabled = True
    assert e.partition.trigger_engine.pe_enabled is True


def test_refire_in_batch_order_multiple_batches():
    e = Engine(two_step_spec())
    e.partition.trigger_engine.pe_enabled = False
    ingest(
        e, FeedSource.from_values([4, 5]), BatchingPolicy("fixed_count", 1), "s1"
    )
    e.run_until_idle()
    assert e.store.stream("s12").pending_batches() == [1, 2]
    e.partition.trigger_engine.pe_enabled = True
    reqs = e.partition.refire_nonempty_streams()
    assert [(r.proc, r.round) for r in reqs] == [("SP2", 1), ("SP2", 2)]


def test_refire_empty_streams_returns_nothing():
    e = Engine(two_step_spec())
    assert e.partition.refire_nonempty_streams() == []


def test_refire_skips_streams_without_triggers():
    # border input stream pending but never triggered by a procedure trigger
    e = Engine(two_step_spec())
    from streamtx.storage import UndoBuffer

    undo = UndoBuffer()
    e.store.insert_batch(
        "s1", AtomicBatch(9, (Tuple((1,), tuple_id=900, batch_id=9),)), undo
    )
    assert e.partition.refire_nonempty_streams() == []


def test_gc_waits_for_pending_consumer():
    e = Engine(two_step_spec())
    trig = e.partition.trigger_engine
    ingest(e, FeedSource.from_values([5]), BatchingPolicy("fixed_count", 1), "s1")
    e.step()  # SP1 committed; its output batch awaits SP2
    assert not trig.gc_eligible("s12", 1)
    assert len(e.store.stream("s12").rows) == 1
    e.run_until_idle()  # SP2 consumed and committed
    assert trig.gc_eligible("s12", 1)
    assert e.store.stream("s12").rows == []


def test_insert_into_stream_is_an_append():
    # ctx.insert on a stream must append as emit does: fire the consumer,
    # accept a second row for the round, and let the batch be collected
    def b1(ctx):
        for t in ctx.input_tuples("s1"):
            ctx.insert("s12", t.values)

    def b2(ctx):
        for t in ctx.input_tuples("s12"):
            ctx.insert("out", t.values)

    w = register_workflow(
        "ins",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=b1),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s12",), body=b2),
        ],
        [("SP1", "s12", "SP2")],
    )
    e = Engine(EngineSpec(
        workflows=[w],
        streams=[StreamDef("s1", VAL_COLS), StreamDef("s12", VAL_COLS)],
        tables=[TableDef("out", VAL_COLS)],
    ))
    feed = FeedSource([((1,), 1), ((2,), 2), ((3,), 2)])  # rounds of 1 and 2
    tickets = ingest(e, feed, BatchingPolicy("same_timestamp"), "s1")
    e.run_until_idle()
    assert [t.outcome for t in tickets] == ["committed", "committed"]
    assert [(te.procedure, te.round) for te in e.committed_schedule] == [
        ("SP1", 1), ("SP2", 1), ("SP1", 2), ("SP2", 2),
    ]
    assert sorted(t.values for t in e.store.table("out").rows) == [(1,), (2,), (3,)]
    assert e.partition.trigger_engine.pending == set()
    assert e.store.stream("s12").rows == []


def test_schedule_ring_buffer_capacity():
    spec = two_step_spec()
    e = Engine(spec, schedule_capacity=3)
    ingest(
        e, FeedSource.from_values([1, 2, 3]), BatchingPolicy("fixed_count", 1), "s1"
    )
    e.run_until_idle()
    entries = [(te.procedure, te.round) for te in e.committed_schedule]
    assert len(entries) == 3
    assert entries == [("SP2", 2), ("SP1", 3), ("SP2", 3)]


def test_schedule_capacity_zero_keeps_nothing():
    e = Engine(two_step_spec(), schedule_capacity=0)
    ingest(
        e, FeedSource.from_values([1, 2, 3]), BatchingPolicy("fixed_count", 1), "s1"
    )
    e.run_until_idle()
    assert list(e.committed_schedule) == []
    assert e.counters.te_committed == 6


def test_input_stream_without_streamdef_fails_construction():
    spec = two_step_spec()
    spec.streams = [StreamDef("s12", VAL_COLS)]  # the border's s1 is missing
    with pytest.raises(UnknownTable, match="no table named s1"):
        Engine(spec)


def test_two_appends_to_one_batch_wait_and_fire_once():
    def b1(ctx):
        ctx.emit("s12", [(1,)])
        ctx.emit("s12", [(2,)])

    def b2(ctx):
        ctx.insert("out", (sum(t.values[0] for t in ctx.input_tuples("s12")),))

    w = register_workflow(
        "two",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=b1),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s12",), body=b2),
        ],
        [("SP1", "s12", "SP2")],
    )
    e = Engine(EngineSpec(
        workflows=[w],
        streams=[StreamDef("s1", VAL_COLS), StreamDef("s12", VAL_COLS)],
        tables=[TableDef("out", VAL_COLS)],
    ))
    triggers = e.partition.trigger_engine
    fired = []
    real_fire = triggers.fire_procedure_triggers

    def counting_fire(stream, batch_id):
        fired.append((stream, batch_id))
        return real_fire(stream, batch_id)

    triggers.fire_procedure_triggers = counting_fire
    ingest(e, FeedSource.from_values([5]), BatchingPolicy("fixed_count", 1), "s1")
    e.step()  # SP1 round 1
    assert triggers.pending == {("s12", 1)}
    assert fired == [("s12", 1)]
    assert [(r.proc, r.round) for r in e.partition.fast_track] == [("SP2", 1)]
    e.run_until_idle()
    assert [t.values for t in e.store.table("out").rows] == [(3,)]
    assert triggers.pending == set()
    assert e.counters.boundary_crossings == 1


def test_same_te_property_trigger_writes_share_fate():
    # randomized: statement-trigger work and body work abort together
    import random

    rng = random.Random(11)
    for _ in range(50):
        spec = ee_chain_spec(2, threshold=0)
        flip = rng.random() < 0.5

        def body(ctx, flip=flip):
            ctx.insert_marker = True
            if flip:
                ctx.abort("flip")

        w = register_workflow(
            "ee", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)]
        )
        spec.workflows = [w]
        e = Engine(spec)
        before = snapshot_state(e.store)
        ended = snapshot_with_marks(e, {"s1": 1})  # round 1 ended, nothing else
        ingest(
            e,
            FeedSource.from_values([rng.randint(1, 9) for _ in range(3)]),
            BatchingPolicy("fixed_count", 3),
            "s1",
        )
        e.run_until_idle()
        after = snapshot_state(e.store)
        if flip:
            assert after == ended
        else:
            assert after != before
            assert len(e.store.stream("s3").rows) == 3


def test_window_aggregates_match_recompute_randomized(tmp_path):
    """Every aggregate over int and float window columns equals a plain
    recompute over the committed rounds, across aborts after a window insert,
    a checkpoint and a crash with recovery."""
    for seed in range(200):
        got, want = random_window_run(seed, str(tmp_path / str(seed)))
        assert got == want, f"seed {seed}"


def test_statement_fed_window_aggregates_match_recompute_randomized(tmp_path):
    """The same invariant with a statement trigger feeding the window and a
    random aggregate program: events that carry no rows (a program of
    count, and sum/avg over the int column) and events that do (the program
    also has min/max or a float column) both match the recompute."""
    for seed in range(200):
        got, want = random_window_run(
            seed, str(tmp_path / str(seed)), via_statement=True
        )
        assert got == want, f"seed {seed}"
