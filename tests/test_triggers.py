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
from randomized import random_window_run
from streamtx.triggers import (
    AggregateInsert,
    DeleteBatch,
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


def test_ee_chain_abort_reverts_everything():
    spec = ee_chain_spec(3)

    def body(ctx):
        ctx.abort("after cascade")

    w = register_workflow(
        "ee", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)]
    )
    spec.workflows = [w]
    e = Engine(spec)
    before = snapshot_state(e.store)
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
    te.on_stream_append(_NullCtx(), "s", AtomicBatch(1, (Tuple((1,), 1, 1),)))


class _NullCtx:
    ee_consumed = []

    def count_statement(self):
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
    "delete_from_window": ("w", DeleteBatch("w")),
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
        ("s", DeleteBatch("s")),
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
    streams = [StreamDef("s1", VAL_COLS), StreamDef("keep", VAL_COLS)]
    triggers = [
        StatementTrigger(
            "s1", (FilteredCopy("s1", "keep"), DeleteBatch("s1"))
        )
    ]
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
        ingest(
            e,
            FeedSource.from_values([rng.randint(1, 9) for _ in range(3)]),
            BatchingPolicy("fixed_count", 3),
            "s1",
        )
        e.run_until_idle()
        after = snapshot_state(e.store)
        if flip:
            assert after == before
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
