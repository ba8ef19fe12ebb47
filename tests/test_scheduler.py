import pytest

from streamtx.engine import Engine, EngineSpec, StreamDef, TableDef
from streamtx.errors import (
    BadDefinition,
    BodyAbort,
    EngineStopped,
    UnknownProcedure,
    WrongKind,
)
from streamtx.executor import Origin, TERequest
from streamtx.ingest import BatchingPolicy, FeedSource, StreamIngestor, ingest
from streamtx.model import (
    AtomicBatch,
    NestedGroup,
    ProcedureDef,
    ProcedureKind,
    Tuple,
    register_workflow,
)
from streamtx.snapshot import snapshot_state
from streamtx.storage import Pred
from streamtx.validator import validate
from randomized import OpenExecutions, dead_round_diamond_spec, snapshot_with_marks

VAL_COLS = (("value", "int"),)


def passthrough(out_stream, in_stream):
    def body(ctx):
        ctx.emit(out_stream, ctx.input_tuples(in_stream))

    return body


def sink_recorder(table, in_stream):
    def body(ctx):
        for t in ctx.input_tuples(in_stream):
            ctx.insert(table, t.values, ts=t.ts)

    return body


def chain_spec(n=2, abort_rounds=frozenset(), with_sink_table=True):
    """SP1 -> SP2 -> ... -> SPn, border first, each passing its batch on."""
    procs = []
    edges = []
    streams = [StreamDef("s1", VAL_COLS)]
    for i in range(1, n + 1):
        in_stream = f"s{i}"
        out_stream = f"s{i + 1}"
        streams.append(StreamDef(out_stream, VAL_COLS))
        kind = ProcedureKind.BORDER if i == 1 else ProcedureKind.INTERIOR

        def make_body(i=i, in_stream=in_stream, out_stream=out_stream):
            def body(ctx):
                if (f"SP{i}", ctx.round) in abort_rounds:
                    ctx.abort("forced")
                ctx.emit(out_stream, ctx.input_tuples(in_stream))
                if i == n and with_sink_table:
                    for t in ctx.input_tuples(in_stream):
                        ctx.insert("out", (t.values[0],))

            return body

        procs.append(
            ProcedureDef(f"SP{i}", kind, (in_stream,), body=make_body())
        )
        if i < n:
            edges.append((f"SP{i}", out_stream, f"SP{i + 1}"))
    tables = [TableDef("out", VAL_COLS)] if with_sink_table else []
    w = register_workflow("chain", procs, edges)
    return EngineSpec(workflows=[w], tables=tables, streams=streams)


def oltp_spec():
    def body(ctx):
        ctx.insert("log", (ctx.args["v"],))

    w = register_workflow(
        "oltp", [ProcedureDef("Q", ProcedureKind.OLTP, body=body)]
    )
    return w


def feed(engine, values, batch_size=1, stream="s1"):
    return ingest(
        engine,
        FeedSource.from_values(values),
        BatchingPolicy("fixed_count", batch_size),
        stream,
    )


def test_fifo_two_oltp():
    spec = EngineSpec(workflows=[oltp_spec()], tables=[TableDef("log", VAL_COLS)])
    e = Engine(spec)
    t1 = e.call_oltp("Q", {"v": 1})
    t2 = e.call_oltp("Q", {"v": 2})
    e.run_until_idle()
    assert t1.committed and t2.committed
    assert [te.procedure for te in e.committed_schedule] == ["Q", "Q"]
    assert t1.commit_seq < t2.commit_seq


def test_unknown_procedure():
    e = Engine(chain_spec())
    with pytest.raises(UnknownProcedure):
        e.partition.submit_client(TERequest("nope", 0))


@pytest.mark.parametrize(
    "second, error",
    [
        (("other", "Q"), "procedure Q registered twice"),
        (("oltp", "R"), "workflow oltp registered twice"),
    ],
    ids=["procedure", "workflow"],
)
def test_registered_twice_rejected(second, error):
    name, proc = second
    again = register_workflow(name, [ProcedureDef(proc, ProcedureKind.OLTP)])
    spec = EngineSpec(
        workflows=[oltp_spec(), again], tables=[TableDef("log", VAL_COLS)]
    )
    with pytest.raises(BadDefinition, match=f"^{error}$"):
        Engine(spec)


def test_wrong_kind_guard():
    e = Engine(chain_spec())
    with pytest.raises(WrongKind):
        e.call_oltp("SP1")


def test_chain_round_runs_before_queued_oltp():
    spec = chain_spec(3)
    spec.workflows.append(oltp_spec())
    spec.tables.append(TableDef("log", VAL_COLS))
    e = Engine(spec)
    feed(e, [5])
    e.call_oltp("Q", {"v": 9})
    e.run_until_idle()
    names = [te.procedure for te in e.committed_schedule]
    assert names == ["SP1", "SP2", "SP3", "Q"]
    report = validate(e.committed_schedule, spec.workflows[0], mode="fixed_order")
    assert report.correct


def test_fast_track_preempts_client_queue():
    e = Engine(chain_spec(2))
    feed(e, [1])
    # one border TE committed -> fast track holds SP2 before any client work
    assert e.step() is True
    nxt = e.partition.schedule_next()
    assert nxt is not None and nxt.proc == "SP2" and nxt.origin is Origin.TRIGGER
    e.partition.execute(nxt)
    assert [te.procedure for te in e.committed_schedule] == ["SP1", "SP2"]


def test_schedule_next_idle():
    e = Engine(chain_spec(2))
    assert e.partition.schedule_next() is None


def test_multi_round_schedule_valid():
    spec = chain_spec(3)
    e = Engine(spec)
    opened = OpenExecutions(e)
    feed(e, list(range(10)))
    e.run_until_idle()
    assert validate(e.committed_schedule, spec.workflows[0], "fixed_order").correct
    assert e.counters.te_committed == 30
    # interior streams fully collected after quiescing
    for s in ("s2", "s3"):
        assert e.store.stream(s).rows == []
    # the sink stream retains everything (no consumer ever collects it)
    assert len(e.store.stream("s4").rows) == 10
    assert opened.most == 1  # the 30 executions ran one at a time


def test_streaming_abort_drops_round_downstream():
    spec = chain_spec(2, abort_rounds=frozenset({("SP1", 2)}))
    e = Engine(spec)
    tickets = feed(e, [1, 2, 3])
    e.run_until_idle()
    assert [t.outcome for t in tickets] == ["committed", "aborted", "committed"]
    names_rounds = [(te.procedure, te.round) for te in e.committed_schedule]
    assert names_rounds == [("SP1", 1), ("SP2", 1), ("SP1", 3), ("SP2", 3)]
    out_vals = sorted(t.values[0] for t in e.store.table("out").rows)
    assert out_vals == [1, 3]


def test_interior_abort_keeps_upstream_commit():
    spec = chain_spec(2, abort_rounds=frozenset({("SP2", 1)}))
    e = Engine(spec)
    feed(e, [7])
    e.run_until_idle()
    assert [(te.procedure, te.round) for te in e.committed_schedule] == [("SP1", 1)]
    # the dropped round's batch is discarded from the interior stream
    assert e.store.stream("s2").rows == []


def test_abort_leaves_state_bit_equal():
    def body(ctx):
        ctx.insert("out", (ctx.args["v"],))
        if ctx.args["v"] == 13:
            ctx.abort("unlucky")

    w = register_workflow(
        "w", [ProcedureDef("Q", ProcedureKind.OLTP, body=body)]
    )
    e = Engine(EngineSpec(workflows=[w], tables=[TableDef("out", VAL_COLS)]))
    e.call_oltp("Q", {"v": 1})
    e.run_until_idle()
    before = snapshot_state(e.store)
    t = e.call_oltp("Q", {"v": 13})
    e.run_until_idle()
    assert t.outcome == "aborted" and t.reason == "unlucky"
    assert snapshot_state(e.store) == before


def test_body_exception_aborts_its_execution():
    # a body that raises anything but an abort still rolls back and aborts
    def body(ctx):
        for t in ctx.input_tuples("s1"):
            ctx.insert("out", t.values)
        if ctx.round == 2:
            raise ValueError("bad round")

    w = register_workflow(
        "w", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)]
    )
    spec = EngineSpec(
        workflows=[w],
        streams=[StreamDef("s1", VAL_COLS)],
        tables=[TableDef("out", VAL_COLS)],
    )
    e = Engine(spec)
    tickets = feed(e, [1, 2, 3])
    e.run_until_idle()
    assert [t.outcome for t in tickets] == ["committed", "aborted", "committed"]
    assert tickets[1].reason == "ValueError: bad round"
    assert tickets[1].acknowledged
    assert sorted(t.values for t in e.store.table("out").rows) == [(1,), (3,)]
    assert e.store.stream("s1").rows == []
    assert [(te.procedure, te.round) for te in e.committed_schedule] == [
        ("SP1", 1), ("SP1", 3)
    ]


@pytest.mark.parametrize("source", ["select", "input_tuples"])
def test_body_cannot_change_a_row_it_read(source):
    # rows reach a body by reference; a change in place would bypass the
    # undo buffer and the index, so assigning to one aborts the execution
    def body(ctx):
        if source == "select":
            (row,) = ctx.select("t", Pred("value", "==", 2))
        else:
            (row,) = ctx.input_tuples("s1")
        row.values = (99,)

    w = register_workflow(
        "w", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)]
    )
    spec = EngineSpec(
        workflows=[w],
        streams=[StreamDef("s1", VAL_COLS)],
        tables=[TableDef("t", VAL_COLS, indexes=("value",))],
        seed_rows={"t": [(1,), (2,)]},
    )
    e = Engine(spec)
    # the aborted round 1 ends s1's round 1, as a commit would
    before = snapshot_with_marks(e, {"s1": 1})
    (ticket,) = feed(e, [5])
    e.run_until_idle()
    assert ticket.outcome == "aborted"
    assert ticket.reason.startswith("AttributeError")
    t = e.store.table("t")
    assert [r.values for r in t.rows] == [(1,), (2,)]
    assert {k: [r.values for r in b] for k, b in t.indexes["value"].items()} == {
        1: [(1,)], 2: [(2,)]
    }
    assert e.store.stream("s1").rows == []
    assert snapshot_state(e.store) == before


def test_empty_body_commits():
    w = register_workflow("w", [ProcedureDef("Q", ProcedureKind.OLTP)])
    e = Engine(EngineSpec(workflows=[w]))
    t = e.call_oltp("Q")
    e.run_until_idle()
    assert t.committed
    assert len(e.committed_schedule) == 1


def test_drain_and_quiesce_completes_round_not_clients():
    spec = chain_spec(2)
    spec.workflows.append(oltp_spec())
    spec.tables.append(TableDef("log", VAL_COLS))
    e = Engine(spec)
    feed(e, [1])
    e.call_oltp("Q", {"v": 1})
    e.step()  # SP1 commits, SP2 on fast track
    e.drain_and_quiesce()
    assert [te.procedure for te in e.committed_schedule] == ["SP1", "SP2"]
    assert len(e.partition.client_queue) == 1  # OLTP still waiting


def test_quiesce_idle_immediate():
    e = Engine(chain_spec(2))
    e.drain_and_quiesce()


def test_engine_stopped_rejects_submissions():
    e = Engine(chain_spec(2))
    e.crash()
    with pytest.raises(EngineStopped):
        feed(e, [1])


# --- nested groups ---


def group_spec(abort_child=None):
    def body1(ctx):
        ctx.emit("s12", ctx.input_tuples("s1"))
        ctx.insert("t", (1,))

    def body2(ctx):
        if abort_child == "SP2":
            ctx.abort("child failure")
        ctx.insert("t", (2,))

    w = register_workflow(
        "g",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body1),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s12",), body=body2),
        ],
        [("SP1", "s12", "SP2")],
        nested_groups=[NestedGroup("pair", ("SP1", "SP2"), (("SP1", "SP2"),))],
    )
    return EngineSpec(
        workflows=[w],
        tables=[TableDef("t", VAL_COLS)],
        streams=[StreamDef("s1", VAL_COLS), StreamDef("s12", VAL_COLS)],
    )


def test_group_runs_without_interleaving_oltp():
    spec = group_spec()
    spec.workflows.append(oltp_spec())
    spec.tables.append(TableDef("log", VAL_COLS))
    e = Engine(spec)
    ing_tickets = feed(e, [5])
    e.call_oltp("Q", {"v": 1})
    e.run_until_idle()
    names = [te.procedure for te in e.committed_schedule]
    assert names == ["SP1", "SP2", "Q"]
    assert ing_tickets[0].committed
    assert validate(e.committed_schedule, spec.workflows[0]).correct


def test_group_child_abort_rolls_back_whole_group():
    spec = group_spec(abort_child="SP2")
    e = Engine(spec)
    tickets = feed(e, [5])
    e.run_until_idle()
    assert tickets[0].outcome == "aborted"
    assert len(e.committed_schedule) == 0
    assert e.store.table("t").rows == []
    assert e.store.stream("s12").rows == []
    assert e.counters.te_aborted == 1


def test_execute_nested_direct_call():
    spec = group_spec()
    e = Engine(spec)
    # place the border batch manually, then run the nested instance directly
    from streamtx.executor import TERequest, batches_to_args
    from streamtx.model import AtomicBatch, Tuple

    batch = AtomicBatch(1, (Tuple((5,), tuple_id=1, batch_id=1),))
    root = e.partition.plans["SP2"].group.roots[0].name
    outcome = e.partition.execute(TERequest(root, 1, batches_to_args({"s1": batch})))
    assert outcome == "committed"
    assert [te.procedure for te in e.committed_schedule] == ["SP1", "SP2"]


def test_group_partial_order_execution():
    # A feeds B and C inside one group; execution must satisfy A<B and A<C
    def emit_both(ctx):
        ctx.emit("sab", ctx.input_tuples("s0"))
        ctx.emit("sac", ctx.input_tuples("s0"))

    def noop(ctx):
        pass

    w = register_workflow(
        "wide",
        [
            ProcedureDef("A", ProcedureKind.BORDER, ("s0",), body=emit_both),
            ProcedureDef("B", ProcedureKind.INTERIOR, ("sab",), body=noop),
            ProcedureDef("C", ProcedureKind.INTERIOR, ("sac",), body=noop),
        ],
        [("A", "sab", "B"), ("A", "sac", "C")],
        nested_groups=[
            NestedGroup("trio", ("A", "B", "C"), (("A", "B"), ("A", "C")))
        ],
    )
    spec = EngineSpec(
        workflows=[w],
        streams=[StreamDef(s, VAL_COLS) for s in ("s0", "sab", "sac")],
    )
    e = Engine(spec)
    # the group runs B and C itself: only a stream into a group fires it
    assert all(p.target is None for p in e.partition.stream_plans.values())
    feed(e, [1, 2], stream="s0")
    e.run_until_idle()
    per_round = [
        [te.procedure for te in e.committed_schedule if te.round == r]
        for r in (1, 2)
    ]
    for seq in per_round:
        assert seq[0] == "A" and set(seq) == {"A", "B", "C"}
    assert validate(e.committed_schedule, w).correct


# --- partitioned runs ---


def test_partitioned_p1_equals_unpartitioned():
    from streamtx.engine import partitioned_engines, route_partition

    def builder(i):
        s = chain_spec(2)
        s.partition_key = "value"
        return s

    singles = Engine(chain_spec(2))
    feed(singles, [3, 1, 4, 1, 5])
    singles.run_until_idle()

    engines = partitioned_engines(builder, 1)
    feed(engines[0], [3, 1, 4, 1, 5])
    engines[0].run_until_idle()
    assert (
        engines[0].store.content_signature() == singles.store.content_signature()
    )


def test_partitioned_union_matches_single():
    from streamtx.engine import partitioned_engines, route_partition

    def builder(i):
        s = chain_spec(2)
        s.partition_key = "value"
        return s

    values = list(range(40))
    single = Engine(chain_spec(2))
    feed(single, values)
    single.run_until_idle()
    want = sorted(t.values[0] for t in single.store.table("out").rows)

    from streamtx.ingest import StreamIngestor

    engines = partitioned_engines(builder, 4)
    ingestors = [
        StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1)) for e in engines
    ]
    for v in values:
        ingestors[route_partition(v, 4)].push((v,))
    for ing, e in zip(ingestors, engines):
        ing.end_of_stream()
        e.run_until_idle()
    got = sorted(
        t.values[0] for e in engines for t in e.store.table("out").rows
    )
    assert got == want


def test_multi_input_border_waits_for_all_streams():
    # a border procedure fed by two external streams runs a round only when
    # both streams have delivered that round's batch
    def body(ctx):
        left = [t.values[0] for t in ctx.input_tuples("l")]
        right = [t.values[0] for t in ctx.input_tuples("r")]
        ctx.insert("out", (sum(left) * 100 + sum(right),))

    w = register_workflow(
        "join_in",
        [ProcedureDef("J", ProcedureKind.BORDER, ("l", "r"), body=body)],
    )
    spec = EngineSpec(
        workflows=[w],
        streams=[StreamDef("l", VAL_COLS), StreamDef("r", VAL_COLS)],
        tables=[TableDef("out", VAL_COLS)],
    )
    e = Engine(spec)
    from streamtx.ingest import StreamIngestor

    left = StreamIngestor(e, "l", BatchingPolicy("fixed_count", 1))
    right = StreamIngestor(e, "r", BatchingPolicy("fixed_count", 1))
    left.push((1,))
    left.push((2,))
    e.run_until_idle()
    assert e.counters.te_committed == 0  # right side still missing
    right.push((7,))
    e.run_until_idle()
    assert [t.values[0] for t in e.store.table("out").rows] == [107]
    right.push((8,))
    e.run_until_idle()
    assert sorted(t.values[0] for t in e.store.table("out").rows) == [107, 208]


def test_diamond_join_runs_once_with_both_inputs():
    def fan_out(ctx):
        ctx.emit("sab", ctx.input_tuples("s0"))
        ctx.emit("sac", ctx.input_tuples("s0"))

    def bump(src, dst, delta):
        def body(ctx):
            ctx.emit(dst, [(t.values[0] + delta,) for t in ctx.input_tuples(src)])

        return body

    def join(ctx):
        b = [t.values[0] for t in ctx.input_tuples("sbd")]
        c = [t.values[0] for t in ctx.input_tuples("scd")]
        ctx.insert("out", (sum(b) + sum(c),))

    w = register_workflow(
        "diamond",
        [
            ProcedureDef("A", ProcedureKind.BORDER, ("s0",), body=fan_out),
            ProcedureDef("B", ProcedureKind.INTERIOR, ("sab",), body=bump("sab", "sbd", 10)),
            ProcedureDef("C", ProcedureKind.INTERIOR, ("sac",), body=bump("sac", "scd", 20)),
            ProcedureDef("D", ProcedureKind.INTERIOR, ("sbd", "scd"), body=join),
        ],
        [
            ("A", "sab", "B"),
            ("A", "sac", "C"),
            ("B", "sbd", "D"),
            ("C", "scd", "D"),
        ],
    )
    spec = EngineSpec(
        workflows=[w],
        streams=[StreamDef(s, VAL_COLS) for s in ("s0", "sab", "sac", "sbd", "scd")],
        tables=[TableDef("out", VAL_COLS)],
    )
    e = Engine(spec)
    feed(e, [1, 2], stream="s0")
    e.run_until_idle()
    # per round: D consumed (v+10) + (v+20) exactly once
    assert sorted(t.values[0] for t in e.store.table("out").rows) == [32, 34]
    per_round = [te.procedure for te in e.committed_schedule if te.round == 1]
    assert per_round.count("D") == 1
    assert validate(e.committed_schedule, w).correct


def held_batches(e):
    """(stream, batch) of every batch the engine's streams hold."""
    return {
        (name, b)
        for name, plan in e.partition.stream_plans.items()
        for b in plan.table.batches
    }


def two_root_group_spec(abort):
    """P fans out to A and B, which both feed C; {A, B, C} is one nested
    group with two roots. ``abort`` is the set of (procedure, round) that
    abort."""

    def body(ins, outs):
        def run(ctx):
            if (ctx.proc.name, ctx.round) in abort:
                ctx.abort("forced")
            rows = [t for s in ins for t in ctx.input_tuples(s)]
            for out in outs:
                ctx.emit(out, rows)

        return run

    kinds = {"P": ProcedureKind.BORDER}
    ins = {"P": ("s0",), "A": ("sA",), "B": ("sB",), "C": ("sAC", "sBC")}
    outs = {"P": ("sA", "sB"), "A": ("sAC",), "B": ("sBC",), "C": ()}
    w = register_workflow(
        "two_roots",
        [
            ProcedureDef(
                n, kinds.get(n, ProcedureKind.INTERIOR), ins[n], body=body(ins[n], outs[n])
            )
            for n in "PABC"
        ],
        [("P", "sA", "A"), ("P", "sB", "B"), ("A", "sAC", "C"), ("B", "sBC", "C")],
        nested_groups=[NestedGroup("g", ("A", "B", "C"), (("A", "C"), ("B", "C")))],
    )
    streams = [StreamDef(s, VAL_COLS) for s in ("s0", "sA", "sB", "sAC", "sBC")]
    return EngineSpec(workflows=[w], streams=streams)


@pytest.mark.parametrize("child", ["A", "B", "C"])
def test_group_abort_drops_every_root_input(child):
    # the trigger fires the group through A; when any child aborts round 2,
    # the batch B would have read is dropped too, and nothing waits for it
    e = Engine(two_root_group_spec({(child, 2)}))
    feed(e, [1, 2, 3], stream="s0")
    e.run_until_idle()
    rounds = [(te.procedure, te.round) for te in e.committed_schedule]
    assert [r for p, r in rounds if p == "C"] == [1, 3]
    assert held_batches(e) == set()
    assert e.partition.trigger_engine.pending == set()
    assert validate(e.committed_schedule, e.spec.workflows[0]).correct


def test_group_commit_collects_an_input_of_a_child_that_did_not_run():
    # in the group {A, B, C}, B emits only odd values, so C runs rounds 1
    # and 3 alone; the batch A sent to C for rounds 2 and 4 dies with the
    # group's commit of the round, since no child runs a round twice
    def fan_out(ctx):
        ctx.emit("sab", ctx.input_tuples("s0"))
        ctx.emit("sac", ctx.input_tuples("s0"))

    def odd(ctx):
        ctx.emit("sbc", [t for t in ctx.input_tuples("sab") if t.values[0] % 2])

    def join(ctx):
        for t in ctx.input_tuples("sac") + ctx.input_tuples("sbc"):
            ctx.insert("out", t.values)

    w = register_workflow(
        "odd_join",
        [
            ProcedureDef("A", ProcedureKind.BORDER, ("s0",), body=fan_out),
            ProcedureDef("B", ProcedureKind.INTERIOR, ("sab",), body=odd),
            ProcedureDef("C", ProcedureKind.INTERIOR, ("sac", "sbc"), body=join),
        ],
        [("A", "sab", "B"), ("A", "sac", "C"), ("B", "sbc", "C")],
        nested_groups=[
            NestedGroup("g", ("A", "B", "C"), (("A", "B"), ("A", "C"), ("B", "C")))
        ],
    )
    e = Engine(
        EngineSpec(
            workflows=[w],
            streams=[StreamDef(s, VAL_COLS) for s in ("s0", "sab", "sac", "sbc")],
            tables=[TableDef("out", VAL_COLS)],
        )
    )
    feed(e, [1, 2, 3, 4], stream="s0")
    e.run_until_idle()
    assert held_batches(e) == set()
    assert sorted(t.values for t in e.store.table("out").rows) == [
        (1,), (1,), (3,), (3,)
    ]
    assert [(te.procedure, te.round) for te in e.committed_schedule] == [
        (p, r) for r in (1, 2, 3, 4) for p in ("ABC" if r % 2 else "AB")
    ]
    assert validate(e.committed_schedule, w).correct


def test_join_input_of_a_dead_round_collected_by_the_next():
    # C aborts round 1, so D never runs round 1 and B's batch 1 waits at the
    # join; D's round 2 collects it, since D never runs a lower round again
    e = Engine(dead_round_diamond_spec())
    ing = StreamIngestor(e, "s0", BatchingPolicy("fixed_count", 1))
    ing.push((1,))
    e.run_until_idle()
    assert held_batches(e) == {("sbd", 1)}  # held until D runs a later round
    ing.push((2,))
    e.run_until_idle()
    assert held_batches(e) == set()
    assert e.partition.trigger_engine.pending == set()
    assert [te.round for te in e.committed_schedule if te.procedure == "D"] == [2]


REENTRY = {
    "step": lambda p: p.step(),
    "run_until_idle": lambda p: p.run_until_idle(),
    "drain_and_quiesce": lambda p: p.drain_and_quiesce(),
    "execute": lambda p: p.execute(p.client_queue[0]),
}


@pytest.mark.parametrize("how", sorted(REENTRY))
def test_reentrant_body_aborts_alone(how):
    # round 1's body pumps its own partition while round 2 is queued: the
    # pump raises before it pops anything, so only round 1 aborts
    def body(ctx):
        if ctx.round == 1:
            REENTRY[how](ctx.partition)
        ctx.insert("out", (ctx.round,))

    w = register_workflow(
        "reentry", [ProcedureDef("P", ProcedureKind.BORDER, ("s1",), body=body)]
    )
    e = Engine(
        EngineSpec(
            workflows=[w],
            streams=[StreamDef("s1", VAL_COLS)],
            tables=[TableDef("out", VAL_COLS)],
        )
    )
    opened = OpenExecutions(e)
    tickets = [
        e.ingest_batch("s1", AtomicBatch(r, (Tuple((r,), tuple_id=r, batch_id=r),)))
        for r in (1, 2, 3)
    ]
    e.run_until_idle()
    assert [t.outcome for t in tickets] == ["aborted", "committed", "committed"]
    assert tickets[0].reason == "serial execution violated"
    assert sorted(t.values for t in e.store.table("out").rows) == [(2,), (3,)]
    assert opened.most == 1  # the re-entering pump opened no execution


def test_body_ingest_aborts_alone_and_loses_no_round():
    # border P's round-1 body feeds rounds 1 and 2 of border Q with a queue
    # bound of 1: the feed raises before it takes or queues anything, so P
    # round 1 aborts, and the client can still feed both Q rounds
    def q_batch(r):
        return AtomicBatch(r, (Tuple((10 + r,), tuple_id=r, batch_id=r),))

    engine = []
    fed = []

    def p_body(ctx):
        for r in (1, 2):
            fed.append(engine[0].ingest_batch("sq", q_batch(r)))
        ctx.insert("out", (ctx.round,))

    def q_body(ctx):
        for t in ctx.input_tuples("sq"):
            ctx.insert("out", t.values)

    w = register_workflow(
        "feeds",
        [
            ProcedureDef("P", ProcedureKind.BORDER, ("sp",), body=p_body),
            ProcedureDef("Q", ProcedureKind.BORDER, ("sq",), body=q_body),
        ],
    )
    e = Engine(
        EngineSpec(
            workflows=[w],
            streams=[StreamDef("sp", VAL_COLS), StreamDef("sq", VAL_COLS)],
            tables=[TableDef("out", VAL_COLS)],
        ),
        queue_bound=1,
    )
    engine.append(e)
    p1 = e.ingest_batch("sp", AtomicBatch(1, (Tuple((1,), tuple_id=1, batch_id=1),)))
    e.run_until_idle()
    assert p1.outcome == "aborted"
    assert p1.reason == "serial execution violated"
    assert fed == []  # no ticket was handed out, so none is left unresolved
    assert not e.partition.client_queue and not e.partition.fast_track
    assert "Q" not in e.partition.last_queued
    assert e.store.table("out").rows == []
    tickets = [e.ingest_batch("sq", q_batch(r)) for r in (1, 2)]
    e.run_until_idle()
    assert [t.outcome for t in tickets] == ["committed", "committed"]
    assert all(t.acknowledged for t in tickets)
    assert sorted(t.values for t in e.store.table("out").rows) == [(11,), (12,)]


def test_not_partitionable_guard():
    from streamtx.engine import partitioned_engines
    from streamtx.errors import NotPartitionable

    with pytest.raises(NotPartitionable):
        partitioned_engines(lambda i: chain_spec(2), 2)
