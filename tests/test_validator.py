from itertools import permutations

import pytest

from streamtx.errors import TooLarge, UnknownProcedureInSchedule
from streamtx.model import (
    NestedGroup,
    ProcedureDef,
    ProcedureKind,
    TransactionExecution,
    register_workflow,
    topological_orderings,
)
from streamtx.validator import (
    brute_force_correct_schedules,
    enumerate_correct_schedules,
    validate,
)

from oracles import correct_schedules_brute


def te(proc, round_):
    return TransactionExecution(proc, round_)


def two_proc_chain():
    return register_workflow(
        "pair",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",)),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s12",)),
        ],
        [("SP1", "s12", "SP2")],
    )


def diamond():
    return register_workflow(
        "diamond",
        [
            ProcedureDef("A", ProcedureKind.BORDER, ("s0",)),
            ProcedureDef("B", ProcedureKind.INTERIOR, ("sab",)),
            ProcedureDef("C", ProcedureKind.INTERIOR, ("sac",)),
            ProcedureDef("D", ProcedureKind.INTERIOR, ("sbd", "scd")),
        ],
        [
            ("A", "sab", "B"),
            ("A", "sac", "C"),
            ("B", "sbd", "D"),
            ("C", "scd", "D"),
        ],
    )


def test_two_rounds_two_procs_exactly_two_schedules():
    w = two_proc_chain()
    good = enumerate_correct_schedules(w, rounds=2)
    assert good == sorted(
        [
            [("SP1", 1), ("SP2", 1), ("SP1", 2), ("SP2", 2)],
            [("SP1", 1), ("SP1", 2), ("SP2", 1), ("SP2", 2)],
        ]
    )
    # every other permutation of the four executions is a violation
    tes = [te("SP1", 1), te("SP2", 1), te("SP1", 2), te("SP2", 2)]
    n_correct = 0
    for perm in permutations(tes):
        if validate(list(perm), w).correct:
            n_correct += 1
            assert [(x.procedure, x.round) for x in perm] in good
    assert n_correct == 2


def test_empty_schedule_correct():
    assert validate([], two_proc_chain()).correct


def test_oltp_interleaves_anywhere():
    w = register_workflow(
        "mix",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",)),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s12",)),
            ProcedureDef("Q", ProcedureKind.OLTP),
        ],
        [("SP1", "s12", "SP2")],
    )
    base = [te("SP1", 1), te("SP2", 1), te("SP1", 2), te("SP2", 2)]
    for gap in range(len(base) + 1):
        sched = base[:gap] + [te("Q", 0)] + base[gap:]
        assert validate(sched, w).correct, f"OLTP at gap {gap} rejected"


def test_foreign_procedures_skipped_unless_strict():
    w = two_proc_chain()
    sched = [te("SP1", 1), te("ALIEN", 0), te("SP2", 1)]
    assert validate(sched, w).correct
    with pytest.raises(UnknownProcedureInSchedule):
        validate(sched, w, strict=True)


def test_workflow_order_violation_detected():
    w = two_proc_chain()
    report = validate([te("SP2", 1), te("SP1", 1)], w)
    assert not report.correct
    assert report.violations[0].kind == "workflow_order"


def test_stream_order_violation_detected():
    w = two_proc_chain()
    report = validate(
        [te("SP1", 1), te("SP1", 3), te("SP1", 2)], w
    )
    assert any(v.kind == "stream_order" for v in report.violations)


def test_fixed_order_subset_of_any_topological():
    w = diamond()
    fixed = enumerate_correct_schedules(w, 1, mode="fixed_order")
    relaxed = enumerate_correct_schedules(w, 1, mode="any_topological")
    assert set(map(tuple, fixed)) <= set(map(tuple, relaxed))
    assert len(fixed) == 1
    assert len(relaxed) == len(topological_orderings(w, 100))


def test_enumeration_matches_bruteforce_chain():
    w = two_proc_chain()
    for rounds in (1, 2, 3):
        fast = enumerate_correct_schedules(w, rounds)
        slow = brute_force_correct_schedules(w, rounds)
        assert fast == slow


def test_enumeration_matches_bruteforce_diamond():
    w = diamond()
    fast = enumerate_correct_schedules(w, 2)
    slow = brute_force_correct_schedules(w, 2)
    assert fast == slow


def test_enumeration_matches_independent_oracle():
    w = two_proc_chain()
    got = enumerate_correct_schedules(w, 2)
    want = sorted(
        [list(p) for p in correct_schedules_brute(["SP1", "SP2"], [("SP1", "SP2")], 2)]
    )
    assert got == want


def test_single_proc_three_rounds_single_schedule():
    w = register_workflow(
        "solo", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",))]
    )
    got = enumerate_correct_schedules(w, 3)
    assert got == [[("SP1", 1), ("SP1", 2), ("SP1", 3)]]


def test_enumeration_guard():
    w = two_proc_chain()
    with pytest.raises(TooLarge):
        enumerate_correct_schedules(w, 7)


def test_nested_contiguity():
    w = register_workflow(
        "g",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",)),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s12",)),
            ProcedureDef("Q", ProcedureKind.OLTP),
        ],
        [("SP1", "s12", "SP2")],
        nested_groups=[NestedGroup("pair", ("SP1", "SP2"), (("SP1", "SP2"),))],
    )
    ok = [te("SP1", 1), te("SP2", 1), te("Q", 0)]
    assert validate(ok, w).correct
    bad = [te("SP1", 1), te("Q", 0), te("SP2", 1)]
    report = validate(bad, w)
    assert any(v.kind == "nested_interleave" for v in report.violations)


def test_nested_partial_order():
    w = register_workflow(
        "g2",
        [
            ProcedureDef("A", ProcedureKind.BORDER, ("s0",)),
            ProcedureDef("B", ProcedureKind.INTERIOR, ("sab",)),
            ProcedureDef("C", ProcedureKind.INTERIOR, ("sac",)),
        ],
        [("A", "sab", "B"), ("A", "sac", "C")],
        nested_groups=[
            NestedGroup("trio", ("A", "B", "C"), (("A", "B"), ("A", "C")))
        ],
    )
    assert validate([te("A", 1), te("B", 1), te("C", 1)], w).correct
    assert validate([te("A", 1), te("C", 1), te("B", 1)], w).correct
    report = validate([te("B", 1), te("A", 1), te("C", 1)], w)
    assert not report.correct


def test_validator_is_pure():
    w = diamond()
    sched = [te("A", 1), te("B", 1), te("C", 1), te("D", 1)]
    r1 = validate(sched, w)
    r2 = validate(sched, w)
    assert r1.as_dict() == r2.as_dict()


# --- window ownership ---


# a foreign procedure's access to window w, owned by SP1; "program" is the
# statement program on its own input stream x, which feeds w
FOREIGN_ACCESS = {
    "select": lambda ctx: ctx.select("w"),
    "insert": lambda ctx: ctx.insert("w", (7,)),
    "aggregate": lambda ctx: ctx.aggregate("w", "count"),
    "window_insert": lambda ctx: ctx.window_insert("w", [(7,)]),
    "program": None,
}


@pytest.mark.parametrize("access", FOREIGN_ACCESS)
def test_foreign_window_access_aborts(access):
    from streamtx.engine import Engine, EngineSpec, StreamDef
    from streamtx.errors import BadDefinition
    from streamtx.model import AtomicBatch, Tuple, WindowSpec
    from streamtx.triggers import StatementTrigger, WindowInsertStmt

    def owner(ctx):
        ctx.window_insert("w", ctx.input_tuples("s1"))
        with pytest.raises(BadDefinition):  # rows leave a window by sliding
            ctx.delete("w", None)

    wf = register_workflow(
        "wv",
        [
            ProcedureDef(
                "SP1", ProcedureKind.BORDER, ("s1",),
                window_defs=(WindowSpec("w", 2, 1, "SP1"),), body=owner,
            ),
            ProcedureDef("SPX", ProcedureKind.BORDER, ("x",), body=FOREIGN_ACCESS[access]),
        ],
    )
    cols = (("value", "int"),)
    spec = EngineSpec(
        workflows=[wf],
        streams=[StreamDef("s1", cols), StreamDef("x", cols)],
        window_columns={"w": cols},
        statement_triggers=(
            [StatementTrigger("x", (WindowInsertStmt("x", "w"),))]
            if access == "program" else []
        ),
    )
    e = Engine(spec)

    def feed(stream, r):
        batch = AtomicBatch(r, (Tuple((r,), tuple_id=r, batch_id=r),))
        ticket = e.ingest_batch(stream, batch)
        e.run_until_idle()
        return ticket

    assert feed("s1", 1).committed
    foreign = feed("x", 1)
    assert foreign.outcome == "aborted"
    assert foreign.reason == "window w is owned by SP1, not SPX"
    assert feed("s1", 2).committed
    assert [t.values for t in e.store.window("w").active] == [(1,), (2,)]
    assert [te_.procedure for te_ in e.committed_schedule] == ["SP1", "SP1"]


def test_window_guard_raises_without_hook():
    from streamtx.engine import Engine, EngineSpec, StreamDef
    from streamtx.errors import WindowScopeViolation
    from streamtx.ingest import BatchingPolicy, FeedSource, ingest
    from streamtx.model import WindowSpec

    def b1(ctx):
        ctx.window_insert("w", ctx.input_tuples("s1"))
        ctx.emit("s12", ctx.input_tuples("s1"))

    def b2(ctx):
        ctx.select("w")

    wf = register_workflow(
        "wv2",
        [
            ProcedureDef(
                "SP1", ProcedureKind.BORDER, ("s1",),
                window_defs=(WindowSpec("w", 2, 1, "SP1"),), body=b1,
            ),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s12",), body=b2),
        ],
        [("SP1", "s12", "SP2")],
    )
    spec = EngineSpec(
        workflows=[wf],
        streams=[StreamDef("s1", (("value", "int"),)), StreamDef("s12", (("value", "int"),))],
        window_columns={"w": (("value", "int"),)},
    )
    e = Engine(spec)
    tickets = ingest(
        e, FeedSource.from_values([1]), BatchingPolicy("fixed_count", 1), "s1"
    )
    e.run_until_idle()
    # SP1 commits, SP2 aborts on the scope violation
    assert [te_.procedure for te_ in e.committed_schedule] == ["SP1"]
    assert e.counters.te_aborted == 1
