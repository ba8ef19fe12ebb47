import pytest

from streamtx.errors import (
    BadDefinition,
    CycleDetected,
    DuplicateName,
    UnknownStream,
    WindowOwnedByTwoProcedures,
)
from streamtx.model import (
    AtomicBatch,
    Edge,
    NestedGroup,
    ProcedureDef,
    ProcedureKind,
    Tuple,
    WindowSpec,
    register_workflow,
    topological_orderings,
)

from oracles import all_topological_orders


def border(name, streams, windows=(), tables=()):
    return ProcedureDef(
        name,
        ProcedureKind.BORDER,
        stream_inputs=tuple(streams),
        window_defs=tuple(windows),
        table_inputs=tuple(tables),
    )


def interior(name, streams, windows=(), tables=()):
    return ProcedureDef(
        name,
        ProcedureKind.INTERIOR,
        stream_inputs=tuple(streams),
        window_defs=tuple(windows),
        table_inputs=tuple(tables),
    )


def oltp(name, tables=()):
    return ProcedureDef(name, ProcedureKind.OLTP, table_inputs=tuple(tables))


def chain_workflow():
    return register_workflow(
        "chain",
        [border("SP1", ["s1"]), interior("SP2", ["s12"])],
        [("SP1", "s12", "SP2")],
    )


def test_two_procedure_chain_order():
    w = chain_workflow()
    assert w.chosen_order == ("SP1", "SP2")


def test_single_oltp_workflow():
    w = register_workflow("solo", [oltp("Q")])
    assert w.chosen_order == ("Q",)


def test_cycle_detected():
    a = interior("A", ["sb"])
    b = interior("B", ["sa"])
    with pytest.raises(CycleDetected):
        register_workflow("cyc", [a, b], [("A", "sa", "B"), ("B", "sb", "A")])


def test_duplicate_procedure_name():
    with pytest.raises(DuplicateName):
        register_workflow("dup", [oltp("X"), oltp("X")])


def test_unknown_edge_stream():
    with pytest.raises(UnknownStream):
        register_workflow(
            "bad",
            [border("A", ["s1"]), interior("B", ["other"])],
            [("A", "s12", "B")],
        )


def test_interior_without_producer_rejected():
    with pytest.raises(UnknownStream):
        register_workflow("orphan", [interior("B", ["nowhere"])])


def test_window_owned_by_two_procedures():
    w1 = WindowSpec("w", 4, 2, "A")
    a = ProcedureDef("A", ProcedureKind.BORDER, ("s1",), (w1,))
    w2 = WindowSpec("w", 4, 2, "B")
    b = ProcedureDef("B", ProcedureKind.BORDER, ("s2",), (w2,))
    with pytest.raises(WindowOwnedByTwoProcedures):
        register_workflow("ww", [a, b])


def test_oltp_with_stream_input_rejected():
    with pytest.raises(BadDefinition):
        ProcedureDef("bad", ProcedureKind.OLTP, stream_inputs=("s",))


def test_streaming_without_stream_rejected():
    with pytest.raises(BadDefinition):
        ProcedureDef("bad", ProcedureKind.INTERIOR)


def test_window_spec_bounds():
    # size and slide are ints, not bools or floats, with 1 <= slide <= size
    for size, slide in [(0, 1), (3, 4), (2.5, 1), (True, 1), (2, 1.0), (2, True)]:
        with pytest.raises(BadDefinition):
            WindowSpec("w", size, slide, "A")


def diamond_workflow():
    return register_workflow(
        "diamond",
        [
            border("A", ["s0"]),
            interior("B", ["sab"]),
            interior("C", ["sac"]),
            interior("D", ["sbd", "scd"]),
        ],
        [
            ("A", "sab", "B"),
            ("A", "sac", "C"),
            ("B", "sbd", "D"),
            ("C", "scd", "D"),
        ],
    )


def test_topological_orderings_chain():
    w = register_workflow(
        "c3",
        [border("A", ["s0"]), interior("B", ["sab"]), interior("C", ["sbc"])],
        [("A", "sab", "B"), ("B", "sbc", "C")],
    )
    assert topological_orderings(w, 10) == [["A", "B", "C"]]


def test_topological_orderings_diamond():
    w = diamond_workflow()
    assert topological_orderings(w, 10) == [
        ["A", "B", "C", "D"],
        ["A", "C", "B", "D"],
    ]


def test_topological_orderings_independent_nodes():
    w = register_workflow("ind", [oltp("A"), oltp("B"), oltp("C")])
    orders = topological_orderings(w, 6)
    assert len(orders) == 6
    assert orders[0] == ["A", "B", "C"]


def test_topological_orderings_limit():
    w = register_workflow("ind", [oltp("A"), oltp("B"), oltp("C")])
    assert len(topological_orderings(w, 2)) == 2


def test_topological_orderings_against_bruteforce():
    import random

    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(2, 6)
        names = [f"P{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.append((names[i], names[j]))
        procs, built_edges = [], []
        incoming = {b for _, b in edges}
        for i, nm in enumerate(names):
            ins = [f"e{a}_{nm}" for a, b in edges if b == nm]
            if nm in incoming:
                procs.append(interior(nm, ins))
            else:
                procs.append(border(nm, [f"x{nm}"]))
        for a, b in edges:
            built_edges.append((a, f"e{a}_{b}", b))
        w = register_workflow(f"r{trial}", procs, built_edges)
        got = topological_orderings(w, 10_000)
        want = all_topological_orders(names, edges)
        assert got == want
        pos = {nm: i for i, nm in enumerate(w.chosen_order)}
        assert all(pos[a] < pos[b] for a, b in edges)


def test_atomic_batch_invariants():
    with pytest.raises(BadDefinition):
        AtomicBatch(1, ())
    with pytest.raises(BadDefinition):
        AtomicBatch(1, (Tuple((1,), batch_id=2),))


def test_nested_group_validation():
    with pytest.raises(BadDefinition):
        NestedGroup("g", ("A",))
    with pytest.raises(BadDefinition):
        NestedGroup("g", ("A", "B"), (("A", "C"),))
    with pytest.raises(BadDefinition):
        NestedGroup("g", ("A", "B"), (("A", "B"), ("B", "A")))


def test_nested_group_closure_rejected():
    # A -> B -> C with a group {A, C}: B would have to run inside the group
    with pytest.raises(BadDefinition):
        register_workflow(
            "leaky",
            [
                border("A", ["s0"]),
                interior("B", ["sab"]),
                interior("C", ["sbc"]),
            ],
            [("A", "sab", "B"), ("B", "sbc", "C")],
            nested_groups=[NestedGroup("g", ("A", "C"))],
        )


def test_group_child_fed_from_inside_and_outside_rejected():
    # P2 is fed by P0 inside the group and by P1 from outside it: only the
    # entry child P0 fires the group, so P2 would run only when P1's batch
    # happened to be there first, and otherwise never
    procs = [border("P0", ["x0"]), border("P1", ["x1"]), interior("P2", ["e0_2", "e1_2"])]
    edges = [("P0", "e0_2", "P2"), ("P1", "e1_2", "P2")]
    with pytest.raises(BadDefinition, match="child P2 reads streams from both"):
        register_workflow(
            "mixed", procs, edges, nested_groups=[NestedGroup("g", ("P0", "P2"))]
        )
    register_workflow("ungrouped", procs, edges)
    register_workflow(
        "inside",
        [border("P0", ["x0"]), interior("P2", ["e0_2"])],
        [("P0", "e0_2", "P2")],
        nested_groups=[NestedGroup("g", ("P0", "P2"))],
    )


def test_nested_group_order_must_match_workflow():
    with pytest.raises(BadDefinition):
        register_workflow(
            "rev",
            [border("A", ["s0"]), interior("B", ["sab"])],
            [("A", "sab", "B")],
            nested_groups=[NestedGroup("g", ("A", "B"), (("B", "A"),))],
        )


def test_group_membership_unique():
    w = diamond_workflow()
    with pytest.raises(BadDefinition):
        register_workflow(
            "two",
            list(w.procedures),
            list(w.edges),
            nested_groups=[
                NestedGroup("g1", ("A", "B")),
                NestedGroup("g2", ("B", "C")),
            ],
        )


def test_chosen_order_respects_every_edge():
    w = diamond_workflow()
    pos = {n: i for i, n in enumerate(w.chosen_order)}
    for e in w.edges:
        assert pos[e.producer] < pos[e.consumer]
