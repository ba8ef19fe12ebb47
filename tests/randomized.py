"""Seeded random run generators: end-to-end workflows for the master
schedule property, strong recovery of such a workflow crashed at any step,
window aggregates across aborts and a crash, a two-input border across
arrival orders, checkpoints and crashes, checkpoints that reuse the
previous one's encoded rows, and one bit flipped in a durable file; and
the fixed specs they and other tests share."""

import os
import random
import shutil

from oracles import sliding_window_events
from streamtx.engine import (
    Engine,
    EngineSpec,
    StreamDef,
    TableDef,
    recover,
)
from streamtx.errors import BadDefinition, CorruptLogRecord, CorruptSnapshot, VersionMismatch
from streamtx.ingest import BatchingPolicy, StreamIngestor
from streamtx.model import (
    AtomicBatch,
    NestedGroup,
    ProcedureDef,
    ProcedureKind,
    Tuple,
    WindowSpec,
    register_workflow,
)
from streamtx.recovery import (
    CACHE_FILE,
    LOG_FILE,
    RecoveryMode,
    read_input_cache,
    read_log,
)
from streamtx.snapshot import restore_state, snapshot_state
from streamtx.storage import Pred
from streamtx.validator import validate
from streamtx.triggers import AggregateInsert, StatementTrigger, WindowInsertStmt
from streamtx.workloads import pe_chain_spec

VAL_COLS = (("value", "int"),)


def random_workflow(rng: random.Random, tag: str):
    """A random DAG of up to 4 streaming procedures with passthrough bodies,
    random per-round aborts, and sometimes a nested group."""
    n = rng.randint(1, 4)
    names = [f"P{i}" for i in range(n)]
    edges = []  # (i, j) index pairs
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.45:
                edges.append((i, j))
    in_edges = {j for _, j in edges}
    abort_set = set()
    for name in names:
        for r in range(1, 21):
            if rng.random() < 0.06:
                abort_set.add((name, r))

    streams = []
    procs = []
    edge_decls = []
    out_streams = {name: [] for name in names}
    in_streams = {name: [] for name in names}
    for i, j in edges:
        s = f"e{i}_{j}"
        streams.append(StreamDef(s, VAL_COLS))
        edge_decls.append((names[i], s, names[j]))
        out_streams[names[i]].append(s)
        in_streams[names[j]].append(s)
    externals = []
    for i, name in enumerate(names):
        if i not in in_edges:
            s = f"x{i}"
            streams.append(StreamDef(s, VAL_COLS))
            in_streams[name].append(s)
            externals.append(s)

    def make_body(name, ins, outs):
        def body(ctx):
            if (name, ctx.round) in abort_set:
                ctx.abort("random abort")
            rows = [t for s in ins for t in ctx.input_tuples(s)]
            for out in outs:
                ctx.emit(out, rows)

        return body

    for i, name in enumerate(names):
        kind = ProcedureKind.BORDER if i not in in_edges else ProcedureKind.INTERIOR
        procs.append(
            ProcedureDef(
                name,
                kind,
                tuple(in_streams[name]),
                body=make_body(name, in_streams[name], out_streams[name]),
            )
        )

    groups = []
    if n >= 2 and rng.random() < 0.5:
        for _ in range(6):  # try a few subsets; some violate group closure
            size = rng.randint(2, n)
            children = tuple(sorted(rng.sample(names, size)))
            order = tuple(
                (names[i], names[j])
                for i, j in edges
                if names[i] in children and names[j] in children
            )
            try:
                register_workflow(
                    f"probe_{tag}", procs, edge_decls,
                    [NestedGroup("g", children, order)],
                )
            except BadDefinition:
                continue
            groups = [NestedGroup("g", children, order)]
            break
    w = register_workflow(f"wf_{tag}", procs, edge_decls, groups)
    return w, streams, externals, abort_set


class OpenExecutions:
    """Wraps one engine's ``Partition._run_one``, on the instance, to record
    the most executions that were open at once (``most``)."""

    def __init__(self, engine: Engine):
        self.open = self.most = 0
        run_one = engine.partition._run_one

        def counted(plan, req):
            self.open += 1
            self.most = max(self.most, self.open)
            try:
                return run_one(plan, req)
            finally:
                self.open -= 1

        engine.partition._run_one = counted


def random_run(seed: int):
    """One randomized end-to-end run; returns (engine, workflow, its
    ``OpenExecutions``)."""
    rng = random.Random(seed)
    w, streams, externals, _ = random_workflow(rng, str(seed))

    def oltp_body(ctx):
        ctx.insert("olog", (ctx.args["v"],))

    oltp = register_workflow(
        f"oltp_{seed}", [ProcedureDef("Q", ProcedureKind.OLTP, body=oltp_body)]
    )
    spec = EngineSpec(
        workflows=[w, oltp],
        streams=streams,
        tables=[TableDef("olog", VAL_COLS)],
    )
    engine = Engine(spec)
    opened = OpenExecutions(engine)
    rounds = rng.randint(1, 20)
    ingestors = {
        s: StreamIngestor(engine, s, BatchingPolicy("fixed_count", 1))
        for s in externals
    }
    for r in range(rounds):
        for s in externals:
            ingestors[s].push((rng.randint(0, 9),))
        while rng.random() < 0.3:
            engine.call_oltp("Q", {"v": rng.randint(0, 99)})
        if rng.random() < 0.5:
            engine.run_until_idle()
        assert_pending_is_waiting(engine)
        assert_nothing_held_up_to_consumed(engine)
    engine.run_until_idle()
    assert_pending_is_waiting(engine)
    assert_nothing_held_up_to_consumed(engine)
    return engine, w, opened


def assert_pending_is_waiting(engine: Engine) -> None:
    """``TriggerEngine.pending`` is exactly the batches held on streams
    that fire a procedure: those whose consumer has not committed."""
    triggers = engine.partition.trigger_engine
    held = {
        (s, b)
        for s, plan in triggers.stream_plans.items()
        if plan.target is not None
        for b in plan.table.batches
    }
    assert triggers.pending == held, (triggers.pending, held)


def assert_nothing_held_up_to_consumed(engine: Engine) -> None:
    """A stream that some procedure reads holds no batch at or below the
    last round its consumer's transaction ended, by commit or abort: the
    consumer takes its rounds in order, so such a batch would wait
    forever."""
    stranded = {
        (tab.name, b)
        for plan in engine.partition.plans.values()
        for tab in plan.inputs
        for b in tab.batches
        if b <= tab.last_consumed_batch
    }
    assert not stranded, stranded


def snapshot_with_marks(engine: Engine, marks: dict[str, int]) -> bytes:
    """``engine``'s snapshot with the ``last_consumed_batch`` of each stream
    in ``marks`` raised to its value, as ending a round that changes nothing
    else raises it, and every other byte as it is; ``engine`` keeps its own
    marks."""
    tabs = {s: engine.store.stream(s) for s in marks}
    old = {s: tab.last_consumed_batch for s, tab in tabs.items()}
    for s, tab in tabs.items():
        tab.last_consumed_batch = max(old[s], marks[s])
    try:
        return snapshot_state(engine.store)
    finally:
        for s, tab in tabs.items():
            tab.last_consumed_batch = old[s]


# --- strong recovery of a random workflow ---


def group_boundaries(schedule, workflow) -> set[int]:
    """The commit seqs at which no nested-group instance is half committed:
    0, and every commit not followed by a child of its own group's round."""
    group_of = {c: g.parent_name for g in workflow.nested_groups for c in g.children}
    tes = list(schedule)
    out = {0}
    for te, nxt in zip(tes, tes[1:] + [None]):
        group = group_of.get(te.procedure)
        if (
            nxt is None
            or group is None
            or group_of.get(nxt.procedure) != group
            or nxt.round != te.round
        ):
            out.add(te.commit_seq)
    return out


def crash_in_flush(engine: Engine, rng: random.Random) -> None:
    """Crash ``engine`` inside a flush of the records its log buffers: a
    random prefix of their bytes, maybe none, reaches the file, which may
    leave a torn tail. None of them was acknowledged."""
    log = engine.partition.log
    buffered = b"".join(rec.encode() for rec, _ in log.pending)
    engine.crash()
    if buffered:
        with open(log.path, "ab") as fh:
            fh.write(buffered[: rng.randrange(len(buffered))])


def assert_aborted_rounds_refused(engine: Engine, data_dir: str) -> None:
    """The recovered ``engine`` refuses, on each of the border's inputs,
    every border round that a record of ``data_dir``'s command log carries
    as aborted, as the live engine did. A refused batch raises before
    anything is cached, so the probes change nothing."""
    *_, records = read_log(os.path.join(data_dir, LOG_FILE))
    plans = engine.partition.plans
    for proc, round_ in {a for rec in records for a in rec.aborted}:
        if plans[proc].proc.kind is not ProcedureKind.BORDER:
            continue
        row = Tuple((0,), tuple_id=round_, batch_id=round_)
        for stream in plans[proc].proc.stream_inputs:
            try:
                engine.ingest_batch(stream, AtomicBatch(round_, (row,)))
            except BadDefinition:
                continue
            raise AssertionError(f"recovered {proc} took aborted round {round_}")


def random_strong_crash_run(
    seed: int, data_dir: str
) -> list[tuple[int, set, dict, bytes, int]]:
    """One seeded strong-mode run of a ``random_workflow`` with group commit
    1-4, crashed inside a flush after a random step of a random feed and
    recovered; the recovered engine takes the rest of the feed and crashes
    again, the same way, after a random later step, and is recovered once
    more.

    Each life is checked against a crash-free run that takes the same
    steps, with a ``post_commit_hook`` snapshot at each commit. For the
    first, an engine without files takes the whole feed; for the second,
    an engine recovered from a copy of the first crash's files takes the
    rest of it. Each recovered engine must refuse every border round that
    its log carries as aborted (``assert_aborted_rounds_refused``).
    Returns, per life, (recovered commit seq, the crash-free schedule's
    group boundaries, its snapshots by commit seq, the recovered snapshot,
    the largest commit seq of a ticket acknowledged so far).
    """
    rng = random.Random(seed)
    w, streams, externals, _ = random_workflow(rng, str(seed))
    spec = EngineSpec(workflows=[w], streams=streams)
    steps = []  # ("feed", round, stream, value) or ("pump",)
    for r in range(1, rng.randint(1, 20) + 1):
        for s in externals:
            steps.append(("feed", r, s, rng.randint(0, 9)))
        if rng.random() < 0.5:
            steps.append(("pump",))
    steps.append(("pump",))
    crash_after = rng.randint(0, len(steps))
    args = dict(
        group_commit_max_batch=rng.randint(1, 4),
        group_commit_max_delay=3600,
        fsync=False,
    )

    def run(engine, steps):
        tickets = []
        for step in steps:
            if step[0] == "pump":
                engine.run_until_idle()
                continue
            _, r, s, v = step
            row = Tuple((v,), tuple_id=r, batch_id=r)
            tickets.append(engine.ingest_batch(s, AtomicBatch(r, (row,))))
        return [t for t in tickets if t is not None]

    def acked_by(tickets, acked=0):
        return max([acked] + [t.commit_seq for t in tickets if t.acknowledged])

    def recorder(states):
        def hook(p):
            states[p.commit_seq] = snapshot_state(p.store, p.id, p.commit_seq)

        return hook

    golden_states = {}
    golden = Engine(spec, post_commit_hook=recorder(golden_states))
    golden_states[0] = golden.snapshot_bytes()
    run(golden, steps)
    boundaries = group_boundaries(golden.committed_schedule, w)

    live = Engine(spec, data_dir=data_dir, recovery_mode=RecoveryMode.STRONG, **args)
    acked = acked_by(run(live, steps[:crash_after]))
    crash_in_flush(live, rng)
    shutil.copytree(data_dir, data_dir + "-golden")
    engine = recover(spec, data_dir, **args)
    assert_aborted_rounds_refused(engine, data_dir)
    seq = engine.partition.commit_seq
    lives = [(seq, boundaries, golden_states, engine.snapshot_bytes(), acked)]

    rest_states = {k: v for k, v in golden_states.items() if k <= seq}
    rest = recover(
        spec, data_dir + "-golden", post_commit_hook=recorder(rest_states), **args
    )
    assert_aborted_rounds_refused(rest, data_dir + "-golden")
    run(rest, steps[crash_after:])
    rest.close()
    rest_boundaries = group_boundaries(rest.committed_schedule, w)

    crash_again = rng.randint(crash_after, len(steps))
    acked = acked_by(run(engine, steps[crash_after:crash_again]), acked)
    crash_in_flush(engine, rng)
    engine = recover(spec, data_dir, **args)
    assert_aborted_rounds_refused(engine, data_dir)
    lives.append(
        (
            engine.partition.commit_seq,
            rest_boundaries,
            rest_states,
            engine.snapshot_bytes(),
            acked,
        )
    )
    engine.close()
    return lives


# --- window aggregates ---

WINDOW_COLS = (("i", "int"), ("f", "float"))
WINDOW_AGGREGATES = (("count", "i"),) + tuple(
    (op, col) for op in ("sum", "avg", "min", "max") for col in ("i", "f")
)
# the aggregates the window's running sums answer without reading its rows
ROW_FREE_AGGREGATES = (("count", "i"), ("sum", "i"), ("avg", "i"))


def _aggregate_stream(op: str, col: str) -> str:
    return op if op == "count" else f"{op}_{col}"


def _draw_aggregates(rng: random.Random) -> tuple:
    """A random window program: only aggregates that read no rows, or those
    mixed with aggregates that do (min/max, or a float column)."""
    picked = rng.sample(ROW_FREE_AGGREGATES, rng.randint(1, 3))
    if rng.random() < 0.5:
        reading = [a for a in WINDOW_AGGREGATES if a not in ROW_FREE_AGGREGATES]
        picked += rng.sample(reading, rng.randint(1, 3))
    rng.shuffle(picked)
    return tuple(picked)


def window_aggregate_spec(
    size: int,
    slide: int,
    abort_rounds: set,
    aggregates: tuple = WINDOW_AGGREGATES,
    via_statement: bool = False,
) -> EngineSpec:
    """A border procedure owns window ``w`` and aborts after inserting in
    ``abort_rounds``; every full window runs each of ``aggregates`` into its
    own output stream. The border's body feeds the window, or with
    ``via_statement`` a statement trigger on ``s1`` does."""

    def feeder(ctx):
        if not via_statement:
            ctx.window_insert("w", [t.values for t in ctx.input_tuples("s1")])
        if ctx.round in abort_rounds:
            ctx.abort("random abort")

    w = register_workflow(
        "win",
        [
            ProcedureDef(
                "feeder",
                ProcedureKind.BORDER,
                ("s1",),
                window_defs=(WindowSpec("w", size, slide, "feeder"),),
                body=feeder,
            )
        ],
    )
    streams = [StreamDef("s1", WINDOW_COLS)]
    for op, col in aggregates:
        out = "int" if op == "count" or (col == "i" and op != "avg") else "float"
        streams.append(StreamDef(_aggregate_stream(op, col), (("v", out),)))
    program = tuple(
        AggregateInsert("w", _aggregate_stream(op, col), op, col)
        for op, col in aggregates
    )
    triggers = [StatementTrigger("w", program)]
    if via_statement:
        triggers.append(StatementTrigger("s1", (WindowInsertStmt("s1", "w"),)))
    return EngineSpec(
        workflows=[w],
        streams=streams,
        window_columns={"w": WINDOW_COLS},
        statement_triggers=triggers,
    )


def _recompute(op: str, vals: list):
    if op == "count":
        return len(vals)
    if op == "sum":
        return sum(vals)
    if op == "avg":
        return float(sum(vals)) / len(vals)
    return min(vals) if op == "min" else max(vals)


def random_window_run(
    seed: int, data_dir: str, via_statement: bool = False
) -> tuple[dict, dict]:
    """One seeded window run with random size, slide, batchings and aborts,
    a strong checkpoint and then a crash and ``recover()`` at random rounds.
    With ``via_statement`` a statement trigger feeds the window, and its
    aggregate program is drawn at random (see ``_draw_aggregates``).

    Returns (got, want): each aggregate stream's values, and the same
    aggregates recomputed in plain Python over the committed rounds' tuples.
    """
    rng = random.Random(seed)
    size = rng.randint(1, 12)
    slide = rng.randint(1, size)
    rounds = rng.randint(1, 30)
    abort_rounds = {r for r in range(1, rounds + 1) if rng.random() < 0.2}
    checkpoint_at, crash_at = sorted(rng.randint(1, rounds) for _ in range(2))
    aggregates = _draw_aggregates(rng) if via_statement else WINDOW_AGGREGATES
    spec = window_aggregate_spec(size, slide, abort_rounds, aggregates, via_statement)
    args = dict(group_commit_max_batch=1, fsync=False)
    engine = Engine(spec, data_dir=data_dir, recovery_mode=RecoveryMode.STRONG, **args)
    committed = []
    next_id = 1
    for r in range(1, rounds + 1):
        rows = [
            (rng.randint(-50, 50), rng.uniform(-10.0, 10.0))
            for _ in range(rng.randint(1, 5))
        ]
        tuples = tuple(
            Tuple(v, tuple_id=next_id + k, batch_id=r) for k, v in enumerate(rows)
        )
        next_id += len(rows)
        engine.ingest_batch("s1", AtomicBatch(r, tuples))
        engine.run_until_idle()
        if r not in abort_rounds:
            committed += rows
        if r == checkpoint_at:
            engine.checkpoint()
        if r == crash_at:
            engine.crash()
            engine = recover(spec, data_dir, **args)
            engine.run_until_idle()
    got = {
        _aggregate_stream(op, col): [
            t.values[0] for t in engine.store.stream(_aggregate_stream(op, col)).rows
        ]
        for op, col in aggregates
    }
    engine.close()
    windows = sliding_window_events(committed, size, slide)
    names = [name for name, _ in WINDOW_COLS]
    want = {
        _aggregate_stream(op, col): [
            _recompute(op, [row[names.index(col)] for row in win]) for win in windows
        ]
        for op, col in aggregates
    }
    return got, want


# --- a two-input border under weak recovery ---

PAIR_OUT_COLS = (("round", "int"), ("value", "int"))


def dead_round_diamond_spec() -> EngineSpec:
    """A fans ``s0`` out to B and C, which both feed D; C aborts round 1, so
    D never runs round 1 and B's batch 1 waits at the join until D's round
    2 collects it."""

    def fan_out(ctx):
        ctx.emit("sab", ctx.input_tuples("s0"))
        ctx.emit("sac", ctx.input_tuples("s0"))

    def forward(src, dst):
        def body(ctx):
            if (ctx.proc.name, ctx.round) == ("C", 1):
                ctx.abort("forced")
            ctx.emit(dst, ctx.input_tuples(src))

        return body

    w = register_workflow(
        "diamond",
        [
            ProcedureDef("A", ProcedureKind.BORDER, ("s0",), body=fan_out),
            ProcedureDef("B", ProcedureKind.INTERIOR, ("sab",), body=forward("sab", "sbd")),
            ProcedureDef("C", ProcedureKind.INTERIOR, ("sac",), body=forward("sac", "scd")),
            ProcedureDef("D", ProcedureKind.INTERIOR, ("sbd", "scd")),
        ],
        [("A", "sab", "B"), ("A", "sac", "C"), ("B", "sbd", "D"), ("C", "scd", "D")],
    )
    return EngineSpec(
        workflows=[w],
        streams=[StreamDef(s, VAL_COLS) for s in ("s0", "sab", "sac", "sbd", "scd")],
    )


def pair_chain_spec() -> EngineSpec:
    """Border SP1 takes one batch from each of ``a`` and ``b`` per round and
    emits ``(round, a + b)``; interior SP2 records it in ``out``."""

    def join(ctx):
        a, b = (ctx.input_tuples(s)[0].values[0] for s in ("a", "b"))
        ctx.emit("ab", [(ctx.round, a + b)])

    def record(ctx):
        for t in ctx.input_tuples("ab"):
            ctx.insert("out", t.values)

    w = register_workflow(
        "pair",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("a", "b"), body=join),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("ab",), body=record),
        ],
        [("SP1", "ab", "SP2")],
    )
    return EngineSpec(
        workflows=[w],
        streams=[
            StreamDef("a", VAL_COLS),
            StreamDef("b", VAL_COLS),
            StreamDef("ab", PAIR_OUT_COLS),
        ],
        tables=[TableDef("out", PAIR_OUT_COLS)],
    )


def assert_cache_holds_waiting_rounds(engine: Engine, data_dir: str) -> None:
    """Right after a checkpoint, the input cache file holds exactly the
    batches of the border rounds queued for a client or held in a feeder
    slot. Each stream's batches compare as sorted lists: a later round that
    completes first reaches the cache before an earlier one."""
    want: dict[str, list] = {}
    waiting = [req.batches or {} for req in engine.partition.client_queue]
    for slots in engine._feeder_pending.values():
        waiting += [batches for batches, _ in slots.values()]
    for batches in waiting:
        for s, b in batches.items():
            want.setdefault(s, []).append(b)
    got = read_input_cache(os.path.join(data_dir, CACHE_FILE))[0]
    assert {s: sorted(bs) for s, bs in got.items()} == {
        s: sorted(bs) for s, bs in want.items()
    }


def random_pair_run(seed: int, data_dir: str) -> tuple[list, list, list]:
    """One seeded weak-mode run of ``pair_chain_spec`` over random batch ids:
    the ``a`` and ``b`` batches arrive in a random order in which later
    rounds can complete before earlier ones, with random pumping,
    checkpoints and group-commit size, and the engine crashes and recovers
    at one or two random points, then takes the rest of the feed. After
    every checkpoint, a recovery's included, the cache holds exactly the
    waiting rounds (``assert_cache_holds_waiting_rounds``).

    Returns (got, want, violations): the ``out`` rows, one ``(round, a + b)``
    per round, and the validator violations of every engine's schedule.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    ids = sorted(rng.sample(range(1, 2 * n + 1), n))  # batch ids may skip
    values = {s: {r: rng.randint(0, 99) for r in ids} for s in "ab"}
    # each round's first batch comes in round order, from either stream; its
    # second may come any time later, so later rounds can complete first
    arrivals, halves, fresh = [], [], list(ids)
    while fresh or halves:
        if fresh and (not halves or rng.random() < 0.5):
            r = fresh.pop(0)
            s = rng.choice("ab")
            arrivals.append((s, r))
            halves.append(("b" if s == "a" else "a", r))
        else:
            arrivals.append(halves.pop(rng.randrange(len(halves))))
    crash_at = set(rng.sample(range(len(arrivals) + 1), rng.randint(1, 2)))
    spec = pair_chain_spec()
    args = dict(
        group_commit_max_batch=rng.randint(1, 4),
        group_commit_max_delay=3600,
        fsync=False,
    )
    engine = Engine(spec, data_dir=data_dir, recovery_mode=RecoveryMode.WEAK, **args)
    violations = []
    for i in range(len(arrivals) + 1):
        if i in crash_at:
            violations += validate(engine.committed_schedule, spec.workflows[0]).violations
            engine.crash()
            engine = recover(spec, data_dir, **args)
            assert_cache_holds_waiting_rounds(engine, data_dir)
            if rng.random() < 0.5:
                engine.run_until_idle()
        if i == len(arrivals):
            break
        s, r = arrivals[i]
        row = Tuple((values[s][r],), tuple_id=r, batch_id=r)
        engine.ingest_batch(s, AtomicBatch(r, (row,)))
        if rng.random() < 0.5:
            engine.run_until_idle()
        if rng.random() < 0.2:
            engine.checkpoint()
            assert_cache_holds_waiting_rounds(engine, data_dir)
    engine.run_until_idle()
    violations += validate(engine.committed_schedule, spec.workflows[0]).violations
    got = sorted(t.values for t in engine.store.table("out").rows)
    engine.close()
    want = [(r, values["a"][r] + values["b"][r]) for r in ids]
    return got, want, violations


# --- checkpoints that reuse the previous one's encoded rows ---

KEYED_COLS = (("k", "int"), ("name", "text"))


def checkpoint_spec(size: int = 3, slide: int = 1) -> EngineSpec:
    """Every way a checkpoint's rows can change after it. Border ``a``
    (input ``s1``) appends its round to ``keep``, which nothing consumes,
    and to ``mid``, which interior ``c`` copies into table ``log``, so
    ``mid``'s batches are collected; it also feeds window ``w``. Border
    ``b`` (input ``s2``) appends its round to ``keep`` as well, so a round
    ``a`` appended first gets longer. Both borders abort after their writes
    when their round's first value is negative. OLTP ``put`` inserts
    ``ks`` into table ``t``, ``drop`` deletes ``t``'s rows with key ``k``
    (every row for None), and ``dup`` deletes ``t``'s oldest key and
    inserts its newest row again, the same object; each aborts after its
    writes when ``abort`` is set."""

    def a_body(ctx):
        rows = [t.values for t in ctx.input_tuples("s1")]
        ctx.emit("keep", rows)
        ctx.emit("mid", rows)
        ctx.window_insert("w", rows)
        if rows[0][0] < 0:
            ctx.abort("negative")

    def b_body(ctx):
        rows = [t.values for t in ctx.input_tuples("s2")]
        ctx.emit("keep", rows)
        if rows[0][0] < 0:
            ctx.abort("negative")

    def c_body(ctx):
        for t in ctx.input_tuples("mid"):
            ctx.insert("log", t.values)

    def oltp(write):
        def body(ctx):
            write(ctx, ctx.args)
            if ctx.args["abort"]:
                ctx.abort("asked")

        return body

    def put(ctx, args):
        for k in args["ks"]:
            ctx.insert("t", (k, f"n{k}"))

    def drop(ctx, args):
        k = args["k"]
        ctx.delete("t", None if k is None else Pred("k", "==", k))

    def dup(ctx, args):
        rows = ctx.select("t")
        if rows:
            ctx.delete("t", Pred("k", "==", rows[0].values[0]))
            ctx.insert("t", rows[-1])

    wa = register_workflow(
        "ckpt_a",
        [
            ProcedureDef(
                "a", ProcedureKind.BORDER, ("s1",),
                window_defs=(WindowSpec("w", size, slide, "a"),), body=a_body,
            ),
            ProcedureDef("c", ProcedureKind.INTERIOR, ("mid",), body=c_body),
        ],
        [("a", "mid", "c")],
    )
    wb = register_workflow(
        "ckpt_b", [ProcedureDef("b", ProcedureKind.BORDER, ("s2",), body=b_body)]
    )
    ops = register_workflow(
        "ckpt_oltp",
        [
            ProcedureDef(name, ProcedureKind.OLTP, body=oltp(write))
            for name, write in (("put", put), ("drop", drop), ("dup", dup))
        ],
    )
    return EngineSpec(
        workflows=[wa, wb, ops],
        streams=[StreamDef(s, VAL_COLS) for s in ("s1", "s2", "keep", "mid")],
        tables=[TableDef("t", KEYED_COLS, ("k",)), TableDef("log", VAL_COLS)],
        window_columns={"w": VAL_COLS},
    )


class CheckpointFeed:
    """Rounds for ``checkpoint_spec``'s borders: ``a`` takes a new round,
    ``b`` the newest round ``a`` took unless it took that one already, so
    its append to ``keep`` lengthens the newest batch when ``a``
    committed that round."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.round = self.b_round = self.tuple_id = 0

    def push(self, stream: str, values: list[int]) -> None:
        if stream == "s1":
            self.round += 1
            r = self.round
        else:
            r = self.round = self.b_round = max(self.b_round + 1, self.round)
        tuples = []
        for v in values:
            self.tuple_id += 1
            tuples.append(Tuple((v,), tuple_id=self.tuple_id, batch_id=r))
        self.engine.ingest_batch(stream, AtomicBatch(r, tuple(tuples)))
        self.engine.run_until_idle()


def checkpoint_and_compare(engine: Engine, spec: EngineSpec) -> bytes:
    """Take a checkpoint and check its file: it equals ``snapshot_state``
    without a memo, byte for byte, and an engine that loads it snapshots
    the same bytes. Returns the file's bytes."""
    path = engine.checkpoint()
    with open(path, "rb") as fh:
        blob = fh.read()
    p = engine.partition
    assert blob == snapshot_state(engine.store, p.id, p.commit_seq)
    loaded = Engine(spec).store
    assert restore_state(blob, loaded) == (p.id, p.commit_seq)
    assert snapshot_state(loaded, p.id, p.commit_seq) == blob
    return blob


def random_checkpoint_run(seed: int, data_dir: str) -> int:
    """One seeded strong-mode run of ``checkpoint_spec``: border rounds,
    some aborted, some lengthening ``keep``'s newest batch; OLTP inserts,
    deletes and re-inserts on ``t``, some aborted; now and then a ``keep``
    batch collected out of order; and checkpoints at one to three random
    steps and at the last, each checked by ``checkpoint_and_compare``. The
    engine then crashes, and ``recover()`` must bring back the last
    snapshot's bytes. Returns the number of checkpoints taken."""
    rng = random.Random(seed)
    size = rng.randint(1, 5)
    spec = checkpoint_spec(size, rng.randint(1, size))
    engine = Engine(
        spec, data_dir=data_dir, recovery_mode=RecoveryMode.STRONG,
        group_commit_max_batch=1, fsync=False,
    )
    feed = CheckpointFeed(engine)
    steps = rng.randint(6, 24)
    # the last step checkpoints, so the crash loses nothing the log holds
    checkpoints = set(rng.sample(range(steps - 1), rng.randint(1, 3))) | {steps - 1}
    blob = None
    for step in range(steps):
        op = rng.choice(("s1", "s1", "s2", "put", "put", "drop", "dup", "gc"))
        if op in ("s1", "s2"):
            first = -rng.randint(1, 9) if rng.random() < 0.2 else rng.randint(0, 9)
            more = [rng.randint(0, 9) for _ in range(rng.randint(0, 2))]
            feed.push(op, [first] + more)  # a negative first value aborts
        elif op == "gc":
            keep = engine.store.stream("keep").batches
            if len(keep) > 1:
                engine.store.garbage_collect("keep", rng.choice(list(keep)))
        else:
            args = {"abort": rng.random() < 0.25}
            if op == "put":
                args["ks"] = [rng.randint(0, 5) for _ in range(rng.randint(1, 3))]
            elif op == "drop":
                rows = engine.store.table("t").rows
                pick = rng.choice(rows).values[0] if rows else 0
                args["k"] = None if rng.random() < 0.15 else pick
            engine.await_ticket(engine.call_oltp(op, args))
        if step in checkpoints:
            blob = checkpoint_and_compare(engine, spec)
    engine.crash()
    engine = recover(spec, data_dir, fsync=False)
    assert engine.snapshot_bytes() == blob
    engine.close()
    return len(checkpoints)


# --- one bit flipped in a durable file ---


def random_bit_flip_run(seed: int, data_dir: str) -> bool:
    """One seeded run of a three-stage chain in a random mode, with group
    commit 1-4 and, in some runs, a checkpoint after a random round. The
    engine closes, so every commit is acknowledged. Then one random bit of
    the command log flips, or in weak mode maybe of the input cache, and
    the constructor opens the directory.

    Opening must raise ``CorruptLogRecord``, ``CorruptSnapshot`` or
    ``VersionMismatch``, or bring back every commit that the flipped file's
    last frame does not hold, which a torn tail may lose. In strong mode
    the state must be bit-exact to a crash-free run's at the recovered
    commit seq; in weak mode, once the engine is idle, ``out`` must hold a
    prefix of the crash-free run's rows. Returns whether opening raised.
    """
    rng = random.Random(seed)
    spec = pe_chain_spec(3, "triggered")
    mode = rng.choice((RecoveryMode.STRONG, RecoveryMode.WEAK))
    rounds = rng.randint(2, 10)
    values = [rng.randint(0, 99) for _ in range(rounds)]
    checkpoint_after = rng.randint(1, rounds) if rng.random() < 0.5 else None

    def run(engine):
        for r, v in enumerate(values, 1):
            engine.ingest_batch("s1", AtomicBatch(r, (Tuple((v,), tuple_id=r, batch_id=r),)))
            engine.run_until_idle()
            if r == checkpoint_after and engine.data_dir is not None:
                engine.checkpoint()

    golden_states = {}

    def hook(p):
        golden_states[p.commit_seq] = snapshot_state(p.store, p.id, p.commit_seq)

    golden = Engine(spec, post_commit_hook=hook)
    golden_states[0] = golden.snapshot_bytes()
    run(golden)
    golden_out = [t.values for t in golden.store.table("out").rows]
    args = dict(recovery_mode=mode, group_commit_max_batch=rng.randint(1, 4),
                group_commit_max_delay=3600, fsync=False)
    live = Engine(spec, data_dir=data_dir, **args)
    run(live)
    live.close()

    name = LOG_FILE
    if mode is RecoveryMode.WEAK and rng.random() < 0.5:
        name = CACHE_FILE
    path = os.path.join(data_dir, name)
    # the round of the file's last frame, which a torn tail may lose, and in
    # strong mode the commit seq that the frames before it reach
    _, _, snapshot_seq, _, records = read_log(os.path.join(data_dir, LOG_FILE))
    need_seq = records[-2].commit_seq if len(records) > 1 else snapshot_seq
    if name == LOG_FILE:
        last = records[-1].round if records else None
    else:
        cached = read_input_cache(path)[0].get("s1", [])
        last = cached[-1].batch_id if cached else None
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    bit = rng.randrange(len(blob) * 8)
    blob[bit // 8] ^= 1 << (bit % 8)
    with open(path, "wb") as fh:
        fh.write(blob)

    try:
        engine = Engine(spec, data_dir=data_dir, **args)
    except (CorruptLogRecord, CorruptSnapshot, VersionMismatch):
        return True
    at = f"seed {seed}: {mode.name}, bit {bit} of {name}"
    engine.run_until_idle()
    if mode is RecoveryMode.STRONG:
        seq = engine.partition.commit_seq
        assert seq >= need_seq, f"{at}: commit {need_seq} lost, recovered {seq}"
        assert engine.snapshot_bytes() == golden_states[seq], at
    else:
        out = [t.values for t in engine.store.table("out").rows]
        need = rounds - 1 if last == rounds else rounds
        assert out == golden_out[: len(out)], f"{at}: out is not a prefix"
        assert len(out) >= need, f"{at}: {rounds - len(out)} rounds lost"
    engine.close()
    return False
