"""The benchmark's own workload definitions: engine specs, procedure bodies
and seeded input generators.

They are copies of the engine's built-in chain, window and leaderboard
builders, kept here so that editing the engine's ``workloads.py`` cannot
change what the benchmark measures. Every spec builder takes ``wrap``, which
the traced run uses to time the bodies; by default bodies run unwrapped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from streamtx import (
    EngineSpec,
    NestedGroup,
    Pred,
    ProcedureDef,
    ProcedureKind,
    StreamDef,
    TableDef,
    WindowSpec,
    register_workflow,
)
from streamtx.triggers import AggregateInsert, StatementTrigger, WindowInsertStmt

VAL_COLS = (("value", "int"),)
VOTE_COLS = (("phone", "int"), ("contestant", "text"))


def _identity(fn: Callable, name: str) -> Callable:
    return fn


@dataclass(frozen=True)
class Shape:
    """The fixed size of one episode: untimed warm-up rounds, timed rounds
    (with a checkpoint every ``checkpoint_every`` of them, timed in blocks
    of ``block``), then untimed rounds fed after recovery."""

    warmup: int
    timed: int
    checkpoint_every: int
    resume: int
    block: int = 250

    def __post_init__(self):
        if self.timed % self.block or self.checkpoint_every % self.block:
            raise ValueError("timed rounds and checkpoint_every must be whole blocks")

    @property
    def fed_before_crash(self) -> int:
        return self.warmup + self.timed

    @property
    def total(self) -> int:
        return self.warmup + self.timed + self.resume


# --- chain: five procedures linked by procedure triggers ---

CHAIN_LENGTH = 5


def make_passthrough(in_stream: str, out_stream: str):
    def body(ctx):
        ctx.emit(out_stream, ctx.input_tuples(in_stream))
        ctx.set_result([(1,)])

    return body


def make_recorder(in_stream: str, table: str):
    def body(ctx):
        for t in ctx.input_tuples(in_stream):
            ctx.insert(table, t.values, ts=t.ts)
        ctx.set_result([(0,)])

    return body


def chain_spec(wrap=_identity) -> EngineSpec:
    """sp1 (border) -> sp2 -> sp3 -> sp4 -> sp5, which records into ``out``."""
    n = CHAIN_LENGTH
    streams = [StreamDef(f"s{i}", VAL_COLS) for i in range(1, n + 2)]
    procs, edges = [], []
    for i in range(1, n + 1):
        kind = ProcedureKind.BORDER if i == 1 else ProcedureKind.INTERIOR
        if i < n:
            body = make_passthrough(f"s{i}", f"s{i + 1}")
        else:
            body = make_recorder(f"s{i}", "out")
        name = f"sp{i}"
        procs.append(ProcedureDef(name, kind, (f"s{i}",), body=wrap(body, name)))
        if i < n:
            edges.append((name, f"s{i + 1}", f"sp{i + 1}"))
    w = register_workflow("pe_chain", procs, edges)
    return EngineSpec(
        workflows=[w], streams=streams, tables=[TableDef("out", VAL_COLS)]
    )


def int_feed(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(0, 100) for _ in range(count)]


# --- window: statement triggers over a native sliding window ---

WINDOW_SIZE = 1000
WINDOW_SLIDE = 1
WINDOW_BATCH = 4


def window_spec(wrap=_identity) -> EngineSpec:
    """A body-less border procedure; s1 -> window ``w`` -> avg into ``wout``."""
    del wrap  # the only procedure has no body
    streams = [StreamDef("s1", VAL_COLS), StreamDef("wout", (("avg", "float"),))]
    w = register_workflow(
        "win",
        [
            ProcedureDef(
                "feeder",
                ProcedureKind.BORDER,
                ("s1",),
                window_defs=(WindowSpec("w", WINDOW_SIZE, WINDOW_SLIDE, "feeder"),),
            )
        ],
    )
    triggers = [
        StatementTrigger("s1", (WindowInsertStmt("s1", "w"),)),
        StatementTrigger("w", (AggregateInsert("w", "wout", "avg", "value"),)),
    ]
    return EngineSpec(
        workflows=[w],
        streams=streams,
        window_columns={"w": VAL_COLS},
        statement_triggers=triggers,
    )


# --- leaderboard: three-step voting workflow, one nested group per vote ---

CONTESTANTS = 25
TRENDING_SIZE = 100
DUPLICATE_SHARE = 0.15


def _recompute_rank_boards(ctx):
    remaining = ctx.select("contestants")
    best = sorted(remaining, key=lambda t: (-t.values[1], t.values[0]))
    ctx.delete("top3", None)
    for rank, t in enumerate(best[:3], 1):
        ctx.insert("top3", (rank, t.values[0], t.values[1]))
    worst = sorted(remaining, key=lambda t: (t.values[1], t.values[0]))
    ctx.delete("bottom3", None)
    for rank, t in enumerate(worst[:3], 1):
        ctx.insert("bottom3", (rank, t.values[0], t.values[1]))


def _recompute_trending(ctx):
    names = {t.values[0] for t in ctx.select("contestants")}
    tally: dict[str, int] = {}
    for t in ctx.select("trending"):
        c = t.values[0]
        if c in names:
            tally[c] = tally.get(c, 0) + 1
    ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    ctx.delete("trend3", None)
    for rank, (name, count) in enumerate(ranked[:3], 1):
        ctx.insert("trend3", (rank, name, count))


def vote_validate(ctx):
    (vote,) = ctx.input_tuples("votes_in")
    phone, contestant = vote.values
    if not ctx.select("contestants", Pred("name", "==", contestant)):
        ctx.abort(f"no such contestant {contestant}")
    if ctx.select("votes", Pred("phone", "==", phone)):
        ctx.abort(f"phone {phone} already voted")
    ctx.insert("votes", (phone, contestant))
    ctx.emit("s12", [vote])


def make_leaderboard_maintain(removal_period: int):
    def body(ctx):
        (vote,) = ctx.input_tuples("s12")
        contestant = vote.values[1]
        (row,) = ctx.select("contestants", Pred("name", "==", contestant))
        ctx.delete("contestants", Pred("name", "==", contestant))
        ctx.insert("contestants", (contestant, row.values[1] + 1))
        ctx.window_insert("trending", [(contestant,)])
        (stats,) = ctx.select("vstats")
        total = stats.values[0] + 1
        ctx.delete("vstats", None)
        ctx.insert("vstats", (total,))
        _recompute_rank_boards(ctx)
        _recompute_trending(ctx)
        removal_due = removal_period > 0 and total % removal_period == 0
        ctx.set_result([(1 if removal_due else 0,)])
        if removal_due:
            ctx.emit("s23", [(total,)])

    return body


def contestant_removal(ctx):
    ctx.input_tuples("s23")
    remaining = ctx.select("contestants")
    if len(remaining) > 1:
        loser = min(remaining, key=lambda t: (t.values[1], t.values[0]))
        name = loser.values[0]
        # returning the dropped votes frees those phones to vote again
        ctx.delete("votes", Pred("contestant", "==", name))
        ctx.delete("contestants", Pred("name", "==", name))
        ctx.delete("trend3", Pred("name", "==", name))
    _recompute_rank_boards(ctx)


def removal_period_for(total_votes: int) -> int:
    """At most ten removals even if every vote were valid, so at least 15
    of the 25 contestants remain at the end of an episode."""
    return total_votes // 10


def leaderboard_spec(removal_period: int, wrap=_identity) -> EngineSpec:
    rank_cols = (("rank", "int"), ("name", "text"), ("votes", "int"))
    tables = [
        TableDef("votes", VOTE_COLS, indexes=("phone",)),
        TableDef("contestants", (("name", "text"), ("votes", "int"))),
        TableDef("top3", rank_cols),
        TableDef("bottom3", rank_cols),
        TableDef("trend3", rank_cols),
        TableDef("vstats", (("total_valid", "int"),)),
    ]
    streams = [
        StreamDef("votes_in", VOTE_COLS),
        StreamDef("s12", VOTE_COLS),
        StreamDef("s23", (("total", "int"),)),
    ]
    procs = [
        ProcedureDef(
            "validate",
            ProcedureKind.BORDER,
            ("votes_in",),
            body=wrap(vote_validate, "validate"),
        ),
        ProcedureDef(
            "maintain",
            ProcedureKind.INTERIOR,
            ("s12",),
            window_defs=(WindowSpec("trending", TRENDING_SIZE, 1, "maintain"),),
            body=wrap(make_leaderboard_maintain(removal_period), "maintain"),
        ),
        ProcedureDef(
            "removal",
            ProcedureKind.INTERIOR,
            ("s23",),
            body=wrap(contestant_removal, "removal"),
        ),
    ]
    group = NestedGroup(
        "per_vote",
        ("validate", "maintain", "removal"),
        (("validate", "maintain"), ("maintain", "removal")),
    )
    w = register_workflow(
        "leaderboard",
        procs,
        [("validate", "s12", "maintain"), ("maintain", "s23", "removal")],
        nested_groups=[group],
    )
    return EngineSpec(
        workflows=[w],
        tables=tables,
        streams=streams,
        window_columns={"trending": (("contestant", "text"),)},
        seed_rows={
            "contestants": [(f"C{i}", 0) for i in range(CONTESTANTS)],
            "vstats": [(0,)],
        },
    )


def vote_trace(seed: int, votes: int) -> list[tuple[int, str]]:
    """Seeded votes; about 15 % reuse an earlier phone and must be rejected
    unless that phone's vote was returned by a removal."""
    rng = random.Random(seed)
    trace: list[tuple[int, str]] = []
    used: list[int] = []
    for i in range(votes):
        if used and rng.random() < DUPLICATE_SHARE:
            phone = rng.choice(used)
        else:
            phone = 1_000_000 + i
        used.append(phone)
        trace.append((phone, f"C{rng.randrange(CONTESTANTS)}"))
    return trace
