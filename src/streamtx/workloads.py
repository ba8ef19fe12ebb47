"""Built-in workloads: micro-benchmark chains, native vs emulated windows,
the leaderboard application, and a hash-partitionable synthetic feed.

Procedure bodies here are deterministic functions of (args, round, state)
only, which is what makes command-log replay sound.
"""

from __future__ import annotations

import random
from typing import Optional

from .config import WorkloadConfig
from .engine import EngineSpec, StreamDef, TableDef
from .errors import ConfigError
from .model import (
    NestedGroup,
    ProcedureDef,
    ProcedureKind,
    WindowSpec,
    register_workflow,
)
from .storage import Pred
from .triggers import (
    AggregateInsert,
    FilteredCopy,
    StatementTrigger,
    WindowInsertStmt,
)

VAL_COLS = (("value", "int"),)


# --- generic bodies ---


def noop_body(ctx):
    pass


def make_passthrough(in_stream: str, out_stream: Optional[str]):
    def body(ctx):
        tuples = ctx.input_tuples(in_stream)
        if out_stream is not None:
            ctx.emit(out_stream, tuples)
        # clients of the trigger-less baseline decide the next step from this
        ctx.set_result([(1 if out_stream is not None else 0,)])

    return body


def make_filter_stage(in_stream: str, out_stream: str, pred: Pred):
    from .storage import _OPS

    fn = _OPS[pred.op]

    def body(ctx):
        ci = ctx.store.stream(in_stream).col(pred.column)
        hits = [t for t in ctx.input_tuples(in_stream) if fn(t.values[ci], pred.value)]
        if hits:
            ctx.emit(out_stream, hits)
        ctx.set_result([(1 if hits else 0,)])

    return body


def make_recorder(in_stream: str, table: str):
    def body(ctx):
        for t in ctx.input_tuples(in_stream):
            ctx.insert(table, t.values, ts=t.ts)
        ctx.set_result([(0,)])

    return body


# --- execution-engine trigger chain (filtered-copy stages) ---


def ee_chain_spec(stages: int, mode: str, threshold: int = 10) -> EngineSpec:
    """``stages`` filtered-copy steps between s1 and s{stages+1}.

    triggered: one border procedure; statement triggers cascade the whole
    chain inside its execution. client_driven: one procedure per stage, each
    invoked through the client path.
    """
    if not 1 <= stages <= 20:
        raise ConfigError("stages must be in 1..20")
    streams = [StreamDef(f"s{i}", VAL_COLS) for i in range(1, stages + 2)]
    pred = Pred("value", ">", threshold)
    if mode == "triggered":
        triggers = [
            StatementTrigger(f"s{i}", (FilteredCopy(f"s{i}", f"s{i + 1}", pred),))
            for i in range(1, stages + 1)
        ]
        w = register_workflow(
            "ee_chain", [ProcedureDef("stage1", ProcedureKind.BORDER, ("s1",))]
        )
        return EngineSpec(workflows=[w], streams=streams, statement_triggers=triggers)
    procs, edges = [], []
    for i in range(1, stages + 1):
        kind = ProcedureKind.BORDER if i == 1 else ProcedureKind.INTERIOR
        procs.append(
            ProcedureDef(
                f"stage{i}",
                kind,
                (f"s{i}",),
                body=make_filter_stage(f"s{i}", f"s{i + 1}", pred),
            )
        )
        if i < stages:
            edges.append((f"stage{i}", f"s{i + 1}", f"stage{i + 1}"))
    # same DAG, but no procedure triggers: the client drives every stage
    w = register_workflow("ee_chain", procs, edges)
    return EngineSpec(workflows=[w], streams=streams, use_procedure_triggers=False)


# --- partition-engine trigger chain (n identical procedures) ---


def pe_chain_spec(n: int, mode: str) -> EngineSpec:
    if not 1 <= n <= 10:
        raise ConfigError("chain length must be in 1..10")
    streams = [StreamDef(f"s{i}", VAL_COLS) for i in range(1, n + 2)]
    procs, edges = [], []
    for i in range(1, n + 1):
        kind = ProcedureKind.BORDER if i == 1 else ProcedureKind.INTERIOR
        if i < n:
            body = make_passthrough(f"s{i}", f"s{i + 1}")
        else:
            body = make_recorder(f"s{i}", "out")
        procs.append(ProcedureDef(f"sp{i}", kind, (f"s{i}",), body=body))
        if i < n:
            edges.append((f"sp{i}", f"s{i + 1}", f"sp{i + 1}"))
    w = register_workflow("pe_chain", procs, edges)
    return EngineSpec(
        workflows=[w],
        streams=streams,
        tables=[TableDef("out", VAL_COLS)],
        use_procedure_triggers=mode == "triggered",
    )


# --- window micro-benchmark ---


def window_native_spec(size: int, slide: int) -> EngineSpec:
    streams = [StreamDef("s1", VAL_COLS), StreamDef("wout", (("avg", "float"),))]
    w = register_workflow(
        "win",
        [
            ProcedureDef(
                "feeder",
                ProcedureKind.BORDER,
                ("s1",),
                window_defs=(WindowSpec("w", size, slide, "feeder"),),
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


def make_emulated_window_body(size: int, slide: int):
    """The trigger-less baseline: an ordinary table holds window rows with an
    active flag, a one-row metadata table tracks arrival and staging counts,
    and the body advances the window with explicit queries."""

    def body(ctx):
        meta = ctx.select("wmeta")[0].values
        next_arrival, active_n, staged_n, full_seen = meta
        ctx.delete("wmeta", None)
        for t in ctx.input_tuples("s1"):
            ctx.insert("wdata", (t.values[0], next_arrival, 0))
            next_arrival += 1
            staged_n += 1
        while True:
            if not full_seen:
                if active_n + staged_n < size:
                    break
                promote = size - active_n
                full_seen = 1
            else:
                if staged_n < slide:
                    break
                expired = sorted(
                    ctx.select("wdata", Pred("active", "==", 1)),
                    key=lambda t: t.values[1],
                )[:slide]
                for t in expired:
                    ctx.delete("wdata", Pred("arrival", "==", t.values[1]))
                active_n -= slide
                promote = slide
            staged = sorted(
                ctx.select("wdata", Pred("active", "==", 0)),
                key=lambda t: t.values[1],
            )[:promote]
            for t in staged:
                ctx.delete("wdata", Pred("arrival", "==", t.values[1]))
                ctx.insert("wdata", (t.values[0], t.values[1], 1))
            active_n += promote
            staged_n -= promote
            window = ctx.select("wdata", Pred("active", "==", 1))
            avg = float(sum(t.values[0] for t in window)) / len(window)
            ctx.emit("wout", [(avg,)])
        ctx.insert("wmeta", (next_arrival, active_n, staged_n, full_seen))

    return body


def window_emulated_spec(size: int, slide: int) -> EngineSpec:
    streams = [StreamDef("s1", VAL_COLS), StreamDef("wout", (("avg", "float"),))]
    tables = [
        TableDef(
            "wdata", (("value", "int"), ("arrival", "int"), ("active", "int"))
        ),
        TableDef(
            "wmeta",
            (
                ("next_arrival", "int"),
                ("active_n", "int"),
                ("staged_n", "int"),
                ("full_seen", "int"),
            ),
        ),
    ]
    w = register_workflow(
        "win",
        [
            ProcedureDef(
                "feeder",
                ProcedureKind.BORDER,
                ("s1",),
                body=make_emulated_window_body(size, slide),
            )
        ],
    )
    return EngineSpec(
        workflows=[w],
        streams=streams,
        tables=tables,
        seed_rows={"wmeta": [(1, 0, 0, 0)]},
    )


# --- leaderboard application ---

VOTE_COLS = (("phone", "int"), ("contestant", "text"))


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
    # counts over the trending window, running contestants only; the window
    # itself may still hold votes for removed contestants until they age out
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


def make_vote_validate():
    def body(ctx):
        (vote,) = ctx.input_tuples("votes_in")
        phone, contestant = vote.values
        if not ctx.select("contestants", Pred("name", "==", contestant)):
            ctx.abort(f"no such contestant {contestant}")
        if ctx.select("votes", Pred("phone", "==", phone)):
            ctx.abort(f"phone {phone} already voted")
        ctx.insert("votes", (phone, contestant))
        ctx.emit("s12", [vote])

    return body


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


def make_contestant_removal():
    def body(ctx):
        ctx.input_tuples("s23")
        remaining = ctx.select("contestants")
        if len(remaining) > 1:
            loser = min(remaining, key=lambda t: (t.values[1], t.values[0]))
            name = loser.values[0]
            # returning the dropped votes frees those phones to vote again
            ctx.delete("votes", Pred("contestant", "==", name))
            ctx.delete("contestants", Pred("name", "==", name))
            # the trending window belongs to the maintenance step; here we
            # only retire the loser's row, counts refresh on the next vote
            ctx.delete("trend3", Pred("name", "==", name))
        _recompute_rank_boards(ctx)

    return body


def leaderboard_spec(
    contestants: int = 4,
    trending_size: int = 100,
    removal_period: int = 1000,
    mode: str = "triggered",
) -> EngineSpec:
    """Three-step vote workflow: validate and record, maintain leaderboards,
    periodically drop the weakest contestant. One nested group per vote in
    triggered mode; the client sequences the steps itself in client mode.

    The removal step recomputes board snapshots against recorded votes; the
    trending board counts only window votes for still-running contestants.
    """
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
    sp1 = ProcedureDef(
        "validate", ProcedureKind.BORDER, ("votes_in",), body=make_vote_validate()
    )
    sp2 = ProcedureDef(
        "maintain",
        ProcedureKind.INTERIOR,
        ("s12",),
        window_defs=(WindowSpec("trending", trending_size, 1, "maintain"),),
        body=make_leaderboard_maintain(removal_period),
    )
    sp3 = ProcedureDef(
        "removal", ProcedureKind.INTERIOR, ("s23",), body=make_contestant_removal()
    )
    triggered = mode == "triggered"
    edges = [
        ("validate", "s12", "maintain"),
        ("maintain", "s23", "removal"),
    ]
    groups = (
        [
            NestedGroup(
                "per_vote",
                ("validate", "maintain", "removal"),
                (("validate", "maintain"), ("maintain", "removal")),
            )
        ]
        if triggered
        else []
    )
    w = register_workflow(
        "leaderboard",
        [sp1, sp2, sp3],
        edges,
        nested_groups=groups,
    )
    return EngineSpec(
        workflows=[w],
        tables=tables,
        streams=streams,
        window_columns={"trending": (("contestant", "text"),)},
        use_procedure_triggers=triggered,
        seed_rows={
            "contestants": [(f"C{i}", 0) for i in range(contestants)],
            "vstats": [(0,)],
        },
    )


def make_vote_trace(contestants: int, votes: int, seed: int = 7) -> list[tuple[int, str]]:
    """Deterministic vote feed with deliberate duplicate phone numbers."""
    rng = random.Random(seed)
    trace: list[tuple[int, str]] = []
    used: list[int] = []
    for i in range(votes):
        if used and rng.random() < 0.15:
            phone = rng.choice(used)  # duplicate: must be rejected
        else:
            phone = 1_000_000 + i
        used.append(phone)
        trace.append((phone, f"C{rng.randrange(contestants)}"))
    return trace


# --- hash-partitionable synthetic workload ---


def partitionable_spec(threshold: int = 0) -> EngineSpec:
    key_cols = (("key", "int"), ("value", "int"))

    def agg_body(ctx):
        for t in ctx.input_tuples("s2"):
            key = t.values[0]
            rows = ctx.select("totals", Pred("key", "==", key))
            if rows:
                cnt, total = rows[0].values[1], rows[0].values[2]
                ctx.delete("totals", Pred("key", "==", key))
            else:
                cnt, total = 0, 0
            ctx.insert("totals", (key, cnt + 1, total + t.values[1]))

    w = register_workflow(
        "keyed",
        [
            ProcedureDef(
                "ingest_filter",
                ProcedureKind.BORDER,
                ("events",),
                body=make_filter_stage("events", "s2", Pred("value", ">=", threshold)),
            ),
            ProcedureDef("aggregate", ProcedureKind.INTERIOR, ("s2",), body=agg_body),
        ],
        [("ingest_filter", "s2", "aggregate")],
    )
    spec = EngineSpec(
        workflows=[w],
        streams=[StreamDef("events", key_cols), StreamDef("s2", key_cols)],
        tables=[TableDef("totals", (("key", "int"), ("cnt", "int"), ("sum", "int")))],
    )
    spec.partition_key = "key"
    return spec


def make_keyed_batches(rounds: int, batch_size: int, keys: int, seed: int = 3):
    """Key-homogeneous batches: every batch carries exactly one key so a
    whole batch hashes to one partition."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        key = rng.randrange(keys)
        rows = [(key, rng.randint(-5, 100)) for _ in range(batch_size)]
        out.append(rows)
    return out


# --- config-driven assembly ---


def build_spec_from_config(cfg: WorkloadConfig) -> EngineSpec:
    """Materialize a parsed workload config into an engine spec, resolving
    builtin body names."""
    tables = [TableDef(n, cols, idx) for n, (cols, idx) in sorted(cfg.tables.items())]
    streams = [StreamDef(n, cols) for n, cols in sorted(cfg.streams.items())]
    procs = []
    for pc in cfg.procedures:
        kind = ProcedureKind(pc.kind)
        windows = tuple(
            WindowSpec(wc.name, wc.size, wc.slide, wc.owner)
            for wc in (cfg.windows[w] for w in pc.windows)
        )
        body = _resolve_body(pc, cfg)
        procs.append(
            ProcedureDef(pc.name, kind, pc.streams, windows, pc.tables, body)
        )
    groups = [NestedGroup(g.name, g.children, g.order) for g in cfg.groups]
    w = register_workflow(cfg.workflow_name, procs, cfg.edges, groups)
    spec = EngineSpec(
        workflows=[w],
        tables=tables,
        streams=streams,
        window_columns={n: wc.columns for n, wc in cfg.windows.items()},
        statement_triggers=[
            StatementTrigger(src, stmts) for src, stmts in sorted(cfg.triggers.items())
        ],
        use_procedure_triggers=cfg.engine_mode == "triggered",
        partition_key=cfg.partition_key,
    )
    return spec


def _resolve_body(pc, cfg: WorkloadConfig):
    scheme, _, name = pc.body.partition(":")
    if scheme != "builtin":
        raise ConfigError(f"{pc.name}: unknown body scheme {scheme!r}")
    out_stream = pc.output or next(
        (s for p, s, _ in cfg.edges if p == pc.name), None
    )
    in_stream = pc.streams[0] if pc.streams else None
    params = cfg.params
    if name == "noop":
        return noop_body
    if name == "passthrough":
        return make_passthrough(in_stream, out_stream)
    if name == "filter":
        pred = Pred("value", ">", int(params.get("threshold", 10)))
        return make_filter_stage(in_stream, out_stream, pred)
    if name == "record":
        return make_recorder(in_stream, pc.tables[0])
    if name == "emulated_window":
        return make_emulated_window_body(
            int(params["size"]), int(params["slide"])
        )
    if name == "vote_validate":
        return make_vote_validate()
    if name == "leaderboard_maintain":
        return make_leaderboard_maintain(int(params.get("removal_period", 1000)))
    if name == "contestant_removal":
        return make_contestant_removal()
    raise ConfigError(f"{pc.name}: unknown builtin body {name!r}")
