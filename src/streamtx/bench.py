"""Benchmark harness: desk-scale reproductions of the engine's experiments.

``triggered`` mode runs workloads through statement and procedure triggers;
``client_driven`` mode emulates a trigger-less engine in which the client
submits every step and waits for each outcome before the next, which is the
baseline all speedups are measured against. Both modes produce identical
final states; they differ only in dispatch mechanics, which the counters
capture exactly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .engine import Engine, recover, route_partition
from .executor import Origin, TERequest
from .ingest import BatchingPolicy, StreamIngestor
from .recovery import LOG_FILE, CommandLogRecord, RecoveryMode, data_path, write_snapshot
from .validator import validate
from .workloads import (
    ee_chain_spec,
    leaderboard_spec,
    make_keyed_batches,
    make_vote_trace,
    partitionable_spec,
    pe_chain_spec,
    window_emulated_spec,
    window_native_spec,
)


@dataclass
class MetricsReport:
    name: str
    mode: str
    rounds: int
    elapsed_sec: float
    workflows_per_sec: float
    tes_per_sec: float
    counters: dict
    latency_ms: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "rounds": self.rounds,
            "elapsed_sec": round(self.elapsed_sec, 6),
            "workflows_per_sec": round(self.workflows_per_sec, 2),
            "tes_per_sec": round(self.tes_per_sec, 2),
            "counters": self.counters,
            "latency_ms": self.latency_ms,
            "extras": self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @staticmethod
    def csv_header() -> str:
        return "name,mode,rounds,elapsed_sec,workflows_per_sec,tes_per_sec"

    def to_csv_row(self) -> str:
        return (
            f"{self.name},{self.mode},{self.rounds},{self.elapsed_sec:.6f},"
            f"{self.workflows_per_sec:.2f},{self.tes_per_sec:.2f}"
        )


def _percentiles(samples_sec: list[float]) -> dict:
    if not samples_sec:
        return {}
    ms = sorted(x * 1000 for x in samples_sec)

    def pct(p):
        idx = min(len(ms) - 1, int(round(p / 100 * (len(ms) - 1))))
        return round(ms[idx], 4)

    return {"p50": pct(50), "p95": pct(95), "p99": pct(99)}


def _report(name, mode, rounds, elapsed, engine, latencies, **extras) -> MetricsReport:
    counters = engine.counters.as_dict()
    return MetricsReport(
        name=name,
        mode=mode,
        rounds=rounds,
        elapsed_sec=elapsed,
        workflows_per_sec=rounds / elapsed if elapsed > 0 else float("inf"),
        tes_per_sec=counters["te_committed"] / elapsed if elapsed > 0 else float("inf"),
        counters=counters,
        latency_ms=_percentiles(latencies),
        extras=extras,
    )


def _client_response(engine: Engine, ticket) -> dict:
    """Marshal an outcome across the client boundary, as a remote client
    would receive it."""
    engine.await_ticket(ticket)
    wire = json.dumps(
        {"outcome": ticket.outcome, "reason": ticket.reason, "rows": ticket.result_rows}
    )
    return json.loads(wire)


def _client_call(engine: Engine, proc: str, round_: int, args=None) -> dict:
    """One synchronous client round-trip: encode the request, submit, wait,
    decode the response. The baseline mode pays this per step."""
    wire = json.dumps({"proc": proc, "round": round_, "args": args})
    request = json.loads(wire)
    req = TERequest(request["proc"], request["round"], origin=Origin.CLIENT)
    ticket = engine.partition.submit_client(req)
    return _client_response(engine, ticket)


def _drive(
    engine: Engine, stream: str, batches, warmup: int, client_driven: bool = False
) -> tuple:
    """Feed each batch as one round and time it. Triggered, the fast track
    runs the rest of the workflow: one client round-trip per round. Client
    driven, the trigger-less baseline: the client submits the workflow's
    streaming procedures after the border itself, in ``streaming_names()``
    order, and decides the next step from each decoded response. It stops
    after a step that aborted or whose first result cell is false; a step
    that sets no result goes on."""
    steps = engine.spec.workflows[0].streaming_names()[1:] if client_driven else ()
    ing = StreamIngestor(engine, stream, BatchingPolicy("fixed_count", 10**9))
    latencies = []
    start_all = None
    for i, rows in enumerate(batches):
        if i == warmup:
            start_all = time.perf_counter()
        t0 = time.perf_counter()
        for row in rows:
            ing.push(tuple(row))
        ticket = ing._flush()
        if client_driven:
            resp = _client_response(engine, ticket)
            for name in steps:
                result = resp["rows"]
                if resp["outcome"] != "committed" or (
                    result is not None and not (result and result[0][0])
                ):
                    break
                resp = _client_call(engine, name, ing.next_batch_id - 1)
        else:
            engine.run_until_idle()
        if i >= warmup:
            latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - (start_all or time.perf_counter())
    return elapsed, latencies


def _int_batches(rounds: int, batch_size: int, seed: int = 1) -> list[list[tuple]]:
    import random

    rng = random.Random(seed)
    return [
        [(rng.randint(0, 100),) for _ in range(batch_size)] for _ in range(rounds)
    ]


def run_ee_trigger_bench(
    stages: int, mode: str, rounds: int = 500, batch_size: int = 4, warmup_frac: float = 0.1
) -> MetricsReport:
    engine = Engine(ee_chain_spec(stages, mode))
    batches = _int_batches(rounds, batch_size)
    warmup = int(rounds * warmup_frac)
    elapsed, lat = _drive(engine, "s1", batches, warmup, mode != "triggered")
    sig = engine.store.content_signature()
    final_stream = f"s{stages + 1}"
    return _report(
        "ee_trigger", mode, rounds - warmup, elapsed, engine, lat,
        stages=stages,
        final_stream_rows=len(engine.store.stream(final_stream).rows),
        state_signature_key=final_stream,
        signature=repr(sig[final_stream]),
    )


def run_pe_trigger_bench(
    n: int, mode: str, rounds: int = 500, batch_size: int = 1, warmup_frac: float = 0.1
) -> MetricsReport:
    engine = Engine(pe_chain_spec(n, mode))
    batches = _int_batches(rounds, batch_size)
    warmup = int(rounds * warmup_frac)
    elapsed, lat = _drive(engine, "s1", batches, warmup, mode != "triggered")
    report = _report(
        "pe_trigger", mode, rounds - warmup, elapsed, engine, lat,
        chain=n,
        out_rows=len(engine.store.table("out").rows),
        signature=repr(engine.store.content_signature()["out"]),
    )
    report.extras["schedule_valid"] = validate(
        engine.committed_schedule, engine.spec.workflows[0]
    ).correct
    return report


def run_window_bench(
    size: int, slide: int, mode: str, rounds: int = 300, batch_size: int = 4,
    warmup_frac: float = 0.1,
) -> MetricsReport:
    spec = window_native_spec(size, slide) if mode == "native" else window_emulated_spec(size, slide)
    engine = Engine(spec)
    batches = _int_batches(rounds, batch_size)
    warmup = int(rounds * warmup_frac)
    elapsed, lat = _drive(engine, "s1", batches, warmup)
    events = [t.values[0] for t in engine.store.stream("wout").rows]
    return _report(
        "window", mode, rounds - warmup, elapsed, engine, lat,
        size=size, slide=slide,
        events=len(events),
        event_checksum=hash(tuple(events)),
        event_values=events if len(events) <= 64 else events[:64],
    )


def window_event_log(size, slide, mode, batches) -> list[float]:
    """Full window-event sequence for equality checks between modes."""
    spec = window_native_spec(size, slide) if mode == "native" else window_emulated_spec(size, slide)
    engine = Engine(spec)
    _drive(engine, "s1", batches, warmup=0)
    return [t.values[0] for t in engine.store.stream("wout").rows]


def run_leaderboard(
    contestants: int = 4,
    trending_size: int = 100,
    removal_period: int = 1000,
    votes: Optional[list[tuple[int, str]]] = None,
    mode: str = "triggered",
    rounds: int = 200,
    warmup_frac: float = 0.0,
) -> tuple[MetricsReport, dict]:
    if votes is None:
        votes = make_vote_trace(contestants, rounds)
    engine = Engine(leaderboard_spec(contestants, trending_size, removal_period, mode))
    warmup = int(len(votes) * warmup_frac)
    batches = [[vote] for vote in votes]
    elapsed, latencies = _drive(
        engine, "votes_in", batches, warmup, mode != "triggered"
    )
    state = leaderboard_state(engine)
    report = _report(
        "leaderboard", mode, len(votes) - warmup, elapsed, engine, latencies,
        **{k: v for k, v in state.items() if k != "counts"},
    )
    report.extras["schedule_valid"] = validate(
        engine.committed_schedule, engine.spec.workflows[0]
    ).correct
    return report, state


def leaderboard_state(engine: Engine) -> dict:
    def board(table):
        rows = sorted(engine.store.table(table).rows, key=lambda t: t.values[0])
        return [(t.values[1], t.values[2]) for t in rows]

    counts = {
        t.values[0]: t.values[1] for t in engine.store.table("contestants").rows
    }
    top = board("top3")
    return {
        "winner": top[0][0] if top else None,
        "counts": counts,
        "remaining": sorted(counts),
        "top3": top,
        "bottom3": board("bottom3"),
        "trending": board("trend3"),
        "valid_votes": engine.store.table("vstats").rows[0].values[0],
        "recorded_votes": len(engine.store.table("votes").rows),
    }


def run_recovery_experiment(
    n: int,
    mode: RecoveryMode,
    crash_point: str,
    data_dir: str,
    rounds: int = 20,
    group_commit_max_batch: int = 1,
) -> MetricsReport:
    """Run the trigger-chain workload with logging on, kill the engine at
    ``crash_point`` (``after-round:<k>``, ``mid-flush``, or ``mid-snapshot``),
    recover, and compare against a crash-free golden run.

    Strong recovery must land bit-exactly on the golden prefix at the same
    commit sequence; weak recovery must produce a validator-accepted schedule
    and, once resumed, the golden run's final public tables.
    """
    from .snapshot import snapshot_state

    batches = _int_batches(rounds, 1, seed=5)
    kind, _, arg = crash_point.partition(":")
    feed_rounds = int(arg) if kind == "after-round" else rounds

    golden_states: dict[int, bytes] = {}

    def hook(p):
        golden_states[p.commit_seq] = snapshot_state(p.store, p.id, p.commit_seq)

    golden = Engine(pe_chain_spec(n, "triggered"), post_commit_hook=hook)
    golden_states[0] = snapshot_state(golden.store, 0, 0)
    _drive(golden, "s1", batches[:feed_rounds], warmup=0)
    golden_public = _public_tables(golden)

    live = Engine(
        pe_chain_spec(n, "triggered"),
        data_dir=data_dir,
        recovery_mode=mode,
        group_commit_max_batch=group_commit_max_batch,
        fsync=False,
    )
    ing = StreamIngestor(live, "s1", BatchingPolicy("fixed_count", 10**9))
    t0 = time.perf_counter()
    for i, rows in enumerate(batches[:feed_rounds]):
        for row in rows:
            ing.push(tuple(row))
        ing._flush()
        live.run_until_idle()
        if kind == "mid-snapshot" and i == feed_rounds // 2:
            mid_ckpt = live.checkpoint()
    run_elapsed = time.perf_counter() - t0
    live_counters = live.counters.as_dict()
    live.crash()
    if kind == "mid-flush":
        torn = CommandLogRecord(10**6, "sp1", 10**6, b"torn").encode()
        with open(data_path(data_dir, LOG_FILE), "ab") as fh:
            fh.write(torn[: len(torn) // 2])
    elif kind == "mid-snapshot":
        torn = snapshot_state(live.store, 0, 10**6)[:50]
        write_snapshot(data_dir, 999999, torn, False)

    t1 = time.perf_counter()
    recovered = recover(pe_chain_spec(n, "triggered"), data_dir, fsync=False)
    recovery_elapsed = time.perf_counter() - t1
    extras = {
        "crash_point": crash_point,
        "replay_client_dispatches": recovered.counters.replay_client_dispatches,
        "replay_trigger_dispatches": recovered.counters.replay_trigger_dispatches,
        "recovery_sec": round(recovery_elapsed, 6),
        "log_records": live_counters["log_records"],
        "sync_count": live_counters["sync_count"],
    }
    if mode is RecoveryMode.STRONG:
        seq = recovered.partition.commit_seq
        extras["bit_exact"] = recovered.snapshot_bytes() == golden_states[seq]
        recovered.run_until_idle()
    else:
        recovered.run_until_idle()
        extras["schedule_valid"] = validate(
            recovered.committed_schedule, recovered.spec.workflows[0]
        ).correct
        extras["public_state_matches_golden"] = (
            _public_tables(recovered) == golden_public
        )
    report = _report(
        "recovery", mode.name.lower(), feed_rounds, run_elapsed, recovered, [],
        **extras,
    )
    report.counters = live_counters
    recovered.close()
    return report


def _public_tables(engine: Engine) -> dict:
    sig = engine.store.content_signature()
    return {k: v for k, v in sig.items() if v[0] == "public"}


def run_partition_scaling(
    p: int, rounds: int = 400, batch_size: int = 20, keys: int = 64, seed: int = 3
) -> MetricsReport:
    """Hash-partitioned feed over p share-nothing engines, run in parallel
    processes; correctness is the multiset-union check against p=1."""
    batches = make_keyed_batches(rounds, batch_size, keys, seed)
    t0 = time.perf_counter()
    results = _run_partitions(p, batches)
    elapsed = time.perf_counter() - t0
    totals: dict[int, tuple[int, int]] = {}
    te_committed = 0
    for sig, counters in results:
        for key, cnt, total in sig:
            assert key not in totals, "partitions must be key-disjoint"
            totals[key] = (cnt, total)
        te_committed += counters["te_committed"]
    counters = {"te_committed": te_committed, "partitions": p}
    return MetricsReport(
        name="partition_scaling",
        mode=f"p{p}",
        rounds=rounds,
        elapsed_sec=elapsed,
        workflows_per_sec=rounds / elapsed,
        tes_per_sec=te_committed / elapsed,
        counters=counters,
        extras={"totals": sorted(totals.items())},
    )


def _partition_worker(args):
    index, p, batches = args
    spec = partitionable_spec()
    engine = Engine(spec, partition_id=index)
    ing = StreamIngestor(engine, "events", BatchingPolicy("fixed_count", 10**9))
    for rows in batches:
        if route_partition(rows[0][0], p) != index:
            continue
        for row in rows:
            ing.push(tuple(row))
        ing._flush()
        engine.run_until_idle()
    sig = sorted(t.values for t in engine.store.table("totals").rows)
    return sig, engine.counters.as_dict()


def _run_partitions(p: int, batches):
    if p == 1:
        return [_partition_worker((0, 1, batches))]
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(processes=p) as pool:
        return pool.map(_partition_worker, [(i, p, batches) for i in range(p)])
