import os

import pytest

from randomized import pair_chain_spec
from streamtx.engine import Engine, EngineSpec, StreamDef, TableDef, recover
from streamtx.errors import EngineStopped, SchemaMismatch, WrongKind
from streamtx.ingest import (
    BatchingPolicy,
    FeedSource,
    StreamIngestor,
    ingest,
)
from streamtx.model import (
    AtomicBatch,
    ProcedureDef,
    ProcedureKind,
    Tuple,
    register_workflow,
)
from test_recovery import chain_spec

VAL_COLS = (("value", "int"),)


def collector_spec():
    seen = []

    def body(ctx):
        seen.append([t.values[0] for t in ctx.input_tuples("s1")])

    w = register_workflow(
        "c", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)]
    )
    return EngineSpec(workflows=[w], streams=[StreamDef("s1", VAL_COLS)]), seen


def test_fixed_count_batching():
    spec, seen = collector_spec()
    e = Engine(spec)
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 2))
    for v in range(10):
        ing.push((v,))
    e.run_until_idle()
    assert seen == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
    rounds = [te.round for te in e.committed_schedule]
    assert rounds == [1, 2, 3, 4, 5]


def test_same_timestamp_batching():
    spec, seen = collector_spec()
    e = Engine(spec)
    ing = StreamIngestor(e, "s1", BatchingPolicy("same_timestamp"))
    for i, ts in enumerate([1, 1, 2, 3, 3, 3]):
        ing.push((i,), ts=ts)
    ing.end_of_stream()
    e.run_until_idle()
    assert seen == [[0, 1], [2], [3, 4, 5]]


def test_partial_final_batch_on_eos():
    spec, seen = collector_spec()
    e = Engine(spec)
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 2))
    for v in range(7):
        ing.push((v,))
    ing.end_of_stream()
    e.run_until_idle()
    assert seen[-1] == [6]
    assert len(seen) == 4


def test_eos_without_partial_emits_nothing():
    spec, seen = collector_spec()
    e = Engine(spec)
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 2))
    ing.push((1,))
    ing.push((2,))
    ing.end_of_stream()
    e.run_until_idle()
    assert seen == [[1, 2]]


def test_closed_stream_rejects_pushes():
    spec, _ = collector_spec()
    e = Engine(spec)
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 2))
    ing.end_of_stream()
    with pytest.raises(EngineStopped):
        ing.push((1,))


def test_replay_determinism():
    def run():
        spec, seen = collector_spec()
        e = Engine(spec)
        ingest(
            e,
            FeedSource.from_values([5, 3, 9, 9, 1]),
            BatchingPolicy("fixed_count", 2),
            "s1",
        )
        e.run_until_idle()
        ids = [
            (te.procedure, te.round) for te in e.committed_schedule
        ]
        return seen, ids

    assert run() == run()


def test_batch_contiguity_reconstructs_feed():
    import random

    rng = random.Random(5)
    values = [rng.randint(0, 99) for _ in range(57)]
    spec, seen = collector_spec()
    e = Engine(spec)
    ingest(e, FeedSource.from_values(values), BatchingPolicy("fixed_count", 5), "s1")
    e.run_until_idle()
    flat = [v for batch in seen for v in batch]
    assert flat == values


def test_csv_feed(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("value,ts\n10,1\n20,1\n30,2\n")
    spec, seen = collector_spec()
    e = Engine(spec)
    schema = e.store.stream("s1").schema
    feed = FeedSource.from_csv(str(path), schema, ts_column="ts")
    ingest(e, feed, BatchingPolicy("same_timestamp"), "s1")
    e.run_until_idle()
    assert seen == [[10, 20], [30]]


def test_csv_feed_missing_column(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("wrong\n1\n")
    spec, _ = collector_spec()
    e = Engine(spec)
    schema = e.store.stream("s1").schema
    with pytest.raises(SchemaMismatch):
        FeedSource.from_csv(str(path), schema)


def test_call_oltp_and_result_rows():
    def body(ctx):
        ctx.insert("t", (ctx.args["v"],))
        ctx.set_result(ctx.aggregate("t", "count"))

    w = register_workflow(
        "q", [ProcedureDef("LOOKUP", ProcedureKind.OLTP, body=body)]
    )
    e = Engine(EngineSpec(workflows=[w], tables=[TableDef("t", VAL_COLS)]))
    t = e.call_oltp("LOOKUP", {"v": 4})
    e.await_ticket(t)
    assert t.committed
    assert t.result_rows == [(1,)]


def test_call_oltp_wrong_kind():
    spec, _ = collector_spec()
    e = Engine(spec)
    with pytest.raises(WrongKind):
        e.call_oltp("SP1")


def test_ingest_to_non_border_stream_rejected():
    from streamtx.errors import BadDefinition
    from streamtx.model import AtomicBatch, Tuple

    def b1(ctx):
        ctx.emit("s2", ctx.input_tuples("s1"))

    w = register_workflow(
        "c2",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=b1),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s2",)),
        ],
        [("SP1", "s2", "SP2")],
    )
    e = Engine(
        EngineSpec(
            workflows=[w],
            streams=[StreamDef("s1", VAL_COLS), StreamDef("s2", VAL_COLS)],
        )
    )
    with pytest.raises(BadDefinition):
        e.ingest_batch("s2", AtomicBatch(1, (Tuple((1,), 1, 1),)))


def test_backpressure_pumps_engine():
    spec, seen = collector_spec()
    e = Engine(spec, queue_bound=5)
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1))
    for v in range(50):
        ing.push((v,))
    # the bound forces processing along the way instead of unbounded queuing
    assert len(e.partition.client_queue) < 50
    e.run_until_idle()
    assert len(seen) == 50


def test_hundred_async_calls_all_resolve():
    def body(ctx):
        ctx.insert("t", (ctx.args["v"],))

    w = register_workflow("q", [ProcedureDef("W", ProcedureKind.OLTP, body=body)])
    e = Engine(EngineSpec(workflows=[w], tables=[TableDef("t", VAL_COLS)]))
    tickets = [e.call_oltp("W", {"v": i}) for i in range(100)]
    e.run_until_idle()
    assert all(t.committed for t in tickets)
    assert len(e.store.table("t").rows) == 100


def test_from_values_takes_a_tuple_as_its_values():
    # a Tuple is a tuple too, but its four fields are not a row
    feed = FeedSource.from_values([Tuple((1, "a"), 5, 5, 9), (2, "b"), [3, "c"], 4], ts=7)
    assert feed.rows == [((1, "a"), 7), ((2, "b"), 7), ((3, "c"), 7), ((4,), 7)]


# --- the one-input intake: straight to the client queue ---


def small_batch(r):
    return AtomicBatch(r, (Tuple((r,), tuple_id=r, batch_id=r),))


def test_round_queues_behind_the_queue_bound_pump():
    e = Engine(chain_spec(3), queue_bound=3)
    tickets = [e.ingest_batch("s1", small_batch(r)) for r in (1, 2, 3)]
    assert [req.round for req in e.partition.client_queue] == [1, 2, 3]
    fourth = e.ingest_batch("s1", small_batch(4))  # the pump runs 1-3 first
    assert all(t.committed for t in tickets)
    (req,) = e.partition.client_queue
    assert (req.proc, req.round, req.ticket) == ("SP1", 4, fourth)
    assert e.partition.last_queued["SP1"] == 4
    e.run_until_idle()
    assert fourth.committed
    assert [(te.procedure, te.round) for te in e.committed_schedule] == [
        (f"SP{i}", r) for r in (1, 2, 3, 4) for i in (1, 2, 3)
    ]


def test_failed_pump_write_queues_and_caches_nothing(tmp_path, monkeypatch):
    from streamtx.errors import LogWriteFailure
    from streamtx.recovery import RecoveryMode, read_input_cache

    e = Engine(
        chain_spec(3), data_dir=str(tmp_path), recovery_mode=RecoveryMode.WEAK,
        fsync=True, queue_bound=3,
    )
    for r in (1, 2, 3):
        e.ingest_batch("s1", small_batch(r))

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(LogWriteFailure, match="disk full"):
        e.ingest_batch("s1", small_batch(4))  # round 1's record fails to sync
    monkeypatch.undo()
    p = e.partition
    assert p.stopped
    assert [req.round for req in p.client_queue] == [2, 3]
    assert p.last_queued["SP1"] == 3
    assert [b.batch_id for b in p.input_cache.retained["s1"]] == [1, 2, 3]
    cached = read_input_cache(str(tmp_path / "input.cache"))[0]
    assert [b.batch_id for b in cached["s1"]] == [1, 2, 3]
    with pytest.raises(EngineStopped):
        e.ingest_batch("s1", small_batch(4))
    e.crash()


def test_pump_that_stops_the_partition_raises_engine_stopped():
    def stop(partition):
        partition.stopped = True  # as a crash in a commit hook would

    e = Engine(chain_spec(3), queue_bound=2, post_commit_hook=stop)
    for r in (1, 2):
        e.ingest_batch("s1", small_batch(r))
    with pytest.raises(EngineStopped):
        e.ingest_batch("s1", small_batch(3))
    assert [req.round for req in e.partition.client_queue] == [2]
    assert e.partition.last_queued["SP1"] == 2



# --- a border with two inputs: its rounds wait in feeder slots ---


def pair_round(e, r):
    """Both batches of round r of ``pair_chain_spec``; the second's ticket."""
    e.ingest_batch("a", small_batch(r))
    return e.ingest_batch("b", small_batch(r))


def test_pump_that_stops_the_partition_keeps_the_two_input_round():
    def stop(partition):
        partition.stopped = True  # as a crash in a commit hook would

    e = Engine(pair_chain_spec(), queue_bound=2, post_commit_hook=stop)
    for r in (1, 2):
        pair_round(e, r)
    with pytest.raises(EngineStopped):
        pair_round(e, 3)
    assert [req.round for req in e.partition.client_queue] == [2]
    assert e.partition.last_queued["SP1"] == 2
    assert sorted(e._feeder_pending["SP1"][3][0]) == ["a", "b"]


def test_failed_pump_write_keeps_the_two_input_round_in_its_slot(tmp_path, monkeypatch):
    from streamtx.errors import LogWriteFailure
    from streamtx.recovery import RecoveryMode, read_input_cache

    e = Engine(
        pair_chain_spec(), data_dir=str(tmp_path), recovery_mode=RecoveryMode.WEAK,
        fsync=False, queue_bound=3,
    )
    for r in (1, 2, 3):
        pair_round(e, r)
    e.ingest_batch("a", small_batch(4))

    def fail(data):
        raise LogWriteFailure("disk full")

    monkeypatch.setattr(e.partition.log.file, "append", fail)
    with pytest.raises(LogWriteFailure, match="disk full"):
        e.ingest_batch("b", small_batch(4))  # round 1's record fails to write
    p = e.partition
    assert p.stopped
    assert [req.round for req in p.client_queue] == [2, 3]
    assert p.last_queued["SP1"] == 3
    assert sorted(e._feeder_pending["SP1"][4][0]) == ["a", "b"]
    # the cache holds the slot's batches, so recovery runs round 4 too
    cached = read_input_cache(str(tmp_path / "input.cache"))[0]
    assert {s: [b.batch_id for b in bs] for s, bs in cached.items()} == {
        "a": [1, 2, 3, 4], "b": [1, 2, 3, 4]
    }
    with pytest.raises(EngineStopped):
        e.ingest_batch("a", small_batch(5))
    e.crash()
    r = recover(pair_chain_spec(), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert [t.values for t in r.store.table("out").rows] == [
        (n, 2 * n) for n in (1, 2, 3, 4)
    ]
    r.close()

def test_client_calls_get_their_ticket_from_submit_client(monkeypatch):
    from streamtx.bench import _client_call
    from streamtx.executor import Partition

    submitted = []
    real = Partition.submit_client

    def spy(self, req):
        ticket = real(self, req)
        submitted.append((req.proc, req.round, ticket))
        return ticket

    monkeypatch.setattr(Partition, "submit_client", spy)
    w = register_workflow(
        "q", [ProcedureDef("W", ProcedureKind.OLTP, body=lambda ctx: None)]
    )
    oltp = Engine(EngineSpec(workflows=[w]))
    ticket = oltp.call_oltp("W")
    assert submitted == [("W", 0, ticket)]

    spec = chain_spec(2)
    spec.use_procedure_triggers = False  # the client drives SP2
    e = Engine(spec)
    e.ingest_batch("s1", small_batch(1))
    assert len(submitted) == 1  # a border round goes straight to the queue
    e.run_until_idle()
    assert _client_call(e, "SP2", 1)["outcome"] == "committed"
    assert [s[:2] for s in submitted] == [("W", 0), ("SP2", 1)]
    assert submitted[1][2].committed
